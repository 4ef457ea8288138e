"""Scenario configuration: JSON loading, validation, defaults.

One JSON file describes one scenario. Every block is optional and falls
back to the built-in baseline; unknown keys are rejected everywhere.
Validation walks the whole file and reports every problem found, each
tagged with its config path (for example ``balloon.geometry``), rather
than stopping at the first.

Blocks are read field by field from the model dataclasses they build:
each key is converted by its field's type hint, and the key names come
from the fields, or from ``report.JSON_KEYS`` where the two differ. Only
input that is not a plain field is read by hand.

Parsing checks the file's own values only: it reads no map file and
walks no event script. ``mission.explore_tube`` checks the tube and
``mission.phase_visits`` the script, so only the runs that do so fail.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import re
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from tubescout.aerostat import REFERENCE_BALLOON, BalloonConfig
from tubescout.energy import (
    DEFAULT_TIMESTEP_S,
    REFERENCE_WINCH,
    Battery,
    PowerLoad,
    PowerSource,
    SourceKind,
    WinchSpec,
    sol_problems,
)
from tubescout.env import MarsEnvironment, make_environment
from tubescout.mission import (
    REGEN_SOURCE_NAME,
    MissionEvent,
    MissionPhase,
    check_germination,
)
from tubescout.numeric import require_nonnegative
from tubescout.program import (
    DEFAULT_DEADLINE_YEAR,
    DEFAULT_LAUNCH_YEAR,
    DEFAULT_PAYLOADS,
    DEFAULT_PHASES,
    DEFAULT_WBS,
    BudgetLimits,
    LifecyclePhase,
    Money,
    PayloadSpec,
    WbsNode,
    check_phase_list,
    fte_estimate,
    parse_money,
    rollup_cost,
)
from tubescout.report import JSON_KEYS, ConfigError, echo, json_fields
from tubescout.thermal import REFERENCE_GREENHOUSE, AvionicsEnvelope, GlazedEnclosure
from tubescout.tube_explorer import SampleSite, ScoutRobot, Station, check_tube_parameters

#: The phases that run sols, the only ones a sol setting may name.
_SOL_PHASES = tuple(p.value for p in MissionPhase if p is not MissionPhase.COMPLETE)


def _phase_problem(phase: str) -> str | None:
    """Why a sol setting may not name ``phase``, or None if it may."""
    if phase in _SOL_PHASES:
        return None
    what = "no sols run in" if phase == MissionPhase.COMPLETE.value else "unknown"
    return f"{what} phase {phase!r} (phases that run sols: {', '.join(_SOL_PHASES)})"


@dataclass(frozen=True)
class TaggedLoad(PowerLoad):
    """A ``PowerLoad`` with the mission phases during which it draws.
    ``phases`` of None means the load is always attached. ``load`` is the
    phase-less load, as the ``power`` report echoes it."""

    phases: tuple[str, ...] | None = None

    def __post_init__(self):
        super().__post_init__()
        for phase in self.phases or ():
            if problem := _phase_problem(phase):
                raise ValueError(problem)

    @property
    def load(self) -> PowerLoad:
        return PowerLoad(**{f.name: getattr(self, f.name)
                            for f in dataclasses.fields(PowerLoad)})

    def active_in(self, phase_name: str) -> bool:
        return self.phases is None or phase_name in self.phases


@dataclass(frozen=True)
class GeneratorSettings:
    """Parameters for procedurally generated tube maps."""

    width: int = 20
    height: int = 20
    obstacle_density: float = 0.2
    resolution_m: float = 1.0

    def __post_init__(self):
        check_tube_parameters(self.width, self.height, self.obstacle_density,
                              self.resolution_m)


#: Upper bounds on the fleet and on the ticks of one survey, each on its
#: own; ``mission.explore_tube`` bounds their product with the map's size.
#: A survey stops once the tube is covered and every sample delivered,
#: so only a stalled one runs to ``max_steps``.
MAX_ROBOTS = 100
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class ExplorationSettings:
    map_file: str | None = None
    generator: GeneratorSettings = GeneratorSettings()
    robot_count: int = 3
    robot_overrides: dict = field(default_factory=dict)
    max_steps: int = 10_000
    sample_sites: tuple[SampleSite, ...] = ()
    station: Station = Station(winch=REFERENCE_WINCH)
    final_drop_m: float = 0.0

    def __post_init__(self):
        if not 1 <= self.robot_count <= MAX_ROBOTS:
            raise ValueError(f"robot_count must be in 1..{MAX_ROBOTS}, "
                             f"got {self.robot_count}")
        if not 1 <= self.max_steps <= MAX_STEPS:
            raise ValueError(f"max_steps must be in 1..{MAX_STEPS}, "
                             f"got {self.max_steps}")


@dataclass(frozen=True)
class ProgramSettings:
    payloads: tuple[PayloadSpec, ...] = DEFAULT_PAYLOADS
    limits: BudgetLimits = BudgetLimits()
    wbs: WbsNode = DEFAULT_WBS
    phases: tuple[LifecyclePhase, ...] = DEFAULT_PHASES
    launch_year: int = DEFAULT_LAUNCH_YEAR
    deadline_year: int = DEFAULT_DEADLINE_YEAR
    fte_people: int = 600
    fte_years: int = 10
    fte_rate: int = 220

    def __post_init__(self):
        check_phase_list(self.phases)
        fte_estimate(self.fte_people, self.fte_years, self.fte_rate)  # validates


@dataclass(frozen=True)
class GerminationSettings:
    n_seeds: int = 10_000
    p_germinate: float = 0.7

    def __post_init__(self):
        check_germination(self.n_seeds, self.p_germinate)


#: Upper bound on ``mission.sols_per_phase`` values: a Martian year is 669
#: sols, and every sol is a full power simulation. The whole mission is
#: bounded by ``mission.MAX_MISSION_*``.
MAX_SOLS_PER_PHASE = 1000


def _default_sols() -> dict:
    return {"Initial": 1, "Transit": 1, "Settlement": 1}


def _default_cave_fraction() -> dict:
    # Station at the entrance, robots inside: half the period is shielded.
    return {"Initial": 0.0, "Transit": 0.0, "Settlement": 0.5}


@dataclass(frozen=True)
class MissionSettings:
    events: tuple[MissionEvent, ...] = (
        MissionEvent.DEPLOYMENT_DONE,
        MissionEvent.ARRIVED_AT_TUBE,
        MissionEvent.TUBE_SURVEY_COMPLETE,
        MissionEvent.END_MISSION,
    )
    sols_per_phase: dict = field(default_factory=_default_sols)
    cave_fraction: dict = field(default_factory=_default_cave_fraction)
    seed: int = 42
    germination: GerminationSettings | None = GerminationSettings()

    def __post_init__(self):
        require_nonnegative(self, "seed")


@dataclass(frozen=True)
class MissionConfig:
    """Fully resolved scenario: every block validated into model types."""

    env_preset: str = "nili_fossae_default"
    env_overrides: dict = field(default_factory=dict)
    env: MarsEnvironment = MarsEnvironment()
    balloon: BalloonConfig = REFERENCE_BALLOON
    winch: WinchSpec = REFERENCE_WINCH
    enclosure: GlazedEnclosure = REFERENCE_GREENHOUSE
    avionics: AvionicsEnvelope = AvionicsEnvelope()
    battery: Battery = Battery()
    timestep_s: float = DEFAULT_TIMESTEP_S
    sources: tuple[PowerSource, ...] = (
        PowerSource("rtg", SourceKind.CONSTANT, 110.0),)
    loads: tuple[TaggedLoad, ...] = ()
    exploration: ExplorationSettings = ExplorationSettings()
    program: ProgramSettings = ProgramSettings()
    mission: MissionSettings = MissionSettings()


#: Marks a value whose problem is already recorded.
_INVALID = object()

#: Marks a key that an object does not hold.
_ABSENT = object()

#: How fixed-length arrays are described in errors, by JSON key.
_SHAPES = {"window_s": "[start_s, end_s]", "cell": "[row, col]"}

#: The largest finite float: a JSON number past it is NaN or infinite.
_FLOAT_MAX = sys.float_info.max

_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"),
            Money: ((int, str), "an integer or money string"),
            str: (str, "a string"), bool: (bool, "true or false")}


@functools.cache
def _converter(hint, nullable: bool = False):
    """The function ``(raw, path, errors)`` that converts a JSON value to
    ``hint``: a scalar, Money, an Enum, a dataclass, a tuple of these or
    ``X | None``. A problem is recorded in ``errors`` at ``path`` and
    answered with ``_INVALID``. Built once per type, since dispatching
    on the type hint costs more than the conversion."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        inner = _converter(args[0], True)
        return lambda raw, path, errors: (
            None if raw is None else inner(raw, path, errors))

    def fail(raw, path, errors, what):
        errors.append((path, f"expected {what}{' or null' if nullable else ''}, "
                             f"got {raw!r}"))
        return _INVALID

    if origin is tuple:
        fixed = args[-1] is not Ellipsis
        items = [_converter(a) for a in (args if fixed else args[:1])]

        def convert(raw, path, errors):
            if not isinstance(raw, list) or (fixed and len(raw) != len(items)):
                return fail(raw, path, errors,
                            _SHAPES.get(path.rpartition(".")[2], "an array"))
            values = [item(v, f"{path}[{i}]", errors) for i, (item, v) in
                      enumerate(zip(items if fixed else items * len(raw), raw))]
            for v in values:
                if v is _INVALID:
                    return _INVALID
            return tuple(values)
    elif dataclasses.is_dataclass(hint):
        def convert(raw, path, errors):
            if isinstance(raw, dict):
                return _parse_dataclass(raw, path, errors, hint)
            return fail(raw, path, errors, "an object")
    elif isinstance(hint, type) and issubclass(hint, enum.Enum):
        label = re.sub(r"(?<!^)(?=[A-Z])", " ", hint.__name__).lower()
        known = ", ".join(m.value for m in hint)

        def convert(raw, path, errors):
            try:
                return hint(raw)
            except (ValueError, TypeError):
                errors.append((path, f"unknown {label} {raw!r} (known: {known})"))
                return _INVALID
    elif hint in _SCALARS:
        kinds, what = _SCALARS[hint]

        def convert(raw, path, errors):
            if not isinstance(raw, kinds) or (isinstance(raw, bool) and hint is not bool):
                return fail(raw, path, errors, what)
            if hint is float and not abs(raw) <= _FLOAT_MAX:
                # json.loads accepts NaN and Infinity; no model means them.
                errors.append((path, f"expected a finite number, got {raw!r}"))
                return _INVALID
            if hint is Money and isinstance(raw, str):
                try:
                    return parse_money(raw)
                except ValueError as exc:
                    errors.append((path, str(exc)))
                    return _INVALID
            return float(raw) if hint is float else raw
    else:
        return None  # no JSON form: such fields are read by hand
    return convert


class _Block:
    """One JSON object read by hand: a copy of it, from which keys are
    popped as they are read; any left when the block closes are unknown.
    A block that also holds model fields hands what is left of ``data``
    to ``_parse_dataclass`` instead, which reads those fields and reports
    any other key as unknown."""

    def __init__(self, data: dict, path: str, errors: list):
        self.data = dict(data)
        self.path = path
        self.errors = errors

    def err(self, message: str, key: str | None = None) -> None:
        _error(self.errors, self.path, message, key)

    def read(self, key: str, hint, default=None):
        """The value at ``key`` as ``hint``; ``default`` if absent or invalid."""
        if key not in self.data:
            return default
        value = _converter(hint)(self.data.pop(key), f"{self.path}.{key}",
                                 self.errors)
        return default if value is _INVALID else value

    def obj(self, key: str) -> "_Block":
        """The object at ``key``; an empty block if absent or null."""
        raw = self.data.pop(key, None)
        if raw is not None and not isinstance(raw, dict):
            self.err(f"expected an object, got {raw!r}", key)
        return _Block(raw if isinstance(raw, dict) else {}, f"{self.path}.{key}",
                      self.errors)

    def close(self) -> None:
        _unknown(self.errors, self.path, self.data)
        self.data.clear()


def _error(errors: list, path: str, message: str, key: str | None = None) -> None:
    if key and not key.isprintable():
        key = repr(key)  # an unknown key must not break the error line
    errors.append((f"{path}.{key}" if key else path, message))


def _unknown(errors: list, path: str, keys) -> None:
    """Record each of ``keys``, in sorted order, as unknown at ``path``."""
    for key in sorted(keys):
        _error(errors, path, f"unknown key {key!r}", key)


@functools.cache
def _schema(cls) -> tuple:
    """(name, JSON group, JSON key, type hint, converter, required, plain,
    nullable) per field. A JSON value whose type is exactly ``plain``
    (finite, for a float) is the field's value as it stands, and so is
    null where ``nullable``; any other goes through the converter.
    Resolving type hints is slow, so it happens once per class."""
    hints = typing.get_type_hints(cls)
    required = {f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING}
    rows = []
    for name, group, key in json_fields(cls):
        hint = hints[name]
        nullable = typing.get_origin(hint) in (types.UnionType, typing.Union)
        scalar = typing.get_args(hint)[0] if nullable else hint
        plain = int if scalar is Money else scalar if scalar in _SCALARS else None
        rows.append((name, group, key, hint, _converter(hint), name in required,
                     plain, nullable))
    return tuple(rows)


def _parse_dataclass(data: dict, path: str, errors: list, cls,
                     given: dict | None = None):
    """Build ``cls`` from the JSON object ``data`` at ``path``, reading it
    in place: ``data`` is not changed. Each field's key is looked up in
    field order, a grouped field's in its group's object, so problems are
    recorded in field order. Fields named in ``given`` were read by hand
    and are not looked up. The keys taken are counted, and only when the
    objects hold more are the others found against the fields' keys and
    recorded as unknown. Returns ``_INVALID`` once the problems are
    recorded in ``errors``."""
    rows = _schema(cls)
    kwargs: dict = {}
    if given:
        rows = [row for row in rows if row[0] not in given]
        kwargs = {k: v for k, v in given.items() if v is not _INVALID}
    groups: dict = {}
    taken, held = 0, len(data)
    complete = True
    for name, group, key, _, convert, required, plain, nullable in rows:
        source = data
        if group:
            if group not in groups:
                raw = data.get(group)
                taken += group in data
                if raw is not None and not isinstance(raw, dict):
                    _error(errors, path, f"expected an object, got {raw!r}", group)
                groups[group] = raw if isinstance(raw, dict) else {}
                held += len(groups[group])
            source = groups[group]
        raw = source.get(key, _ABSENT)
        if raw is _ABSENT:
            if required:
                errors.append((path, f"missing required key {key!r}"))
                complete = False
            continue
        taken += 1
        # a float is finite where ``raw - raw`` is 0, not NaN
        if (type(raw) is plain and (plain is not float or raw - raw == 0.0)
                or raw is None and nullable):
            kwargs[name] = raw
            continue
        value = convert(raw, f"{path}.{group}.{key}" if group else f"{path}.{key}",
                        errors)
        if value is not _INVALID:
            kwargs[name] = value
        elif required:
            complete = False
    if taken < held:
        known = {(group, key) for _, group, key, *_ in rows}
        known.update(("", group) for group in groups)
        for group, source in (*groups.items(), ("", data)):
            _unknown(errors, f"{path}.{group}" if group else path,
                     [k for k in source if (group, k) not in known])
    if not complete:
        return _INVALID
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        errors.append((path, str(exc)))
        return _INVALID


def _parse_env(top: _Block):
    block = top.obj("env")
    preset = block.read("preset", str, MissionConfig.env_preset)
    sub = block.obj("overrides")
    overrides = {name: value for name, _, key, hint, *_ in _schema(MarsEnvironment)
                 if (value := sub.read(key, hint)) is not None}
    sub.close()
    block.close()
    try:
        env = make_environment(preset, **overrides)
    except ValueError as exc:
        top.err(str(exc), "env")
        env = MarsEnvironment()
    return {"env_preset": preset, "env_overrides": overrides, "env": env}


#: ScoutRobot fields a config may set for the whole fleet.
_ROBOT_OVERRIDE_KEYS = ("module_count", "battery_full_s", "speed_mps",
                        "aux_capacity_kg", "reserve_factor", "drop_tolerance_m")


def _parse_exploration(block: _Block, winch: WinchSpec, base_dir: Path | None):
    map_file = block.read("map_file", str)
    if map_file is not None:
        if "generator" in block.data:
            block.err("map_file and generator are mutually exclusive")
        resolved = Path(map_file)
        if base_dir is not None and not resolved.is_absolute():
            resolved = base_dir / resolved
        map_file = str(resolved)

    robots = block.obj("robots")
    count = robots.read("count", int, ExplorationSettings.robot_count)
    overrides = {name: value for name, _, key, hint, *_ in _schema(ScoutRobot)
                 if name in _ROBOT_OVERRIDE_KEYS
                 and (value := robots.read(key, hint)) is not None}
    robots.close()
    try:
        prototype = ScoutRobot("scout_1", **overrides)
    except ValueError as exc:
        robots.err(str(exc))
        prototype = None

    station_block = block.obj("station")
    use_winch = station_block.read("use_winch", bool, True)
    final_drop = station_block.read("final_drop_m", float, 0.0)
    if final_drop < 0:
        station_block.err(f"final_drop_m must be nonnegative, got {final_drop}",
                          "final_drop_m")
    station = _parse_dataclass(station_block.data, station_block.path,
                               station_block.errors, Station,
                               {"winch": winch if use_winch else None})
    # A robot lowered by the winch still free-falls the last stretch;
    # that drop must be survivable for the whole fleet.
    if prototype is not None and final_drop > prototype.drop_tolerance_m:
        block.err(f"station final drop {final_drop} m exceeds the robot drop "
                  f"tolerance {prototype.drop_tolerance_m} m")

    return _parse_dataclass(block.data, block.path, block.errors,
                            ExplorationSettings, {
        "map_file": map_file, "robot_count": count, "robot_overrides": overrides,
        "station": station, "final_drop_m": final_drop})


def parse_wbs_file(path) -> WbsNode:
    """Load a standalone work-breakdown tree from a JSON file."""
    errors: list = []
    wbs = _converter(WbsNode)(_read_json(Path(path)), "wbs", errors)
    if errors:
        raise ConfigError(errors)
    return wbs


def _parse_phase_map(block: _Block, key: str, default: dict, hint,
                     upper) -> dict:
    result = dict(default)
    sub = block.obj(key)
    for phase in sorted(sub.data):
        if problem := _phase_problem(phase):
            sub.err(problem, phase)
            continue
        value = sub.read(phase, hint)
        if value is None:
            continue
        if value < 0:
            sub.err(f"must be nonnegative, got {value}", phase)
        elif value > upper:
            sub.err(f"must be in [0, {upper}], got {value}", phase)
        else:
            result[phase] = value
    sub.data.clear()
    return result


def parse_config(raw: dict, base_dir: Path | None = None) -> MissionConfig:
    """Validate a parsed JSON object into a MissionConfig, collecting
    every error before raising."""
    if not isinstance(raw, dict):
        raise ConfigError([("config", "top level must be a JSON object")])
    errors: list = []
    top = _Block(raw, "config", errors)
    given = _parse_env(top)
    given["winch"] = top.read("winch", WinchSpec, MissionConfig.winch)
    given["exploration"] = _parse_exploration(top.obj("exploration"),
                                              given["winch"], base_dir)
    mission = top.obj("mission")
    given["mission"] = _parse_dataclass(mission.data, mission.path, errors,
                                        MissionSettings, {
        "sols_per_phase": _parse_phase_map(mission, "sols_per_phase",
                                           _default_sols(), int,
                                           MAX_SOLS_PER_PHASE),
        "cave_fraction": _parse_phase_map(mission, "cave_fraction",
                                          _default_cave_fraction(), float, 1)})
    config = _parse_dataclass(top.data, top.path, errors, MissionConfig, given)
    for argument, i, name, message in sol_problems(
            config.sources, config.loads, config.env, config.timestep_s,
            {REGEN_SOURCE_NAME: "the mission's winch regeneration source"}):
        path = "config." + JSON_KEYS["MissionConfig"][argument]
        if i is not None:
            fields = json_fields(type(getattr(config, argument)[i]))
            path += f"[{i}]." + next(k for f, _, k in fields if f == name)
        errors.append((path, message))
    if not config.sources and config.battery.initial_soc_wh == 0 and config.loads:
        errors.append(("config.power.sources",
                       "no power source and an empty battery cannot serve loads"))
    if errors:
        raise ConfigError(errors)
    return config


#: Upper bound on the nesting of a JSON file: far above the shipped
#: scenarios' 9 levels, and far below the ~400 levels (a WBS tree 200
#: nodes deep) that ``json`` and the converters' recursion still take.
MAX_JSON_DEPTH = 100


def _json_depth(value) -> int:
    """Nesting depth of a parsed JSON value, counted level by level."""
    depth, level = 0, [value]
    while level := [v for v in level if isinstance(v, (dict, list))]:
        depth += 1
        level = [c for v in level for c in (v.values() if isinstance(v, dict) else v)]
    return depth


def _read_json(path: Path):
    too_deep = f"JSON nesting deeper than {MAX_JSON_DEPTH} levels"
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([(str(path), f"cannot read file: {exc}")]) from exc
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([(str(path),
                            f"JSON parse error at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}")]) from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise ConfigError([(str(path), str(exc))]) from exc
    except RecursionError as exc:
        raise ConfigError([(str(path), too_deep)]) from exc
    # the opening brackets bound the depth, so most files need no walk
    if (text.count("[") + text.count("{") > MAX_JSON_DEPTH
            and _json_depth(value) > MAX_JSON_DEPTH):
        raise ConfigError([(str(path), too_deep)])
    return value


def load_config(path) -> MissionConfig:
    """Load and fully validate a scenario file.

    Raises:
        ConfigError: listing every parse or validation problem, each
            tagged with its location.
    """
    p = Path(path)
    raw = _read_json(p)
    return parse_config(raw, base_dir=p.parent)


def to_echo_dict(config: MissionConfig) -> dict:
    """Normalized configuration echo for reports. The full WBS tree is
    echoed by the program section; here it appears as its rollup."""
    out = echo(config, omit=("env", "program"))
    station = out["exploration"]["station"]
    station["use_winch"] = station.pop("winch") is not None
    station["final_drop_m"] = out["exploration"].pop("final_drop_m")
    out["program"] = echo(config.program, omit=("wbs",))
    out["program"]["wbs_total_usd"] = rollup_cost(config.program.wbs)
    return out
