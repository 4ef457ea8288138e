"""Report assembly: findings taxonomy, canonical JSON, per-module sections.

Every section carries an ``inputs`` echo alongside its results so each
number in a report is traceable to the values that produced it. Reports
serialize with sorted keys and no timestamps, so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import json
import math
import sys
from dataclasses import dataclass, field

from tubescout.aerostat import AreaModel, BalloonConfig, buoyancy_margin, gas_density_for
from tubescout.energy import (
    Battery,
    PowerLoad,
    PowerSource,
    SocTrace,
    WinchSpec,
    _Sol,
    winch_power,
    winch_regen_energy,
)
from tubescout.env import MarsEnvironment
from tubescout.program import (
    BudgetLimits,
    LifecyclePhase,
    PayloadSpec,
    WbsNode,
    rollup_budget,
    rollup_cost,
    validate_schedule,
)
from tubescout.thermal import (
    AvionicsEnvelope,
    GlazedEnclosure,
    avionics_envelope_check,
    greenhouse_night_load,
    heat_loss,
    night_heating_energy,
)
from tubescout.tube_explorer import OBSTACLE, ExplorationReport, GridMap


class ConfigError(Exception):
    """Carries every validation problem as (config_path, message) pairs."""

    def __init__(self, errors):
        self.errors = [(str(path), str(message)) for path, message in errors]
        detail = "; ".join(f"{path}: {message}" for path, message in self.errors)
        super().__init__(f"invalid configuration: {detail}")


#: The config blocks each report part is computed from, by its path (power
#: reads of the environment only the sol length, which parsing bounds).
PART_BLOCKS = {"aerostat": ("balloon", "env"), "energy": ("power",), "env": ("env",),
               "energy.winch": ("winch", "env"), "mission": ("mission", "power", "env"),
               "exploration": ("exploration", "winch", "env"), "program": ("program",),
               "thermal": ("enclosure", "avionics", "env")}


def part_errors(path: str, message) -> list:
    """(config path, ``path``: message) at each config block of the longest
    report part that leads to ``path``; none outside a part."""
    parts = [p for p in PART_BLOCKS if f"{path}.".startswith(f"{p}.")]
    return [(f"config.{block}", f"{path}: {message}")
            for block in (PART_BLOCKS[max(parts, key=len)] if parts else ())]


def guard(path: tuple, run):
    """``run`` with an arithmetic or model error on its config raised as
    a ConfigError at the config blocks of the report part at ``path``."""
    def guarded(*args):
        try:
            return run(*args)
        except (ArithmeticError, ValueError) as exc:
            message = "overflows" if isinstance(exc, OverflowError) else exc
            raise ConfigError(part_errors(".".join(path), message)) from exc
    return guarded


#: The three classes of report findings: a modeled system that cannot
#: meet its own demands, a model output that contradicts the published
#: baseline value, and a crossed design limit.
FINDING_KINDS = ("infeasible", "discrepancy_vs_paper", "limit_violation")


@dataclass(frozen=True)
class Finding:
    kind: str
    module: str
    message: str
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FINDING_KINDS:
            raise ValueError(
                f"finding kind must be one of {FINDING_KINDS}, got {self.kind!r}")
        if not self.module or not self.message:
            raise ValueError("finding module and message must be nonempty")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "module": self.module,
                "message": self.message, "data": dict(self.data)}


#: JSON keys that differ from field names, by class name; a subclass
#: inherits its bases' keys. A dotted key nests the field in a sub-object.
#: Config parsing and ``echo`` both read this.
JSON_KEYS = {
    "PowerLoad": {"window": "window_s"},
    "ProgramSettings": {"fte_people": "fte.people", "fte_years": "fte.years",
                        "fte_rate": "fte.fte_per_person_year"},
    "MissionConfig": {"env_preset": "env.preset", "env_overrides": "env.overrides",
                      "battery": "power.battery", "timestep_s": "power.timestep_s",
                      "sources": "power.sources", "loads": "power.loads"},
}


@functools.cache
def json_fields(cls) -> tuple:
    """(field name, JSON group, JSON key) for each field of a dataclass."""
    keys = collections.ChainMap(*(JSON_KEYS.get(c.__name__, {}) for c in cls.__mro__))
    return tuple((f.name, *keys.get(f.name, f.name).rpartition(".")[::2])
                 for f in dataclasses.fields(cls))


#: Types whose values are their own JSON form (a Money is an int).
_PLAIN = frozenset((str, int, float, bool, type(None)))


def echo(obj, omit=()):
    """The JSON form of a model value, keyed as in a config file:
    dataclasses become objects, tuples arrays and enums their values.
    ``omit`` names top-level fields to leave out."""
    if isinstance(obj, (tuple, list)):
        return [v if type(v) in _PLAIN else echo(v) for v in obj]
    if isinstance(obj, dict):
        return {k: v if type(v) in _PLAIN else echo(v) for k, v in obj.items()}
    if isinstance(obj, enum.Enum):
        return obj.value
    if not hasattr(obj, "__dataclass_fields__"):
        return obj
    out: dict = {}
    for name, group, key in json_fields(type(obj)):
        if name in omit:
            continue
        value = getattr(obj, name)
        (out.setdefault(group, {}) if group else out)[key] = (
            value if type(value) in _PLAIN else echo(value))
    return out


def _non_finite(node, path: str = "", above: frozenset = frozenset()):
    """(path, value) of each NaN or infinite number in a JSON tree. A
    container already ``above`` (by id) on the path is a cycle, and is
    not walked again."""
    if isinstance(node, float) and not math.isfinite(node):
        yield path, node
    if not isinstance(node, (dict, list, tuple)) or id(node) in above:
        return
    above |= {id(node)}
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield from _non_finite(value, f"{path}[{key}]" if isinstance(node, (list, tuple))
                               else f"{path}.{key}" if path else key, above)


_escape = json.encoder.encode_basestring_ascii
_json_dumps = functools.partial(json.dumps, indent=2, sort_keys=True, allow_nan=False)


class _NotPlain(Exception):
    """A node that ``_write`` leaves to ``json``."""


def _write(node, out: list, head: str, indent: str) -> None:
    """Append to ``out`` the text of a plain JSON node that starts its
    line with ``head``; a container's items sit at ``indent`` plus two
    spaces. A plain node is a ``str``, an ``int``, a finite ``float``,
    ``True``, ``False``, ``None``, or a list, tuple or dict (with ``str``
    keys) of plain nodes, all of these exact types; at any other node
    this raises _NotPlain. A dict is written in the order of its sorted
    keys, not of its sorted items; its loop writes strings and numbers
    itself and every other value by a call of its own."""
    kind = type(node)
    if kind is dict:
        if not node:
            out.append(head + "{}")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        head += "{\n" + inner
        for key in sorted(node):
            if type(key) is not str:
                raise _NotPlain
            value = node[key]
            head += _escape(key) + ": "
            kind = type(value)
            if kind is float and math.isfinite(value):
                out.append(head + float.__repr__(value))
            elif kind is str:
                out.append(head + _escape(value))
            elif kind is int:
                out.append(head + int.__repr__(value))
            else:
                _write(value, out, head, inner)
            head = sep
        out.append("\n" + indent + "}")
    elif kind is list or kind is tuple:
        if not node:
            out.append(head + "[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        head += "[\n" + inner
        for value in node:
            _write(value, out, head, inner)
            head = sep
        out.append("\n" + indent + "]")
    elif kind is str:
        out.append(head + _escape(node))
    elif kind is float and math.isfinite(node):
        out.append(head + float.__repr__(node))
    elif kind is int:
        out.append(head + int.__repr__(node))
    elif kind is bool:
        out.append(head + ("true" if node else "false"))
    elif node is None:
        out.append(head + "null")
    else:
        raise _NotPlain


def indented_json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``,
    byte for byte. A plain dict, list or tuple (see ``_write``) is
    written here, without ``json``'s pure-Python encoder; every other
    payload, and a cycle or nesting past the interpreter's limit, by
    ``json``, which writes it or refuses it as it would."""
    if type(payload) not in (dict, list, tuple):
        return _json_dumps(payload)
    out: list = []
    try:
        _write(payload, out, "", "")
    except (_NotPlain, TypeError, RecursionError):
        # TypeError: sorting a dict whose keys do not compare
        return _json_dumps(payload)
    return "".join(out)


#: Before CPython 3.13, ``indent`` sends ``json`` to its pure-Python
#: encoder, which ``indented_json`` beats 2.0-2.3x on 3.10 and 3.11 and
#: 1.8-2.1x on 3.12; from 3.13 ``json``'s C encoder takes ``indent`` and
#: is 1.8x faster than ``indented_json`` (27 reports of the shipped
#: scenarios).
_dumps = indented_json if sys.version_info < (3, 13) else _json_dumps


def dump_json(payload) -> str:
    """Canonical report serialization: sorted keys, two-space indent,
    trailing newline, the bytes of ``json.dumps(payload, indent=2,
    sort_keys=True, allow_nan=False)``. Before Python 3.13 ``json`` would
    encode them in pure Python, so ``indented_json`` writes plain trees
    faster and leaves every other payload to ``json``; from 3.13 on
    ``json``'s C encoder writes them all. A NaN or infinity raises a
    ConfigError naming the first at each config block of the report
    parts, or else ValueError."""
    try:
        return _dumps(payload) + "\n"
    except ValueError:
        errors: dict = {}
        for path, value in _non_finite(payload):
            for block, message in part_errors(path, f"{value} is not a finite number"):
                errors.setdefault(block, message)
        if not errors:
            raise
        raise ConfigError(errors.items()) from None


def env_section(env: MarsEnvironment) -> dict:
    section = echo(env)
    section["day_duration_s"] = env.day_duration_s
    section["night_start_s"] = env.night_start_s
    return section


def aerostat_section(balloon: BalloonConfig, env: MarsEnvironment) -> tuple[dict, list[Finding]]:
    """Evaluate buoyancy under both hull-area conventions.

    The configured model gives the section verdict. When the two models
    disagree about whether the aerostat floats, that disagreement is
    itself a result: the published sizing only closes under the
    outer-lateral-only area accounting.
    """
    by_model = {model.value: buoyancy_margin(balloon, env, area_model=model)
                for model in AreaModel}
    configured = by_model[balloon.area_model.value]
    section = {
        "inputs": echo(balloon),
        "ambient_density_kg_m3": env.ambient_density,
        "gas_density_kg_m3": gas_density_for(balloon, env),
        "by_area_model": echo(by_model),
        "area_model": balloon.area_model.value,
        "buoyant": configured.buoyant,
        "net_force_n": configured.net_force_n,
    }
    findings = []
    verdicts = {r.buoyant for r in by_model.values()}
    if len(verdicts) > 1:
        findings.append(Finding(
            kind="discrepancy_vs_paper",
            module="aerostat",
            message=("buoyancy verdict depends on the hull-area convention: "
                     "outer-lateral-only floats, full-wetted does not"),
            data={name: {"overall_density_kg_m3": r.overall_density_kg_m3,
                         "buoyant": r.buoyant}
                  for name, r in by_model.items()},
        ))
    if not configured.buoyant:
        findings.append(Finding(
            kind="infeasible",
            module="aerostat",
            message=(f"aerostat is denser than ambient air "
                     f"({configured.overall_density_kg_m3:.6f} > "
                     f"{env.ambient_density:.6f} kg/m3)"),
            data={"overall_density_kg_m3": configured.overall_density_kg_m3},
        ))
    return section, findings


def winch_section(winch: WinchSpec, env: MarsEnvironment) -> dict:
    power = winch_power(winch, env)
    return {
        "inputs": echo(winch),
        "raw_kw": power.raw_kw,
        "with_margin_kw": power.with_margin_kw,
        "regen_wh_per_descent": winch_regen_energy(winch, env),
    }


def thermal_section(enclosure: GlazedEnclosure, envelope: AvionicsEnvelope,
                    env: MarsEnvironment) -> tuple[dict, list[Finding]]:
    night_load = greenhouse_night_load(enclosure, env)
    check = avionics_envelope_check(env, envelope)
    section = {
        "inputs": {"enclosure": echo(enclosure), "avionics": echo(envelope),
                   "heater_on": envelope.heater_power_w > 0},
        "trough_heat_loss_w": heat_loss(enclosure, env.night_low_c),
        "night_energy_kwh": night_heating_energy(enclosure, env),
        "night_load": echo(night_load),
        "avionics": {
            "ok": check.ok,
            "worst_margin_c": check.worst_margin_c,
            "violation_windows_s": [list(w) for w in check.violation_windows],
        },
    }
    findings = []
    if not check.ok:
        findings.append(Finding(
            kind="limit_violation",
            module="thermal",
            message=(f"electronics leave their qualification envelope by "
                     f"{-check.worst_margin_c:.1f} degC over "
                     f"{len(check.violation_windows)} window(s) of the sol"),
            data={"worst_margin_c": check.worst_margin_c,
                  "violation_windows_s": [list(w) for w in check.violation_windows]},
        ))
    return section, findings


def power_inputs(battery: Battery, sources: tuple, loads: tuple,
                 timestep_s: float) -> dict:
    """The ``inputs`` echo of a power run. Loads tagged with mission
    phases echo their phases too."""
    return {"battery": echo(battery), "sources": echo(sources),
            "loads": echo(loads), "timestep_s": timestep_s}


def power_section(sources: tuple[PowerSource, ...], loads: tuple[PowerLoad, ...],
                  battery: Battery, env: MarsEnvironment,
                  timestep_s: float) -> tuple[dict, list[Finding], SocTrace]:
    """One sol kernel gives both answers: which loads its greedy scheduler
    admits (``schedule_loads``), and the trace of the sol with every load
    attached (``simulate_sol``), returned too for callers that emit CSV."""
    sol = _Sol(list(sources), list(loads), battery, env, timestep_s)
    schedule = sol.schedule(list(loads))
    plan = {"admitted": [l.name for l in schedule.admitted],
            "feasible": schedule.feasible,
            "verdicts": schedule.verdicts}
    trace = sol.run(list(loads))
    # Runs come in time order: the first hard cut is the earliest. Times
    # are step * timestep_s, as ``SocTrace.cuts`` gives them.
    count = hard_count = 0
    unmet, hard_loads = set(), set()
    for i, n, name, sheddable, deficit_w in trace.cut_runs():
        count += n
        unmet.add(name)
        if not sheddable:
            if not hard_count:
                first_s, max_deficit_w = i * timestep_s, deficit_w
            hard_count += n
            hard_loads.add(name)
            last_s = (i + n - 1) * timestep_s
            max_deficit_w = max(max_deficit_w, deficit_w)
    section = {
        "inputs": power_inputs(battery, sources, loads, timestep_s),
        "final_soc_wh": trace.final_soc_wh,
        "total_shed_wh": trace.total_shed_wh,
        "violation_count": count,
        "unmet_loads": sorted(unmet),
        "feasible": not hard_count,
        "schedule": plan,
    }
    findings = []
    if hard_count:
        findings.append(Finding(
            kind="infeasible",
            module="energy",
            message=(f"{hard_count} unmet-demand violations on "
                     f"non-sheddable loads spanning t = {first_s:.0f} s "
                     f"to {last_s:.0f} s"),
            data={
                "violation_count": hard_count,
                "first_violation_s": first_s,
                "last_violation_s": last_s,
                "max_deficit_w": max_deficit_w,
                "loads": sorted(hard_loads),
            },
        ))
    return section, findings, trace


def exploration_section(report: ExplorationReport,
                        grid: GridMap) -> tuple[dict, list[Finding]]:
    section = {
        "inputs": {
            "width": grid.width,
            "height": grid.height,
            "entrance": list(grid.entrance),
            "resolution_m": grid.resolution_m,
            "obstacle_count": int((grid.cells == OBSTACLE).sum()),
        },
        "steps": report.steps,
        "coverage_fraction": report.coverage_fraction,
        "samples_delivered": report.samples_delivered,
        "energy_regen_wh": report.energy_regen_wh,
        "per_robot": echo(report.per_robot_stats),
    }
    findings = []
    if report.coverage_fraction < 1.0:
        findings.append(Finding(
            kind="infeasible",
            module="tube_explorer",
            message=(f"survey stopped at coverage "
                     f"{report.coverage_fraction:.3f} after {report.steps} steps"),
            data={"coverage_fraction": report.coverage_fraction,
                  "steps": report.steps},
        ))
    for index, reason in report.undeliverable_sites:
        findings.append(Finding(
            kind="infeasible",
            module="tube_explorer",
            message=f"sample site {index} cannot be delivered: {reason}",
            data={"config_path": f"config.exploration.sample_sites[{index}]"},
        ))
    return section, findings


def _wbs_dict(node: WbsNode) -> dict:
    d = {"name": node.name, "level": node.level}
    if node.cost_usd is not None:
        d["cost_usd"] = node.cost_usd
    if node.children:
        d["children"] = [_wbs_dict(c) for c in node.children]
        d["subtotal_usd"] = rollup_cost(node)
    if node.note:
        d["note"] = node.note
    return d


def budget_section(payloads: tuple[PayloadSpec, ...],
                   limits: BudgetLimits) -> tuple[dict, list[Finding]]:
    result = rollup_budget(payloads, limits)
    section = {
        "inputs": {"payloads": echo(payloads), "limits": echo(limits)},
        "total_mass_kg": result.total_mass_kg,
        "total_volume_m3": result.total_volume_m3,
        "peak_power_w": result.peak_power_w,
        "passes": result.passes,
        "margins": dict(result.margins),
    }
    findings = []
    if not result.passes:
        over = {k: v for k, v in result.margins.items() if v < 0}
        findings.append(Finding(
            kind="limit_violation",
            module="program",
            message="payload registry exceeds the lander allocation: "
                    + ", ".join(f"{k} over by {-v:g}" for k, v in sorted(over.items())),
            data={"margins": dict(result.margins)},
        ))
    return section, findings


def cost_section(wbs: WbsNode) -> dict:
    return {
        "inputs": {"wbs": _wbs_dict(wbs)},
        "total_cost_usd": rollup_cost(wbs),
        "by_child_usd": {c.name: rollup_cost(c) for c in wbs.children},
    }


def schedule_section(phases: tuple[LifecyclePhase, ...], launch_year: int,
                     deadline_year: int) -> tuple[dict, list[Finding]]:
    check = validate_schedule(phases, launch_year, deadline_year)
    section = {
        "inputs": {
            "phases": echo(phases),
            "launch_year": launch_year,
            "deadline_year": deadline_year,
        },
        "ok": check.ok,
        "findings": [{"rule": f.rule, "message": f.message}
                     for f in check.findings],
    }
    findings = []
    if not check.ok:
        findings.append(Finding(
            kind="limit_violation",
            module="program",
            message="schedule check failed: "
                    + "; ".join(f.message for f in check.findings),
            data={"rules": sorted({f.rule for f in check.findings})},
        ))
    return section, findings


#: Each analytic subcommand: where its section sits in a report, and a
#: builder from a config to (section, findings), which its caller guards.
#: The ``mission`` report holds the same sections, from the same builders,
#: at the same paths, and collects their findings in this order.
ANALYTIC_SECTIONS = {
    "balloon": (("aerostat",), lambda c: aerostat_section(c.balloon, c.env)),
    "winch": (("energy", "winch"), lambda c: (winch_section(c.winch, c.env), [])),
    "thermal": (("thermal",), lambda c: thermal_section(
        c.enclosure, c.avionics, c.env)),
    "budget": (("program", "budget"), lambda c: budget_section(
        c.program.payloads, c.program.limits)),
    "cost": (("program", "cost"), lambda c: (cost_section(c.program.wbs), [])),
    "schedule": (("program", "schedule"), lambda c: schedule_section(
        c.program.phases, c.program.launch_year, c.program.deadline_year)),
}


def place(report: dict, path: tuple, section) -> None:
    """Put ``section`` at ``path`` in ``report``, adding missing parents."""
    *parents, key = path
    for name in parents:
        report = report.setdefault(name, {})
    report[key] = section
