"""Config fuzzing: random JSON values at random paths of the paper
baseline scenario, run through the command line. The analytic
subcommands run on the baseline itself; ``explore`` and ``mission`` on
a small generated tube.

Every run must end in one of two ways: exit 0 with a report that is
strict JSON (no ``NaN`` or ``Infinity``), or exit 2 with only
``error: config...`` lines on stderr. An uncaught exception fails the
test with its traceback.

A sweep sets each numeric leaf of both baselines, one at a time, to each
of ten float limits, so that no leaf at a limit depends on the draw.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubescout.cli import main
from tubescout.config import ConfigError, load_config, parse_config
from tubescout.env import MarsEnvironment
from tubescout.report import echo

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SUBCOMMANDS = ("power", "balloon", "winch", "thermal", "budget", "cost", "schedule")
SURVEYS = ("explore", "mission")
#: Keys whose value sets the work of a run, and the block that refuses a
#: huge one.
WORK_KEYS = {("exploration", "robots", "count"): "config.exploration",
             ("exploration", "max_steps"): "config.exploration",
             ("mission", "germination", "n_seeds"): "config.mission.germination"}
DELETE = object()
#: Written next to each fuzzed config, for a ``map_file`` of "two.map".
TWO_ENTRANCE_MAP = "E.E\n...\n"


def baseline() -> dict:
    """paper_baseline with an absolute map path, every environment field
    restated as an override, a second load and a winch regeneration
    source, so that those are mutation targets too."""
    raw = json.loads((SCENARIOS / "paper_baseline.json").read_text())
    raw["env"]["overrides"] = echo(MarsEnvironment())
    raw["power"]["loads"].append({"name": "bus", "power_w": 40.0,
                                  "priority": 5, "sheddable": True})
    raw["power"]["sources"].append({"name": "regen", "kind": "winch_regen",
                                    "event_energy_wh": 36.0})
    exploration = raw["exploration"]
    exploration["map_file"] = str(SCENARIOS / exploration["map_file"])
    return raw


def survey_baseline() -> dict:
    """``baseline`` on an 8x8 generated tube with a sample site, a short
    step limit and every robot override set."""
    raw = baseline()
    exploration = raw["exploration"]
    del exploration["map_file"]
    exploration["generator"] = {"width": 8, "height": 8,
                                "obstacle_density": 0.2}
    exploration["robots"].update(module_count=3, speed_mps=1.7,
                                 reserve_factor=1.2, aux_capacity_kg=6.0)
    exploration["sample_sites"] = [{"cell": [1, 1], "mass_kg": 1.0}]
    exploration["max_steps"] = 200
    return raw


def paths(node, prefix=()):
    """Every key and index path in a JSON tree, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


PATHS = sorted(paths(baseline()), key=repr)
SURVEY_PATHS = sorted(paths(survey_baseline()), key=repr)

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=6),
    st.sampled_from(["constant", "winch_regen", "Settlement", "outer_lateral_only",
                     "$1,000", "1e3", "PreA", 0, -1, 1e-300, 5e-324, 1e308, 10**400]))
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6)


def mutations(paths):
    return st.lists(
        st.tuples(st.sampled_from(paths), st.one_of(values, st.just(DELETE))),
        min_size=1, max_size=3)


def mutate(raw: dict, path: tuple, value) -> None:
    """Set (or delete) ``path`` if the path still exists in ``raw``."""
    node = raw
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if isinstance(node, list) and not (isinstance(key, int) and key < len(node)):
        return
    if not isinstance(node, (dict, list)):
        return
    if value is DELETE:
        node.pop(key, None) if isinstance(node, dict) else node.pop(key)
    else:
        node[key] = value


def reject_constant(name):
    raise ValueError(f"report holds {name}")


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def check_commands(raw: dict, commands) -> None:
    """Run each command on ``raw``: exit 0 with a strict JSON report, or
    exit 2 with only ``error: config...`` lines."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "two.map").write_text(TWO_ENTRANCE_MAP, encoding="utf-8")
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        out = Path(tmp) / "out"
        for command in commands:
            (out / "report.json").unlink(missing_ok=True)
            rc, err = run([command, "--config", str(config), "--out", str(out)])
            if rc == 0:
                assert err == ""
                json.loads((out / "report.json").read_text(),
                           parse_constant=reject_constant)
            else:
                assert rc == 2, (command, rc, err)
                assert err and all(line.startswith("error: config")
                                   for line in err.splitlines()), (command, err)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(mutations(PATHS))
@example([(("env", "overrides", "night_low_c"), -1e308)])
@example([(("winch", "depth_m"), 1e308)])
@example([(("winch", "payload_mass_kg"), 1e308)])
@example([(("balloon", "geometry", "outer_radius_m"), 1e308)])
@example([(("enclosure", "u_value_w_m2k"), 1e308)])
@example([(("enclosure", "glazed_area_m2"), 1e308)])
@example([(("enclosure", "target_temp_c"), 1e308)])
@example([(("enclosure", "u_value_w_m2k"), 1e303)])
@example([(("env", "overrides", "night_low_c"), -1e308),
          (("env", "overrides", "day_high_c"), 1e308),
          (("enclosure", "u_value_w_m2k"), 1e-10)])
@example([(("env", "overrides", "night_low_c"), -1e308),
          (("env", "overrides", "day_high_c"), 0),
          (("enclosure", "u_value_w_m2k"), 1e-10),
          (("avionics", "min_ok_c"), 1e308),
          (("avionics", "max_ok_c"), 1.5e308)])
def test_mutated_baseline_exits_0_or_2_with_a_config_path(changes):
    raw = baseline()
    for path, value in changes:
        mutate(raw, path, value)
    check_commands(raw, SUBCOMMANDS)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(mutations(SURVEY_PATHS))
@example([(("exploration", "generator", "obstacle_density"), 1.0)])
@example([(("exploration", "robots", "module_count"), 7)])
@example([(("exploration", "robots", "speed_mps"), 0)])
@example([(("exploration", "robots", "reserve_factor"), 0.5)])
@example([(("exploration", "robots", "aux_capacity_kg"), 0)])
@example([(("power", "sources", 1, "name"), "winch_regen")])
@example([(("exploration", "generator"), DELETE),
          (("exploration", "map_file"), "two.map")])
@example([(("exploration", "generator", "width"), 10**400)])
def test_mutated_survey_exits_0_or_2_with_a_config_path(changes):
    raw = survey_baseline()
    for path, value in changes:
        mutate(raw, path, value)
    check_commands(raw, SURVEYS)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from(sorted(WORK_KEYS)),
       st.one_of(st.integers(min_value=10**7),
                 st.sampled_from([2**64 + 1, 10**12, 10**400])))
def test_huge_work_exits_2_with_a_config_path(path, value):
    """Every subcommand refuses the config at parse time, instead of
    building the work: ``load_config`` itself refuses it at the key's
    block."""
    raw = survey_baseline()
    mutate(raw, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError) as exc_info:
            load_config(config)
        assert [where for where, _ in exc_info.value.errors] == [WORK_KEYS[path]]
        for command in (*SUBCOMMANDS, *SURVEYS):
            rc, err = run([command, "--config", str(config),
                           "--out", str(Path(tmp) / "out")])
            assert rc == 2, (command, err)
            assert err.startswith(f"error: {WORK_KEYS[path]}: "), (command, err)
            assert str(value) in err


#: The float limits each numeric leaf is set to, one leaf at a time.
LIMITS = (1e308, -1e308, sys.float_info.max, 5e-324, -5e-324, 0.0, -0.0,
          1e-300, -1.0, 1e15)
#: Every subcommand but ``mission``, and the top-level config blocks its
#: report reads. ``mission`` reads them all.
READS = {"balloon": ("balloon", "env"), "winch": ("winch", "env"),
         "thermal": ("enclosure", "avionics", "env"), "power": ("power", "env"),
         "explore": ("exploration", "winch", "env"), "budget": ("program",),
         "cost": ("program",), "schedule": ("program",)}
BLOCKS = sorted({block for blocks in READS.values() for block in blocks} | {"mission"})


def numeric_leaves(raw: dict, block: str) -> list:
    """The paths of the numbers under ``raw[block]``, booleans aside."""
    leaves = []
    for path in paths(raw[block], (block,)):
        node = raw
        for key in path:
            node = node[key]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            leaves.append(path)
    return sorted(leaves, key=repr)


@pytest.mark.parametrize("name", ["baseline", "survey_baseline"])
@pytest.mark.parametrize("block", BLOCKS)
def test_each_numeric_leaf_at_each_float_limit(name, block):
    """Each numeric leaf of a fuzz baseline's ``block`` at each float
    limit, through every subcommand whose report reads the block, and
    through ``mission`` for the block's first leaf and for every leaf of
    the ``mission`` block. ``survey_baseline`` differs only in its
    exploration, so it runs only the subcommands that read that. A
    config that ``parse_config`` refuses fails every subcommand with the
    same lines, so it runs none. Every run must end as ``check_commands``
    asks, with no warning, and an exit 2 must name ``block``."""
    template = json.dumps(survey_baseline() if name == "survey_baseline" else baseline())
    names_block = re.compile(rf"error: config\.{block}[.:\[]")
    reads = [c for c, blocks in READS.items() if block in blocks
             and (name == "baseline" or "exploration" in blocks)]
    leaves = numeric_leaves(json.loads(template), block)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "two.map").write_text(TWO_ENTRANCE_MAP, encoding="utf-8")
        config, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        for leaf in leaves:
            commands = reads + ["mission"] * (leaf == leaves[0] or block == "mission")
            for value in LIMITS if commands else ():
                raw = json.loads(template)
                mutate(raw, leaf, value)
                try:
                    parse_config(raw, Path(tmp))
                except ConfigError as exc:
                    if not any(names_block.match(f"error: {path}: ")
                               for path, _ in exc.errors):
                        failures.append((leaf, value, "parse", exc.errors))
                    continue
                config.write_text(json.dumps(raw), encoding="utf-8")
                for command in commands:
                    (out / "report.json").unlink(missing_ok=True)
                    try:
                        rc, err = run([command, "--config", str(config),
                                       "--out", str(out)])
                        if rc == 0 and not err:
                            json.loads((out / "report.json").read_text(),
                                       parse_constant=reject_constant)
                            continue
                    except Exception as exc:  # a RuntimeWarning too (pyproject)
                        rc, err = None, repr(exc)
                    lines = err.splitlines()
                    if not (rc == 2 and lines
                            and all(line.startswith("error: config") for line in lines)
                            and any(map(names_block.match, lines))):
                        failures.append((leaf, value, command, rc, err))
    assert not failures, "\n".join(map(repr, failures))
