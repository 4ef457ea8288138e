"""``report.echo`` against a reference: the plain recursive echo, which
calls itself once per leaf. Both must give equal trees whose leaves have
identical types (``bool`` vs ``int``, ``int`` vs ``float``, an enum's
value vs the enum)."""

import enum
from pathlib import Path

import pytest

from tubescout import config as config_module
from tubescout.config import MissionConfig, load_config, to_echo_dict
from tubescout.program import DEFAULT_WBS, WbsNode
from tubescout.report import echo, json_fields
from tubescout.tube_explorer import RobotStats

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("paper_baseline", "cold_extreme", "two_tube_mission")


def reference_echo(obj, omit=()):
    if isinstance(obj, (tuple, list)):
        return [reference_echo(v) for v in obj]
    if isinstance(obj, dict):
        return {k: reference_echo(v) for k, v in obj.items()}
    if isinstance(obj, enum.Enum):
        return obj.value
    if not hasattr(obj, "__dataclass_fields__"):
        return obj
    out: dict = {}
    for name, group, key in json_fields(type(obj)):
        if name in omit:
            continue
        (out.setdefault(group, {}) if group else out)[key] = reference_echo(
            getattr(obj, name))
    return out


def leaves(tree, path=""):
    """(path, type, repr) of each leaf, in the tree's own order."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from leaves(value, f"{path}.{key}")
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, type(tree), repr(tree)


def assert_same(got, expected):
    assert got == expected
    assert list(leaves(got)) == list(leaves(expected))


@pytest.mark.parametrize("name", ("builtin",) + SHIPPED)
def test_config_echo_equals_reference(monkeypatch, name):
    config = (MissionConfig() if name == "builtin"
              else load_config(SCENARIOS / f"{name}.json"))
    got = to_echo_dict(config)
    monkeypatch.setattr(config_module, "echo", reference_echo)
    assert_same(got, to_echo_dict(config))


def test_model_values_echo_equal_reference():
    two_tube = load_config(SCENARIOS / "two_tube_mission.json")
    assert any(load.phases for load in two_tube.loads)
    tree = WbsNode("root", 1, children=(
        DEFAULT_WBS, WbsNode("leaf", 2, cost_usd=5, note="n")))
    stats = (RobotStats("scout_1", 12, 1, "idle", 3.5),
             RobotStats("scout_2", 0, 0, "charging", 0.0))
    for value in (tree, two_tube.loads, two_tube.sources, stats,
                  two_tube.mission, two_tube.exploration):
        assert_same(echo(value), reference_echo(value))
