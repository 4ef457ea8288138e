"""The report writer against ``json``: ``report.indented_json`` must give
``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)`` byte
for byte, and refuse what it refuses with the same exception type.

The writer writes plain trees (exact builtin types, ``str`` keys, finite
numbers) itself and hands every other payload to ``json``. The tests
count those hand-offs: none for a shipped report or a plain drawn tree,
one for any other drawn tree.

The writer is called directly, not through ``dump_json``, so these tests
check it on Python 3.13 and later too, where ``dump_json`` calls ``json``.
"""

import json
import math
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubescout import cli, report
from tubescout.cli import _SUBCOMMANDS, main
from tubescout.config import MAX_JSON_DEPTH
from tubescout.report import ConfigError, dump_json, indented_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("paper_baseline", "cold_extreme", "two_tube_mission")


def stdlib(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def json_calls():
    """Count the calls ``indented_json`` hands to ``json``."""
    return mock.patch.object(report, "_json_dumps", wraps=report._json_dumps)


def plain(node) -> bool:
    """Whether ``node`` holds only nodes the writer writes itself."""
    kind = type(node)
    if kind is dict:
        return all(type(k) is str and plain(v) for k, v in node.items())
    if kind in (list, tuple):
        return all(map(plain, node))
    return kind in (str, int, bool, type(None)) or kind is float and math.isfinite(node)


class Real(float):
    pass


class Whole(int):
    pass


class Text(str):
    pass


finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-2 ** 200, 2 ** 200), st.builds(Whole, st.integers()),
    finite, st.sampled_from([-0.0, 5e-324, 1e16, 1e22]), st.builds(Real, finite),
    # any code point, lone surrogates, and JSON's own syntax
    st.text(st.one_of(st.characters(exclude_categories=()),
                      st.sampled_from('"\\{}[],:\x00\x1f\x7f\u2028\ud800\udc00\udfff'))),
    st.builds(Text, st.text()),
)


def containers(children):
    # json sorts keys, so the keys of one dict must compare with each other
    numbers = st.one_of(st.integers(), finite, st.booleans(),
                        st.builds(Whole, st.integers()), st.builds(Real, finite))
    return st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.dictionaries(st.text(), children),
        st.dictionaries(st.one_of(st.text(), st.builds(Text, st.text())), children),
        st.dictionaries(numbers, children),
        st.dictionaries(st.none(), children),
    )


trees = st.recursive(scalars, containers, max_leaves=40)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(trees)
@example({"": [(), {}, []], "\ud800\U0001f600": (1, -0.0), "{\"}": {1: 2.5, True: None}})
@example({"a": [1, 2.5, None], "b": {"c": Whole(3)}})
@example([Text("x"), {Text("k"): "v", "j": Text("")}])
def test_writer_equals_json_on_drawn_trees(tree):
    """A plain dict, list or tuple is written without ``json``; a scalar,
    or a tree that holds a ``Whole``, a ``Real``, a ``Text`` or a number
    key, is handed to it once."""
    with json_calls() as fallback:
        assert indented_json(tree) == stdlib(tree)
    written = type(tree) in (dict, list, tuple) and plain(tree)
    assert fallback.call_count == (0 if written else 1)


def test_writer_equals_json_on_every_shipped_report(tmp_path, monkeypatch):
    """Every subcommand on every shipped scenario, plain and with ``--seed
    7 --format csv --strict``, and ``explore --seed 7`` on the built-in
    baseline: the reports of the golden matrix. The payloads ``main``
    hands to ``dump_json`` are plain trees, which the writer writes
    without ``json``."""
    payloads = []
    monkeypatch.setattr(cli, "dump_json",
                        lambda payload: payloads.append(payload) or dump_json(payload))
    argvs = [[command, "--config", str(SCENARIOS / f"{scenario}.json"), *extra]
             for scenario in SHIPPED for command in _SUBCOMMANDS
             for extra in ([], ["--seed", "7", "--format", "csv", "--strict"])]
    argvs.append(["explore", "--seed", "7"])
    texts = []
    for i, argv in enumerate(argvs):
        out = tmp_path / str(i)
        assert main([*argv, "--out", str(out)]) == 0 or "--strict" in argv, argv
        texts.append((out / "report.json").read_text(encoding="utf-8"))
    assert len(payloads) == len(argvs)
    with json_calls() as fallback:
        for argv, payload, text in zip(argvs, payloads, texts):
            assert indented_json(payload) + "\n" == stdlib(payload) + "\n" == text, argv
    assert fallback.call_count == 0


nan, inf = float("nan"), float("inf")
circular: list = []
circular.append(circular)


@pytest.mark.parametrize("payload", [
    nan, inf, -inf, [1.0, nan], {"a": {"b": (inf,)}}, {nan: 1}, {"a": Real(-inf)},
    set(), [b""], {"a": 1j}, {(1,): 2}, {"a": 1, 2: 3}, {None: 1, "a": 2},
    circular,
    # refused after items already written, and under str subclasses
    {"a": 1, "b": [2.0, nan]}, [1, "x", b""], {Text("k"): [Text("v"), 1j]},
], ids=repr)
def test_writer_refuses_what_json_refuses(payload):
    with pytest.raises(Exception) as expected:
        stdlib(payload)
    with pytest.raises(Exception) as got:
        indented_json(payload)
    assert type(got.value) is type(expected.value)


def test_dump_json_calls_json_from_python_3_13():
    """No payload tells the two encoders apart, so this reads the switch."""
    if sys.version_info < (3, 13):
        assert report._dumps is indented_json
    else:
        assert report._dumps.func is json.dumps


def test_deepest_accepted_wbs_chain_writes_json_bytes(tmp_path):
    """A WBS chain one node short of the parser's depth limit: a cost
    report more than 100 levels deep."""
    def chain(nodes):
        tree = {"name": "leaf", "level": nodes, "cost_usd": 1}
        for level in range(nodes - 1, 0, -1):
            tree = {"name": f"n{level}", "level": level, "children": [tree]}
        return {"program": {"wbs": tree}}

    nodes = (MAX_JSON_DEPTH - 1) // 2   # config depth 2 * nodes + 1
    config = tmp_path / "deep.json"
    config.write_text(json.dumps(chain(nodes + 1)))
    assert main(["cost", "--config", str(config), "--out", str(tmp_path)]) == 2
    config.write_text(json.dumps(chain(nodes)))
    assert main(["cost", "--config", str(config), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert "\n" + "  " * (MAX_JSON_DEPTH + 1) + '"' in text
    assert text == stdlib(json.loads(text)) + "\n"


def test_non_finite_number_in_a_tuple_names_its_path():
    """json writes tuples as arrays, so a NaN in one is found like one in
    a list."""
    for x in ([nan], (nan,)):
        with pytest.raises(ConfigError) as exc_info:
            dump_json({"energy": {"x": x}})
        assert exc_info.value.errors == [
            ("config.power", "energy.x[0]: nan is not a finite number")]


@pytest.mark.parametrize("kind, module, message, refusal", [
    ("bogus", "power", "m", "finding kind must be one of ('infeasible', "
     "'discrepancy_vs_paper', 'limit_violation'), got 'bogus'"),
    ("infeasible", "", "m", "finding module and message must be nonempty"),
    ("infeasible", "power", "", "finding module and message must be nonempty"),
])
def test_finding_refusals(kind, module, message, refusal):
    with pytest.raises(ValueError) as exc_info:
        report.Finding(kind, module, message)
    assert str(exc_info.value) == refusal


def test_dump_json_refuses_a_cycle_with_jsons_error():
    """A cycle is walked once, not forever: with no number to name,
    ``json``'s ValueError stands; with one, it is named at its path."""
    with pytest.raises(ValueError, match="Circular reference detected"):
        dump_json({"a": circular})
    with pytest.raises(ConfigError) as exc_info:
        dump_json({"energy": {"c": {"d": circular}, "x": [nan]}})
    assert exc_info.value.errors == [
        ("config.power", "energy.x[0]: nan is not a finite number")]
