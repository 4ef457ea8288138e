"""The benchmark's own checks: golden coverage, the shipped-scenario
matrix, a held-out workload seed, and traced-versus-untraced reports.

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import golden  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tubescout.cli import main  # noqa: E402

#: A workload seed used by no tuning or golden run.
HELD_OUT_SEED = 20261017


@pytest.fixture(autouse=True, scope="module")
def at_root():
    previous = os.getcwd()
    os.chdir(ROOT)
    yield
    os.chdir(previous)


@pytest.fixture(scope="module")
def table():
    return golden.load_golden()


def test_golden_covers_every_case(table):
    missing = [case.name for case in golden.all_cases() if case.key not in table]
    assert not missing


def test_shipped_matrix_matches_golden(table, tmp_path):
    for case in workloads.matrix_cases():
        _, results = golden.run_case(case, tmp_path, main)
        assert golden.status(case, results, table) == "ok", case.name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_held_out_seed_runs_clean(workload, table, tmp_path):
    cases = workloads.workload_cases(workload, HELD_OUT_SEED)
    workloads.write_inputs(workload, cases)
    statuses = [golden.status(case, golden.run_case(case, tmp_path, main)[1],
                              table) for case in cases]
    assert "fail" not in statuses
    if workload != "design_sweep":
        assert set(statuses) == {"ok"}


def test_invalid_variants_are_rejected_or_known_defects(table, tmp_path):
    """Each mutation site is handled the same way in every variant."""
    cases = workloads.pool_cases("design_sweep")
    workloads.write_inputs("design_sweep", cases)
    by_mutation: dict = {}
    for case in cases:
        if case.mutation is not None:
            _, results = golden.run_case(case, tmp_path, main)
            by_mutation.setdefault(case.mutation, set()).add(
                golden.status(case, results, table))
    assert len(by_mutation) == len(workloads.MUTATIONS)
    for mutation, statuses in by_mutation.items():
        assert len(statuses) == 1 and statuses <= {"ok", "defect"}, mutation


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_composition_writes_the_same_report(workload, tmp_path):
    cases = workloads.workload_cases(workload, HELD_OUT_SEED)[:3]
    workloads.write_inputs(workload, cases)
    tracer = spans.Tracer()
    for case in cases:
        _, results = golden.run_case(case, tmp_path / "plain", main)
        for argv, (_, rc, _, digest) in zip(case.argvs, results):
            (tmp_path / "traced" / "report.json").unlink(missing_ok=True)
            traced_rc, _ = spans.compose(
                argv + ["--out", str(tmp_path / "traced")], tracer)
            assert (traced_rc, golden.report_digest(tmp_path / "traced")) == (
                rc, digest), case.name
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    assert all(parent < index for index, (_, _, _, parent, _)
               in enumerate(tracer.spans))


def test_speed_reference_is_fixed():
    """``REFERENCE_S`` is calibrated for this exact search."""
    assert speed.reference_pass() == 142
    assert int(speed._MASK.sum()) == 4752
