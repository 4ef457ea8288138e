"""The left-fold float sum that keeps report totals equal across Pythons,
and the first step of a time grid at or after an instant."""

import functools
import math
import operator

import numpy as np
import pytest

from tubescout.numeric import first_step_at, fold_sum
from tubescout.program import PayloadSpec, rollup_budget


def test_tenths_fold_left_to_right():
    # Compensated summation (Python 3.12+ sum) gives exactly 1.0 here.
    assert fold_sum([0.1] * 10) == 0.9999999999999999
    assert fold_sum([0.1] * 10) == functools.reduce(operator.add, [0.1] * 10, 0)


def test_ints_stay_exact_and_empty_is_zero():
    assert fold_sum([2**60, 1, 2]) == 2**60 + 3
    assert isinstance(fold_sum([1, 2]), int)
    assert fold_sum([]) == 0


def test_budget_totals_fold_left_to_right():
    payloads = [PayloadSpec(f"p{i}", mass_kg=0.1, volume_m3=0.1, power_w=0.1,
                            wbs_cost_usd=0) for i in range(7)]
    result = rollup_budget(payloads)
    assert result.total_mass_kg == result.total_volume_m3 == 0.7
    assert result.peak_power_w == 0.7


def brute_first_step_at(time_s, step_s, n_steps):
    """The least i in [0, n_steps] with ``i * step_s >= time_s``, by a scan
    of every i (numpy multiplies an int64 by a float64 as Python does)."""
    hits = np.flatnonzero(np.arange(n_steps + 1) * step_s >= time_s)
    return int(hits[0]) if hits.size else n_steps


def grid_instants(step_s, sol_s):
    """On-grid instants near the start, middle and end of a sol, the sol
    end and zero, each with its ``nextafter`` neighbours."""
    n = math.ceil(sol_s / step_s)
    ks = {0, 1, 2, n // 3, n // 2, n - 2, n - 1, n, n + 1}
    for t in {step_s * k for k in ks if k >= 0} | {sol_s, 0.5 * step_s}:
        yield from (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))


STEPS_S = (1.0, 1.1, 7.0, 12.3, 12.5, 25.0, 60.0, 3551.0, 88775.0)
SOLS_S = (30.0, 59.0, 60.0, 61.0, 1000.0, 88775.0, 1e6)


@pytest.mark.parametrize("step_s", STEPS_S)
def test_first_step_at_matches_a_scan_of_every_step(step_s):
    for sol_s in SOLS_S:
        n_steps = math.ceil(sol_s / step_s)
        for time_s in grid_instants(step_s, sol_s):
            expected = brute_first_step_at(time_s, step_s, n_steps)
            assert first_step_at(time_s, step_s, n_steps) == expected, (
                time_s, step_s, n_steps)
