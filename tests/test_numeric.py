"""The left-fold float sum that keeps report totals equal across Pythons."""

import functools
import operator

from tubescout.numeric import fold_sum
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
