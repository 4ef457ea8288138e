"""The left-fold float sum that keeps report totals equal across Pythons,
the first step of a time grid at or after an instant, and the sign rule
that the model dataclasses apply to their fields."""

import functools
import math
import operator

from types import SimpleNamespace

import numpy as np
import pytest

from tubescout.aerostat import BalloonConfig, BalloonGeometry
from tubescout.config import MissionSettings
from tubescout.energy import Battery, PowerLoad, PowerSource, WinchSpec
from tubescout.env import MarsEnvironment
from tubescout.mission import MissionState
from tubescout.numeric import first_step_at, fold_sum, require_nonnegative, require_positive
from tubescout.program import BudgetLimits, PayloadSpec, WbsNode, rollup_budget
from tubescout.thermal import AvionicsEnvelope, GlazedEnclosure
from tubescout.tube_explorer import Sample, SampleSite, ScoutRobot, Station


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


#: Each model class with the fields a valid instance needs.
MODELS = {
    BalloonGeometry: {},
    BalloonConfig: {},
    WinchSpec: {},
    PowerSource: {"name": "rtg"},
    PowerLoad: {"name": "lamp", "power_w": 1.0},
    Battery: {},
    MarsEnvironment: {},
    GlazedEnclosure: {},
    AvionicsEnvelope: {},
    Sample: {"mass_kg": 1.0, "origin": (0, 0), "module_slot": 1},
    SampleSite: {"cell": (0, 0), "mass_kg": 1.0},
    ScoutRobot: {"id": "scout_1"},
    Station: {},
    PayloadSpec: {"name": "p", "mass_kg": 1.0, "volume_m3": 1.0, "power_w": 1.0,
                  "wbs_cost_usd": 1},
    BudgetLimits: {},
    WbsNode: {"name": "n", "level": 0},
    MissionState: {},
    MissionSettings: {},
}

#: Every field under the sign rule, by class, in the order the class
#: checks them: "positive" refuses 0, "nonnegative" refuses -1.
SIGN_RULES = [
    (BalloonGeometry, "inner_radius_m", "nonnegative"),
    (BalloonGeometry, "tube_length_m", "positive"),
    (BalloonConfig, "gas_molar_mass_kg_mol", "positive"),
    (BalloonConfig, "surface_area_weight_kg_m2", "nonnegative"),
    (BalloonConfig, "tether_length_m", "nonnegative"),
    (BalloonConfig, "tether_weight_per_length_kg_m", "nonnegative"),
    (BalloonConfig, "scientific_payload_weight_kg", "nonnegative"),
    (BalloonConfig, "windmill_weight_kg", "nonnegative"),
    (WinchSpec, "payload_mass_kg", "positive"),
    (WinchSpec, "line_speed_mps", "positive"),
    (WinchSpec, "depth_m", "positive"),
    (WinchSpec, "motor_margin", "nonnegative"),
    (PowerSource, "rating_w", "nonnegative"),
    (PowerSource, "event_energy_wh", "nonnegative"),
    (PowerLoad, "power_w", "nonnegative"),
    (Battery, "capacity_wh", "nonnegative"),
    (MarsEnvironment, "gravity", "positive"),
    (MarsEnvironment, "ambient_density", "positive"),
    (MarsEnvironment, "surface_pressure", "positive"),
    (MarsEnvironment, "gas_constant", "positive"),
    (MarsEnvironment, "ambient_temperature", "positive"),
    (GlazedEnclosure, "glazed_area_m2", "positive"),
    (GlazedEnclosure, "u_value_w_m2k", "positive"),
    (AvionicsEnvelope, "heater_power_w", "nonnegative"),
    (AvionicsEnvelope, "heater_delta_c_per_100w", "nonnegative"),
    (Sample, "mass_kg", "nonnegative"),
    (SampleSite, "mass_kg", "nonnegative"),
    (ScoutRobot, "battery_full_s", "positive"),
    (ScoutRobot, "speed_mps", "positive"),
    (ScoutRobot, "aux_capacity_kg", "positive"),
    (Station, "charge_time_s", "nonnegative"),
    (Station, "descents", "nonnegative"),
    (PayloadSpec, "mass_kg", "nonnegative"),
    (PayloadSpec, "volume_m3", "nonnegative"),
    (PayloadSpec, "power_w", "nonnegative"),
    (PayloadSpec, "wbs_cost_usd", "nonnegative"),
    (BudgetLimits, "payload_mass_limit_kg", "positive"),
    (BudgetLimits, "platform_mass_limit_kg", "positive"),
    (BudgetLimits, "volume_limit_m3", "positive"),
    (WbsNode, "level", "nonnegative"),
    (MissionState, "sol", "nonnegative"),
    (MissionState, "tubes_explored", "nonnegative"),
    (MissionSettings, "seed", "nonnegative"),
]

BAD = {"positive": 0, "nonnegative": -1}


def build(cls, **fields):
    return cls(**{**MODELS[cls], **fields})


@pytest.mark.parametrize("cls, name, rule", SIGN_RULES,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in SIGN_RULES])
def test_sign_rule_message(cls, name, rule):
    with pytest.raises(ValueError) as exc:
        build(cls, **{name: BAD[rule]})
    assert str(exc.value) == f"{name} must be {rule}, got {BAD[rule]}"


#: Two bad fields of one check, the first in source order first.
SIGN_RULE_ORDER = [
    (BalloonConfig, "surface_area_weight_kg_m2", "windmill_weight_kg"),
    (WinchSpec, "payload_mass_kg", "depth_m"),
    (PowerSource, "rating_w", "event_energy_wh"),
    (MarsEnvironment, "gravity", "ambient_temperature"),
    (GlazedEnclosure, "glazed_area_m2", "u_value_w_m2k"),
    (AvionicsEnvelope, "heater_power_w", "heater_delta_c_per_100w"),
    (ScoutRobot, "speed_mps", "aux_capacity_kg"),
    (Station, "charge_time_s", "descents"),
    (PayloadSpec, "mass_kg", "power_w"),
    (BudgetLimits, "payload_mass_limit_kg", "volume_limit_m3"),
    (MissionState, "sol", "tubes_explored"),
]


@pytest.mark.parametrize("cls, first, later", SIGN_RULE_ORDER,
                         ids=[f"{cls.__name__}.{first}" for cls, first, _ in SIGN_RULE_ORDER])
def test_sign_rule_reports_the_first_bad_field(cls, first, later):
    rule = {name: rule for c, name, rule in SIGN_RULES if c is cls}
    with pytest.raises(ValueError) as exc:
        build(cls, **{first: BAD[rule[first]], later: BAD[rule[later]]})
    assert str(exc.value) == f"{first} must be {rule[first]}, got {BAD[rule[first]]}"


def test_sign_rule_passes_zero_nonnegative_and_nan():
    owner = SimpleNamespace(zero=0, nan=math.nan, one=1.5)
    require_nonnegative(owner, "zero", "nan", "one")
    require_positive(owner, "nan", "one")
    with pytest.raises(ValueError, match=r"^zero must be positive, got 0$"):
        require_positive(owner, "one", "zero", "nan")
