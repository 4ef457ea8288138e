"""Environment model: diurnal profile shape and dose accounting."""

import math

import pytest

from tubescout.env import (
    MarsEnvironment,
    cumulative_dose,
    diurnal_temperature,
    make_environment,
)

SOL = 88775.0
NIGHT = 44400.0
DAY = SOL - NIGHT  # 44375.0


def test_default_values():
    env = MarsEnvironment()
    assert env.gravity == 3.721
    assert env.ambient_density == 0.02
    assert env.surface_pressure == 610.0
    assert env.ambient_temperature == 293.0
    assert env.sol_length_s == SOL
    assert env.night_duration_s == NIGHT
    assert env.day_duration_s == DAY
    assert env.night_start_s == DAY


def test_presets():
    default = make_environment()
    cold = make_environment("cold_extreme")
    assert default.night_low_c == -73.0
    assert cold.night_low_c == -90.0
    assert cold.day_high_c == default.day_high_c
    with pytest.raises(ValueError):
        make_environment("tropical")


def test_preset_overrides():
    env = make_environment("nili_fossae_default", night_low_c=-80.0, gravity=3.7)
    assert env.night_low_c == -80.0
    assert env.gravity == 3.7


@pytest.mark.parametrize("field,value", [
    ("gravity", 0.0),
    ("ambient_density", -0.1),
    ("surface_pressure", 0.0),
    ("ambient_temperature", -1.0),
    ("night_duration_s", 0.0),
    ("night_duration_s", 90000.0),   # longer than the sol
    ("day_high_c", -73.0),           # equal to night low
    ("dose_cave_msv", 15.0),         # above the surface dose
])
def test_invalid_environment_rejected(field, value):
    with pytest.raises(ValueError):
        make_environment(**{field: value})


class TestDiurnalTemperature:
    def test_peak_at_midday(self):
        env = MarsEnvironment()
        assert diurnal_temperature(env, DAY / 2) == pytest.approx(20.0, abs=1e-12)

    def test_dawn_and_dusk_at_night_low(self):
        env = MarsEnvironment()
        assert diurnal_temperature(env, 0.0) == pytest.approx(-73.0, abs=1e-9)
        assert diurnal_temperature(env, DAY) == pytest.approx(-73.0, abs=1e-9)

    def test_night_trough_is_flat(self):
        env = MarsEnvironment()
        for t in (DAY, DAY + 1.0, SOL / 2 + 30000.0, SOL - 1.0):
            assert diurnal_temperature(env, t) == -73.0

    def test_night_trough_duration(self):
        # the minimum is held for exactly night_duration_s per sol
        env = MarsEnvironment()
        n = 88775  # one sample per second
        held = sum(
            1 for i in range(n)
            if diurnal_temperature(env, float(i)) <= env.night_low_c + 1e-9
        )
        assert held == pytest.approx(NIGHT, abs=2)

    def test_bounds_respected_everywhere(self):
        env = MarsEnvironment()
        for i in range(0, 88775, 97):
            temp = diurnal_temperature(env, float(i))
            assert -73.0 <= temp <= 20.0

    def test_monotone_morning(self):
        env = MarsEnvironment()
        samples = [diurnal_temperature(env, t) for t in range(0, int(DAY / 2), 500)]
        assert all(b >= a for a, b in zip(samples, samples[1:]))

    def test_symmetry_about_midday(self):
        env = MarsEnvironment()
        for dt in (1000.0, 5000.0, 20000.0):
            left = diurnal_temperature(env, DAY / 2 - dt)
            right = diurnal_temperature(env, DAY / 2 + dt)
            assert left == pytest.approx(right, abs=1e-9)

    def test_cold_extreme_trough(self):
        env = make_environment("cold_extreme")
        assert diurnal_temperature(env, SOL - 10.0) == -90.0
        assert diurnal_temperature(env, DAY / 2) == pytest.approx(20.0, abs=1e-12)

    @pytest.mark.parametrize("t", [-1.0, SOL, SOL + 5.0])
    def test_out_of_range_time_rejected(self, t):
        with pytest.raises(ValueError):
            diurnal_temperature(MarsEnvironment(), t)


class TestCumulativeDose:
    def test_surface_only(self):
        env = MarsEnvironment()
        assert cumulative_dose(env, 0.0, 1.0) == pytest.approx(14.795)

    def test_cave_only(self):
        env = MarsEnvironment()
        assert cumulative_dose(env, 1.0, 1.0) == pytest.approx(0.012)

    def test_shielding_ratio(self):
        env = MarsEnvironment()
        ratio = cumulative_dose(env, 0.0, 1.0) / cumulative_dose(env, 1.0, 1.0)
        assert ratio == pytest.approx(1232.9166666666667, abs=0.1)

    def test_half_and_half_mix(self):
        env = MarsEnvironment()
        assert cumulative_dose(env, 0.5, 1.0) == pytest.approx(7.4035, abs=1e-9)

    def test_linear_in_periods(self):
        env = MarsEnvironment()
        one = cumulative_dose(env, 0.3, 1.0)
        many = cumulative_dose(env, 0.3, 365.0)
        assert many == pytest.approx(365.0 * one, rel=1e-12)

    def test_linear_in_cave_fraction(self):
        env = MarsEnvironment()
        lo = cumulative_dose(env, 0.0, 1.0)
        hi = cumulative_dose(env, 1.0, 1.0)
        for f in (0.1, 0.25, 0.9):
            expect = f * hi + (1 - f) * lo
            assert cumulative_dose(env, f, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_zero_periods(self):
        assert cumulative_dose(MarsEnvironment(), 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("frac,periods", [(-0.1, 1.0), (1.1, 1.0), (0.5, -1.0)])
    def test_domain_errors(self, frac, periods):
        with pytest.raises(ValueError):
            cumulative_dose(MarsEnvironment(), frac, periods)


def test_environment_is_frozen():
    env = MarsEnvironment()
    with pytest.raises(Exception):
        env.gravity = 9.81


def test_day_night_split_is_exact():
    env = MarsEnvironment()
    assert env.day_duration_s + env.night_duration_s == env.sol_length_s
    assert math.isclose(env.day_duration_s, 44375.0)
