"""Greenhouse heat loss, night energy and avionics envelope checks."""

import itertools
import math
import random

import pytest

from tubescout import thermal
from tubescout.env import (
    MAX_SOL_LENGTH_S,
    MarsEnvironment,
    diurnal_temperature,
    make_environment,
)
from tubescout.thermal import (
    ENVELOPE_SAMPLE_STEP_S,
    REFERENCE_GREENHOUSE,
    AvionicsEnvelope,
    EnvelopeCheck,
    _effective_temp,
    GlazedEnclosure,
    avionics_envelope_check,
    greenhouse_night_load,
    heat_loss,
    night_heating_energy,
)

ENV = MarsEnvironment()


class TestHeatLoss:
    def test_reference_design_point(self):
        # 1.1 * 5 * (20 - (-73)) = 511.5 W
        assert heat_loss(REFERENCE_GREENHOUSE, -73.0) == pytest.approx(511.5, rel=1e-12)

    def test_no_gradient_no_loss(self):
        assert heat_loss(REFERENCE_GREENHOUSE, 20.0) == 0.0

    def test_warm_outside_clamped_to_zero(self):
        assert heat_loss(REFERENCE_GREENHOUSE, 35.0) == 0.0

    def test_linear_in_u_value(self):
        doubled = GlazedEnclosure(u_value_w_m2k=2.2)
        assert heat_loss(doubled, -73.0) == pytest.approx(
            2.0 * heat_loss(REFERENCE_GREENHOUSE, -73.0), rel=1e-12)

    def test_linear_in_area(self):
        half = GlazedEnclosure(glazed_area_m2=2.5)
        assert heat_loss(half, -73.0) == pytest.approx(
            0.5 * heat_loss(REFERENCE_GREENHOUSE, -73.0), rel=1e-12)

    def test_linear_in_delta_t(self):
        base = heat_loss(REFERENCE_GREENHOUSE, 10.0)   # dT = 10
        assert heat_loss(REFERENCE_GREENHOUSE, 0.0) == pytest.approx(
            2.0 * base, rel=1e-12)

    def test_never_negative(self):
        for outside in (-120.0, -73.0, 0.0, 20.0, 50.0):
            assert heat_loss(REFERENCE_GREENHOUSE, outside) >= 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(glazed_area_m2=0.0),
        dict(glazed_area_m2=-5.0),
        dict(u_value_w_m2k=0.0),
    ])
    def test_invalid_enclosure(self, kwargs):
        with pytest.raises(ValueError):
            GlazedEnclosure(**kwargs)


class TestNightHeatingEnergy:
    def test_reference_night(self):
        # 511.5 W * 44400 s / 3.6e6 = 6.3085 kWh
        energy = night_heating_energy(REFERENCE_GREENHOUSE, ENV)
        assert energy == pytest.approx(6.3085, rel=1e-9)
        assert abs(energy - 6.3) / 6.3 < 0.01

    def test_cold_extreme_night(self):
        energy = night_heating_energy(REFERENCE_GREENHOUSE, make_environment("cold_extreme"))
        assert energy == pytest.approx(605.0 * 44400.0 / 3.6e6, rel=1e-9)

    def test_halving_u_value_halves_energy(self):
        half = GlazedEnclosure(u_value_w_m2k=0.55)
        assert night_heating_energy(half, ENV) == pytest.approx(
            0.5 * night_heating_energy(REFERENCE_GREENHOUSE, ENV), rel=1e-12)

    def test_closure_with_heat_loss(self):
        expect = heat_loss(REFERENCE_GREENHOUSE, ENV.night_low_c) * ENV.night_duration_s / 3.6e6
        assert night_heating_energy(REFERENCE_GREENHOUSE, ENV) == pytest.approx(
            expect, rel=1e-9)


class TestGreenhouseNightLoad:
    def test_exported_load_shape(self):
        load = greenhouse_night_load(REFERENCE_GREENHOUSE, ENV)
        assert load.name == "greenhouse_heater"
        assert load.power_w == pytest.approx(511.5, rel=1e-12)
        assert load.window == (44375.0, 88775.0)
        assert load.priority == 2
        assert not load.sheddable

    def test_active_only_at_night(self):
        load = greenhouse_night_load(REFERENCE_GREENHOUSE, ENV)
        assert not load.active_at(0.0)
        assert not load.active_at(22187.5)
        assert load.active_at(44375.0)
        assert load.active_at(88774.0)
        assert not load.active_at(88775.0)


class TestAvionicsEnvelope:
    def test_default_night_breaks_envelope_without_heater(self):
        check = avionics_envelope_check(ENV, AvionicsEnvelope())
        assert not check.ok
        assert check.worst_margin_c == pytest.approx(-33.0, abs=1e-9)
        # cold before sunrise and from late evening through the trough
        assert len(check.violation_windows) == 2
        first, second = check.violation_windows
        assert first[0] == 0.0
        assert second[0] < ENV.night_start_s
        assert second[1] == ENV.sol_length_s

    def test_cold_extreme_trough_violation(self):
        cold = make_environment("cold_extreme")
        check = avionics_envelope_check(cold, AvionicsEnvelope())
        assert not check.ok
        assert check.worst_margin_c == pytest.approx(-50.0, abs=1e-9)
        trough = check.violation_windows[-1]
        assert trough[0] <= cold.night_start_s
        assert trough[1] == cold.sol_length_s

    def test_mild_profile_is_ok_without_heater(self):
        mild = make_environment(night_low_c=-30.0, day_high_c=25.0)
        check = avionics_envelope_check(mild, AvionicsEnvelope())
        assert check.ok
        assert check.worst_margin_c == pytest.approx(10.0, abs=1e-9)
        assert check.violation_windows == ()

    def test_sized_heater_restores_one_degree_margin(self):
        # 510 W at 10 degC per 100 W lifts the -90 trough to -39
        cold = make_environment("cold_extreme")
        envelope = AvionicsEnvelope(heater_power_w=510.0)
        check = avionics_envelope_check(cold, envelope)
        assert check.ok
        assert check.worst_margin_c == pytest.approx(1.0, abs=1e-9)
        assert check.violation_windows == ()

    def test_heater_does_not_overheat_warm_afternoon(self):
        # thermostat holds at max(ambient, setpoint): a heater sized for
        # the night must not push the +20 degC afternoon past +40
        envelope = AvionicsEnvelope(heater_power_w=900.0)
        check = avionics_envelope_check(ENV, envelope)
        assert check.ok

    def test_colder_nights_never_help(self):
        # with no heater, lowering the night trough can only hurt
        previous_ok = True
        for night_low in (-35.0, -40.0, -50.0, -73.0, -90.0, -110.0):
            env = make_environment(night_low_c=night_low)
            check = avionics_envelope_check(env, AvionicsEnvelope())
            if not previous_ok:
                assert not check.ok
            previous_ok = check.ok

    def test_setpoint_of_bounds_past_the_float_range(self):
        envelope = AvionicsEnvelope(min_ok_c=1e308, max_ok_c=1.4e308)
        assert envelope.setpoint_c == 1.2e308

    def test_unknown_boost_is_refused(self):
        """The boost overflows, and so does the setpoint's 2e308 degC
        height over the night low: either may be the larger."""
        env = make_environment(night_low_c=-1e308)
        envelope = AvionicsEnvelope(min_ok_c=0.95e308, max_ok_c=1.05e308,
                                    heater_power_w=1e308,
                                    heater_delta_c_per_100w=190.0)
        with pytest.raises(ValueError, match="setpoint height over the night low overflow"):
            avionics_envelope_check(env, envelope)
        # Over a -73 degC night the boost surely reaches the setpoint.
        check = avionics_envelope_check(ENV, envelope)
        assert check.ok and check.worst_margin_c == pytest.approx(0.05e308)

    def test_undersized_heater_still_fails(self):
        cold = make_environment("cold_extreme")
        envelope = AvionicsEnvelope(heater_power_w=100.0)  # +10 degC only
        check = avionics_envelope_check(cold, envelope)
        assert not check.ok
        assert check.worst_margin_c == pytest.approx(-40.0, abs=1e-9)

    @pytest.mark.parametrize("kwargs", [
        dict(min_ok_c=40.0, max_ok_c=40.0),
        dict(heater_power_w=-1.0),
        dict(heater_delta_c_per_100w=-1.0),
    ])
    def test_invalid_envelope(self, kwargs):
        with pytest.raises(ValueError):
            AvionicsEnvelope(**kwargs)


def full_sweep_check(env, envelope):
    """The envelope check evaluating every sample of the sol, night
    included: ``avionics_envelope_check`` evaluates a few samples up to the
    first night sample and must agree with it bit for bit."""
    worst = float("inf")
    windows = []
    open_start = None
    t = 0.0
    while t < env.sol_length_s:
        effective = _effective_temp(diurnal_temperature(env, t), envelope)
        margin = min(effective - envelope.min_ok_c, envelope.max_ok_c - effective)
        worst = min(worst, margin)
        if margin < 0:
            if open_start is None:
                open_start = t
        elif open_start is not None:
            windows.append((open_start, t))
            open_start = None
        t += ENVELOPE_SAMPLE_STEP_S
    if open_start is not None:
        windows.append((open_start, env.sol_length_s))
    return EnvelopeCheck(ok=worst >= 0.0, worst_margin_c=worst,
                         violation_windows=tuple(windows))


def random_envelope_case(rng: random.Random):
    sol_s = rng.choice((88775.0, 86400.0, rng.uniform(3000.0, 120000.0)))
    if rng.random() < 0.3:
        # The night starts on a sample.
        night_start = ENVELOPE_SAMPLE_STEP_S * rng.randrange(1, int(sol_s // 60.0))
    else:
        night_start = rng.uniform(1.0, sol_s - 1.0)
    low = rng.uniform(-120.0, 10.0)
    env = MarsEnvironment(sol_length_s=sol_s, night_duration_s=sol_s - night_start,
                          night_low_c=low, day_high_c=low + rng.uniform(0.5, 120.0))
    lo = rng.uniform(-100.0, 20.0)
    envelope = AvionicsEnvelope(
        min_ok_c=lo, max_ok_c=lo + rng.uniform(0.5, 100.0),
        heater_power_w=rng.choice((0.0, 0.0, rng.uniform(0.0, 1500.0))),
        heater_delta_c_per_100w=rng.uniform(0.0, 20.0))
    return env, envelope


def same_check(a: EnvelopeCheck, b: EnvelopeCheck) -> bool:
    """Bit for bit: ``worst_margin_c`` by repr, so -0.0 differs from 0.0."""
    return (a.ok, repr(a.worst_margin_c), a.violation_windows) == \
        (b.ok, repr(b.worst_margin_c), b.violation_windows)


@pytest.mark.parametrize("chunk", range(8))
def test_sweep_to_first_night_sample_matches_the_full_sweep(chunk):
    """Bit for bit, on 2,000 seeded environments and envelopes, heater on
    and off, with nights starting on and between samples."""
    for seed in range(chunk * 250, chunk * 250 + 250):
        env, envelope = random_envelope_case(random.Random(seed))
        assert same_check(avionics_envelope_check(env, envelope),
                          full_sweep_check(env, envelope)), seed


def edge_grid(sol_s):
    """Environments and envelopes at the edges of the closed form, for a
    sol of ``sol_s`` seconds."""
    step = ENVELOPE_SAMPLE_STEP_S
    nights = {0.5, 30.0,                                   # under a sample
              sol_s - step * max(1, sol_s // (2 * step)),  # starts on one
              sol_s - 1.0, sol_s - 1e-9 * sol_s}           # nearly the sol
    for night_s, (low, high) in itertools.product(
            sorted(n for n in nights if 0 < n < sol_s),
            ((-73.0, 20.0), (-0.0, 10.0), (0.0, 10.0))):
        env = MarsEnvironment(sol_length_s=sol_s, night_duration_s=night_s,
                              night_low_c=low, day_high_c=high)
        for bounds, heater in itertools.product(
                ((-40.0, 40.0),
                 (high + 1.0, high + 2.0),           # cold all sol
                 (low - 2.0, low - 1.0),             # hot all sol
                 (low - 1.0, 0.5 * (low + high)),    # hot only around the peak
                 (-0.0, 10.0), (0.0, 10.0), (-10.0, -0.0), (-10.0, 0.0)),
                ((0.0, 10.0), (510.0, 10.0),
                 (1e308, 1e308))):                   # an infinite boost
            yield env, AvionicsEnvelope(*bounds, *heater)


@pytest.mark.parametrize("sol_s", [30.0, 59.0, 60.0, 61.0, 1000.0, 88775.0, 1e6])
def test_closed_form_matches_the_full_sweep_on_an_edge_grid(sol_s):
    # On the longest sol each full sweep takes 16,667 samples, so only
    # every 7th case runs: 7 is prime to the 8 bounds and 3 heaters.
    for env, envelope in itertools.islice(edge_grid(sol_s), 0, None,
                                          7 if sol_s == 1e6 else 1):
        assert same_check(avionics_envelope_check(env, envelope),
                          full_sweep_check(env, envelope)), (env, envelope)


def test_edge_grid_covers_the_window_shapes():
    seen = set()
    for env, envelope in edge_grid(1000.0):
        check = full_sweep_check(env, envelope)
        if check.violation_windows == ((0.0, env.sol_length_s),):
            seen.add("whole_sol")
        elif any(0.0 < start and end < env.night_start_s
                 for start, end in check.violation_windows):
            seen.add("around_the_peak")
        if repr(check.worst_margin_c) == "-0.0":
            seen.add("negative_zero_margin")
    assert seen == {"whole_sol", "around_the_peak", "negative_zero_margin"}


def test_check_evaluates_few_samples_on_the_longest_sol(monkeypatch):
    """Cold at both ends and hot around the peak, so every edge is
    bisected: a sweep would evaluate all 16,667 samples."""
    calls = 0

    def counted(env, time_of_sol):
        nonlocal calls
        calls += 1
        return diurnal_temperature(env, time_of_sol)

    env = MarsEnvironment(sol_length_s=MAX_SOL_LENGTH_S, night_duration_s=30.0)
    envelope = AvionicsEnvelope(min_ok_c=-50.0, max_ok_c=0.0)
    monkeypatch.setattr(thermal, "diurnal_temperature", counted)
    check = avionics_envelope_check(env, envelope)
    assert calls <= 64 < MAX_SOL_LENGTH_S / ENVELOPE_SAMPLE_STEP_S
    monkeypatch.undo()
    assert len(check.violation_windows) == 3
    assert same_check(check, full_sweep_check(env, envelope))


def test_sampled_day_arc_rises_to_one_peak_then_falls():
    for seed in range(2000):
        env, _ = random_envelope_case(random.Random(seed))
        ambient = []
        t = 0.0
        while t < env.sol_length_s:
            ambient.append(diurnal_temperature(env, t))
            t += ENVELOPE_SAMPLE_STEP_S
        peak = ambient.index(max(ambient))
        assert (all(a <= b for a, b in zip(ambient[:peak], ambient[1:peak + 1]))
                and all(a >= b for a, b in zip(ambient[peak:], ambient[peak + 1:]))), (
            f"seed {seed}: the sampled ambient is not non-decreasing to its "
            f"peak and non-increasing after it, which the closed-form "
            f"avionics_envelope_check relies on (is math.cos monotone here?)")


def test_seeded_envelope_cases_cover_the_edges():
    seen = set()
    for seed in range(100):
        env, envelope = random_envelope_case(random.Random(seed))
        seen.add("heater" if envelope.heater_power_w > 0 else "no_heater")
        seen.add("night_on_sample" if env.night_start_s % 60.0 == 0.0
                 else "night_between_samples")
        check = full_sweep_check(env, envelope)
        for start, end in check.violation_windows:
            if start < env.night_start_s and end == env.sol_length_s:
                seen.add("open_across_dusk")
            elif start < env.night_start_s <= end:
                seen.add("closed_at_night")
        if check.ok:
            seen.add("ok")
    assert seen == {"heater", "no_heater", "night_on_sample",
                    "night_between_samples", "open_across_dusk",
                    "closed_at_night", "ok"}


@pytest.mark.parametrize("env, envelope", [
    # The shipped default: night at 44375 s, between samples; the cold
    # window opens before dusk and stays open through the night.
    (ENV, AvionicsEnvelope()),
    # Night at 44400 s, on a sample.
    (MarsEnvironment(night_duration_s=44375.0), AvionicsEnvelope()),
    # Too warm before dusk, in range at night: the window closes at the
    # first night sample.
    (ENV, AvionicsEnvelope(min_ok_c=-80.0, max_ok_c=-72.5)),
    # A heater that keeps the night in range.
    (make_environment("cold_extreme"), AvionicsEnvelope(heater_power_w=510.0)),
])
def test_sweep_to_first_night_sample_on_fixed_cases(env, envelope):
    assert avionics_envelope_check(env, envelope) == full_sweep_check(env, envelope)


def loop_last_sample(env):
    """The first sample at or past the night start, or the sol's last
    sample if none is: the walk ``avionics_envelope_check`` made before it
    called ``numeric.first_step_at``, kept as its reference."""
    step = ENVELOPE_SAMPLE_STEP_S
    night = env.night_start_s
    last = math.ceil(night / step)
    while last > 0 and step * (last - 1) >= night:
        last -= 1
    while step * last < night:
        last += 1
    if step * last >= env.sol_length_s:
        last -= 1
    return last


def night_starts(sol_s):
    """On-sample night starts near dawn, mid-sol and the sol end, the
    instants just under the sol end, each with its ``nextafter``
    neighbours, kept inside (0, sol_s)."""
    step = ENVELOPE_SAMPLE_STEP_S
    n = math.ceil(sol_s / step)
    on_grid = {step * k for k in (1, 2, n // 2, n - 2, n - 1, n) if k > 0}
    for t in sorted(on_grid | {0.5, sol_s - 1.0, math.nextafter(sol_s, 0.0)}):
        for start in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)):
            if 0.0 < start < sol_s:
                yield start


@pytest.mark.parametrize("sol_s", [30.0, 59.0, 60.0, 61.0, 119.0, 120.0, 121.0,
                                   1000.0, 88775.0, 1e6])
def test_last_sample_matches_the_walk(monkeypatch, sol_s):
    """The last sample the check evaluates, seen as the latest time it
    reads the ambient at, is the walk's."""
    times = []

    def recorded(env, time_of_sol):
        times.append(time_of_sol)
        return diurnal_temperature(env, time_of_sol)

    monkeypatch.setattr(thermal, "diurnal_temperature", recorded)
    for start in night_starts(sol_s):
        env = MarsEnvironment(sol_length_s=sol_s, night_duration_s=sol_s - start)
        times.clear()
        avionics_envelope_check(env, AvionicsEnvelope())
        assert max(times) == ENVELOPE_SAMPLE_STEP_S * loop_last_sample(env), (
            sol_s, env.night_start_s)


def half_sample_envs():
    """Environments whose mid-day falls on a half-sample, 0.5 * day =
    60 k + 30 s, or a few ulps of the sol length off one, so that two
    samples are (nearly) equally far from it and the rounded guess of the
    peak search may start on either."""
    for k, night_s in itertools.product((0, 1, 2, 5, 36, 369), (30.0, 1000.0)):
        sol_s = ENVELOPE_SAMPLE_STEP_S * (2 * k + 1) + night_s
        for offset in range(-3, 4):
            sol = sol_s
            for _ in range(abs(offset)):
                sol = math.nextafter(sol, math.copysign(math.inf, offset))
            for low, high in ((-73.0, 20.0), (-1e-3, 1e-3), (0.0, 1e6)):
                yield MarsEnvironment(sol_length_s=sol, night_duration_s=night_s,
                                      night_low_c=low, day_high_c=high)


def peak_envelopes(env):
    """Envelopes whose answer turns on the peak sample: hot only around
    it, with and without a heater that lifts the arc to its setpoint."""
    low, high = env.night_low_c, env.day_high_c
    mid = 0.5 * low + 0.5 * high
    yield AvionicsEnvelope(min_ok_c=low - 1.0, max_ok_c=mid)
    yield AvionicsEnvelope(min_ok_c=mid, max_ok_c=high - 0.25 * (high - low))
    yield AvionicsEnvelope(min_ok_c=2 * low - mid, max_ok_c=mid,
                           heater_power_w=100.0, heater_delta_c_per_100w=high - low)


def test_peak_search_on_half_sample_days():
    """Brute force over every 60 s sample. The search's guess, the sample
    nearest mid-day, already holds the greatest effective temperature, so
    its step-up and step-down loops never move on these days."""
    step = ENVELOPE_SAMPLE_STEP_S
    for env in half_sample_envs():
        guess = round(0.5 * env.day_duration_s / step)
        for envelope in peak_envelopes(env):
            assert same_check(avionics_envelope_check(env, envelope),
                              full_sweep_check(env, envelope)), (env, envelope)
            samples = [_effective_temp(diurnal_temperature(env, step * k), envelope)
                       for k in range(math.ceil(env.sol_length_s / step))]
            assert samples[guess] == max(samples), (env, envelope)


@pytest.mark.parametrize("shift", [-1, 1])
def test_peak_search_steps_to_the_peak_from_a_neighbour(monkeypatch, shift):
    """Start the search one sample off its guess, by shadowing ``round``
    in the thermal module: the step loops must walk to the peak, and the
    answer must still equal the full sweep's bit for bit."""
    cases = [(env, envelope) for env in half_sample_envs()
             for envelope in peak_envelopes(env)]
    cases += [random_envelope_case(random.Random(seed)) for seed in range(200)]
    monkeypatch.setattr(thermal, "round", lambda x: max(0, round(x) + shift),
                        raising=False)
    for env, envelope in cases:
        assert same_check(avionics_envelope_check(env, envelope),
                          full_sweep_check(env, envelope)), (env, envelope)
