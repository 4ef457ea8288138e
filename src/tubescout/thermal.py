"""Greenhouse heat loss, night heating energy and avionics cold survival.

The greenhouse is modeled as a single glazed surface held at a target
temperature: steady-state loss is U*A*dT, clamped at zero when the
outside is warmer (no cooling model). The avionics check asks whether
the electronics stay inside their qualified temperature range,
optionally with a thermostatted survival heater. Samples of the diurnal
profile every 60 s define its answer; because the sampled day arc rises
to one peak and then falls, it is found in closed form by bisecting for
the few samples where the answer changes, not by evaluating them all.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .energy import PowerLoad
from .env import MarsEnvironment, diurnal_temperature
from .numeric import first_step_at, require_nonnegative, require_positive

#: Spacing of the samples that define avionics_envelope_check's answer.
ENVELOPE_SAMPLE_STEP_S = 60.0


@dataclass(frozen=True)
class GlazedEnclosure:
    """A conditioned volume losing heat through glazing only."""

    glazed_area_m2: float = 5.0
    u_value_w_m2k: float = 1.1
    target_temp_c: float = 20.0

    def __post_init__(self):
        require_positive(self, "glazed_area_m2", "u_value_w_m2k")


#: Baseline greenhouse: 5 m2 of double glazing at U = 1.1 W/(m2 K),
#: held at 20 degC.
REFERENCE_GREENHOUSE = GlazedEnclosure()


@dataclass(frozen=True)
class AvionicsEnvelope:
    """Qualified temperature range plus a lumped survival heater.

    The heater is thermostatted at the midpoint of the qualified range:
    it raises the internal temperature by up to
    ``heater_power_w / 100 * heater_delta_c_per_100w`` degrees but never
    pushes it above max(ambient, setpoint), so it cannot cook the
    electronics on a warm afternoon.
    """

    min_ok_c: float = -40.0
    max_ok_c: float = 40.0
    heater_power_w: float = 0.0
    heater_delta_c_per_100w: float = 10.0

    def __post_init__(self):
        if not self.min_ok_c < self.max_ok_c:
            raise ValueError(
                f"need min_ok_c < max_ok_c, got {self.min_ok_c} / {self.max_ok_c}")
        require_nonnegative(self, "heater_power_w", "heater_delta_c_per_100w")

    @property
    def setpoint_c(self) -> float:
        return 0.5 * self.min_ok_c + 0.5 * self.max_ok_c  # the sum may overflow

    @property
    def heater_boost_c(self) -> float:
        return self.heater_power_w / 100.0 * self.heater_delta_c_per_100w


@dataclass(frozen=True)
class EnvelopeCheck:
    """Result of checking one sol against the avionics envelope."""

    ok: bool
    worst_margin_c: float
    violation_windows: tuple[tuple[float, float], ...]


def heat_loss(enclosure: GlazedEnclosure, outside_c: float) -> float:
    """Steady-state conductive loss in W; zero when outside >= target."""
    delta = enclosure.target_temp_c - outside_c
    return enclosure.u_value_w_m2k * enclosure.glazed_area_m2 * max(0.0, delta)


def night_heating_energy(enclosure: GlazedEnclosure, env: MarsEnvironment) -> float:
    """Energy in kWh to hold the target temperature through one night.

    The whole night sits at ``night_low_c``, so this is the trough heat
    loss times the night duration.
    """
    return heat_loss(enclosure, env.night_low_c) * env.night_duration_s / 3.6e6


#: The greenhouse night heater's scheduling priority (lower is more critical).
GREENHOUSE_HEATER_PRIORITY = 2


def greenhouse_night_load(enclosure: GlazedEnclosure,
                          env: MarsEnvironment) -> PowerLoad:
    """The night heater as a schedulable load: trough heat-loss power
    over the night window, not sheddable (crop survival)."""
    return PowerLoad(
        name="greenhouse_heater",
        power_w=heat_loss(enclosure, env.night_low_c),
        window=(env.night_start_s, env.sol_length_s),
        priority=GREENHOUSE_HEATER_PRIORITY,
        sheddable=False,
    )


def _effective_temp(ambient_c: float, envelope: AvionicsEnvelope) -> float:
    if envelope.heater_boost_c == 0.0:
        return ambient_c
    ceiling = max(ambient_c, envelope.setpoint_c)
    return min(ambient_c + envelope.heater_boost_c, ceiling)


def avionics_envelope_check(env: MarsEnvironment,
                            envelope: AvionicsEnvelope) -> EnvelopeCheck:
    """Check that the electronics stay inside the envelope over one sol,
    sampled every ``ENVELOPE_SAMPLE_STEP_S``. An installed survival
    heater (``heater_power_w > 0``) runs whenever a sample needs it. A
    boost and a setpoint height over the night low that both overflow,
    so that either may be the larger, raise ValueError.

    ``worst_margin_c`` is the minimum distance from the effective
    internal temperature to either bound over the samples (negative when
    the envelope is violated). ``violation_windows`` are the maximal
    sampled intervals, as (start_s, end_s) pairs, during which the
    temperature is out of range.

    The samples are ``t_k = k * ENVELOPE_SAMPLE_STEP_S`` for k = 0..K,
    with K the first sample at or past ``env.night_start_s`` (or the last
    sample of the sol if none is): the night is flat, so every later
    sample repeats that one's margin, and a window still open there runs
    to the end of the sol.

    Only the few samples that decide the answer are evaluated, each by
    the same expressions as a full sweep, so every value keeps its bits.
    The premise: the computed ambient is non-decreasing up to a peak
    sample P and non-increasing after it. Each day sample's cosine
    argument is monotone in t, ``math.cos`` is even, and adjacent samples
    lie far more than its rounding error apart. The effective temperature
    is monotone in the ambient, so "too cold" holds on a prefix of
    [0, P] and a suffix of [P, K], and "too hot" on one run around P:
    bisection finds those edges. A margin is the minimum of a rising and
    a falling function of the temperature, so its least value is at
    sample 0, P or K.
    """
    if math.isinf(envelope.heater_boost_c) and math.isinf(
            envelope.setpoint_c - env.night_low_c):
        raise ValueError("heater boost and setpoint height over the night low overflow")
    step = ENVELOPE_SAMPLE_STEP_S
    low, high = envelope.min_ok_c, envelope.max_ok_c

    def effective(k: int) -> float:
        return _effective_temp(diurnal_temperature(env, step * k), envelope)

    def cold(k: int) -> bool:
        return effective(k) - low < 0

    def hot(k: int) -> bool:
        return high - effective(k) < 0

    def first(pred, lo: int, hi: int) -> int:
        """The least k in (lo, hi] with ``pred(k)``: false at lo, true at hi."""
        return bisect.bisect_left(range(hi), True, lo + 1, key=pred)

    # The step is a whole number of seconds, so step * k is exact and
    # equals k additions of the step.
    night = env.night_start_s
    last = first_step_at(night, step, math.ceil(night / step) + 1)
    if step * last >= env.sol_length_s:
        last -= 1
    # The day arc peaks at mid-day, within a sample of the starting guess.
    peak = min(round(0.5 * env.day_duration_s / step), last)
    e_peak = effective(peak)
    while peak < last and (e := effective(peak + 1)) > e_peak:
        peak, e_peak = peak + 1, e
    while peak > 0 and (e := effective(peak - 1)) > e_peak:
        peak, e_peak = peak - 1, e
    e_first, e_last = effective(0), effective(last)

    worst = min(min(e - low, high - e) for e in (e_first, e_peak, e_last))
    # Out-of-range runs of samples as [start, end) index pairs, in order.
    if e_peak - low < 0:
        runs = [(0, last + 1)]
    else:
        runs = []
        if e_first - low < 0:
            runs.append((0, first(lambda k: not cold(k), 0, peak)))
        if high - e_peak < 0:
            start = 0 if high - e_first < 0 else first(hot, 0, peak)
            end = (last + 1 if high - e_last < 0
                   else first(lambda k: not hot(k), peak, last))
            runs.append((start, end))
        if e_last - low < 0:
            runs.append((first(cold, peak, last), last + 1))
    merged: list[tuple[int, int]] = []
    for start, end in runs:
        if merged and merged[-1][1] == start:
            start = merged.pop()[0]
        merged.append((start, end))
    return EnvelopeCheck(
        ok=worst >= 0.0,
        worst_margin_c=worst,
        violation_windows=tuple(
            (step * start, step * end if end <= last else env.sol_length_s)
            for start, end in merged),
    )
