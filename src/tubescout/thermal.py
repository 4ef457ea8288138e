"""Greenhouse heat loss, night heating energy and avionics cold survival.

The greenhouse is modeled as a single glazed surface held at a target
temperature: steady-state loss is U*A*dT, clamped at zero when the
outside is warmer (no cooling model). The avionics check sweeps the
diurnal profile and asks whether the electronics stay inside their
qualified temperature range, optionally with a thermostatted survival
heater.
"""

from __future__ import annotations

from dataclasses import dataclass

from .energy import PowerLoad
from .env import MarsEnvironment, diurnal_temperature

#: Sampling resolution for the sol sweep in avionics_envelope_check.
ENVELOPE_SAMPLE_STEP_S = 60.0


@dataclass(frozen=True)
class GlazedEnclosure:
    """A conditioned volume losing heat through glazing only."""

    glazed_area_m2: float = 5.0
    u_value_w_m2k: float = 1.1
    target_temp_c: float = 20.0

    def __post_init__(self):
        if self.glazed_area_m2 <= 0:
            raise ValueError(
                f"glazed_area_m2 must be positive, got {self.glazed_area_m2}")
        if self.u_value_w_m2k <= 0:
            raise ValueError(
                f"u_value_w_m2k must be positive, got {self.u_value_w_m2k}")


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
        if self.heater_power_w < 0:
            raise ValueError(
                f"heater_power_w must be nonnegative, got {self.heater_power_w}")
        if self.heater_delta_c_per_100w < 0:
            raise ValueError(
                f"heater_delta_c_per_100w must be nonnegative, "
                f"got {self.heater_delta_c_per_100w}")

    @property
    def setpoint_c(self) -> float:
        return 0.5 * (self.min_ok_c + self.max_ok_c)

    @property
    def heater_boost_c(self) -> float:
        return self.heater_power_w / 100.0 * self.heater_delta_c_per_100w


@dataclass(frozen=True)
class EnvelopeCheck:
    """Result of sweeping one sol against the avionics envelope."""

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
    """Sweep one sol, sampled every ``ENVELOPE_SAMPLE_STEP_S``, and check
    the electronics stay inside the envelope. An installed survival
    heater (``heater_power_w > 0``) runs whenever the sweep needs it.

    ``worst_margin_c`` is the minimum distance from the effective
    internal temperature to either bound over the sol (negative when the
    envelope is violated). ``violation_windows`` are the maximal sampled
    intervals, as (start_s, end_s) pairs, during which the temperature is
    out of range.

    The sweep stops at the first sample at or past ``env.night_start_s``:
    the night is flat, so every later sample repeats that one's margin,
    and a window still open there runs to the end of the sol.
    """
    worst = float("inf")
    windows: list[tuple[float, float]] = []
    open_start: float | None = None
    t = 0.0
    while t < env.sol_length_s:
        ambient = diurnal_temperature(env, t)
        effective = _effective_temp(ambient, envelope)
        margin = min(effective - envelope.min_ok_c, envelope.max_ok_c - effective)
        worst = min(worst, margin)
        if margin < 0:
            if open_start is None:
                open_start = t
        elif open_start is not None:
            windows.append((open_start, t))
            open_start = None
        if t >= env.night_start_s:
            break
        t += ENVELOPE_SAMPLE_STEP_S
    if open_start is not None:
        windows.append((open_start, env.sol_length_s))
    return EnvelopeCheck(
        ok=worst >= 0.0,
        worst_margin_c=worst,
        violation_windows=tuple(windows),
    )
