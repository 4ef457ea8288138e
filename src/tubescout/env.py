"""Martian surface environment shared by every engineering model.

Holds the physical constants, the diurnal temperature cycle and the
surface-versus-cave radiation dose rates. The diurnal profile is a
clipped cosine: the sol starts at dawn with the temperature at
``night_low_c``, rises to ``day_high_c`` at mid-day, falls back by dusk
and then sits flat at ``night_low_c`` for the final ``night_duration_s``
seconds of the sol. Radiation doses are stated per opaque reference
period; only their ratio and linear mixes of the two rates are claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .numeric import require_positive

UNIVERSAL_GAS_CONSTANT = 8.314462618  # J/(mol K)

#: Upper bound on ``sol_length_s``, about 11 Mars sols. It keeps the
#: avionics check's 60 s samples (at most 16,667) far enough apart on the
#: day arc that adjacent cosines differ by far more than ``math.cos``'s
#: rounding error, which the check's closed form relies on, and keeps a
#: sweep over every sample short, which tests use as its reference.
MAX_SOL_LENGTH_S = 1e6


@dataclass(frozen=True)
class MarsEnvironment:
    """Physical context for the landing region.

    Defaults describe the targeted equatorial graben region: thin CO2
    atmosphere, 20 degC day peak, -73 degC design night, 12 h 20 min
    night window, and heavily shielded cave dose rates.
    """

    gravity: float = 3.721                # m/s^2
    ambient_density: float = 0.02         # kg/m^3, near-surface atmosphere
    surface_pressure: float = 610.0       # Pa
    gas_constant: float = UNIVERSAL_GAS_CONSTANT
    ambient_temperature: float = 293.0    # K, lifting-gas fill temperature
    day_high_c: float = 20.0
    night_low_c: float = -73.0
    sol_length_s: float = 88775.0
    night_duration_s: float = 44400.0     # 12 h 20 min
    dose_surface_msv: float = 14.795      # mSv per reference period
    dose_cave_msv: float = 0.012          # mSv per reference period

    def __post_init__(self):
        require_positive(self, "gravity", "ambient_density", "surface_pressure",
                         "gas_constant", "ambient_temperature")
        if not self.sol_length_s <= MAX_SOL_LENGTH_S:
            raise ValueError(f"sol_length_s must be at most {MAX_SOL_LENGTH_S:.0f}, "
                             f"got {self.sol_length_s}")
        if not self.sol_length_s > self.night_duration_s > 0:
            raise ValueError(
                "need sol_length_s > night_duration_s > 0, got "
                f"{self.sol_length_s} / {self.night_duration_s}")
        if not self.day_high_c > self.night_low_c:
            raise ValueError(
                f"day_high_c must exceed night_low_c, got "
                f"{self.day_high_c} <= {self.night_low_c}")
        if not self.dose_surface_msv > self.dose_cave_msv >= 0:
            raise ValueError(
                "need dose_surface_msv > dose_cave_msv >= 0, got "
                f"{self.dose_surface_msv} / {self.dose_cave_msv}")

    @property
    def day_duration_s(self) -> float:
        return self.sol_length_s - self.night_duration_s

    @property
    def night_start_s(self) -> float:
        """Time of sol at which the flat night trough begins."""
        return self.sol_length_s - self.night_duration_s


#: Named presets selectable from a scenario config. ``cold_extreme``
#: models the -90 degC nights quoted for avionics survival sizing.
PRESETS = {
    "nili_fossae_default": MarsEnvironment(),
    "cold_extreme": MarsEnvironment(night_low_c=-90.0),
}


def make_environment(preset: str = "nili_fossae_default", **overrides) -> MarsEnvironment:
    """Build an environment from a named preset plus field overrides."""
    try:
        base = PRESETS[preset]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown environment preset {preset!r} (known: {known})")
    return replace(base, **overrides) if overrides else base


def diurnal_temperature(env: MarsEnvironment, time_of_sol: float) -> float:
    """Surface temperature in degC at a given time of sol.

    The profile is a half-cosine day arc over ``day_duration_s`` seconds
    followed by a flat night trough, so the maximum equals
    ``day_high_c``, the minimum equals ``night_low_c``, and the minimum
    is held for exactly ``night_duration_s`` seconds per sol.

    Raises:
        ValueError: if ``time_of_sol`` is outside ``[0, sol_length_s)``.
    """
    if not 0.0 <= time_of_sol < env.sol_length_s:
        raise ValueError(
            f"time_of_sol must be in [0, {env.sol_length_s}), got {time_of_sol}")
    if time_of_sol >= env.night_start_s:
        return env.night_low_c
    day = env.day_duration_s
    shape = math.cos(math.pi * (time_of_sol - 0.5 * day) / day)
    return env.night_low_c + (env.day_high_c - env.night_low_c) * max(0.0, shape)


def cumulative_dose(env: MarsEnvironment, cave_fraction: float, periods: float) -> float:
    """Accumulated radiation dose in mSv over ``periods`` reference periods.

    ``cave_fraction`` is the fraction of each period spent inside the
    shielded cave; the rest is spent on the surface. Exactly linear in
    both arguments.

    Raises:
        ValueError: if ``cave_fraction`` is outside [0, 1] or ``periods``
            is negative.
    """
    if not 0.0 <= cave_fraction <= 1.0:
        raise ValueError(f"cave_fraction must be in [0, 1], got {cave_fraction}")
    if periods < 0:
        raise ValueError(f"periods must be nonnegative, got {periods}")
    per_period = (cave_fraction * env.dose_cave_msv
                  + (1.0 - cave_fraction) * env.dose_surface_msv)
    return periods * per_period
