"""Toroidal aerostat sizing: lift gas, hull mass budget and buoyancy margin.

The aerostat is an annular (ring) envelope wrapped around a vertical
tether: outer radius R, inner radius r, height L. Gas is generated in
situ, so the lifting-gas density can either be supplied directly or
computed from the ideal gas law at fill conditions. Whether the aerostat
floats is decided by comparing its overall density (everything it must
carry divided by displaced volume) against the ambient atmosphere.

Two hull-area conventions are supported because they bracket the design:
``outer_lateral_only`` counts just the outer cylindrical wall, while
``full_wetted`` adds the inner wall and both annular end caps. The same
envelope can pass the buoyancy check under one convention and fail it
under the other; callers that report results compute both.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .env import MarsEnvironment
from .numeric import require_nonnegative, require_positive

#: Maximum fraction of upstream kinetic power a disc actuator can extract.
BETZ_LIMIT = 16.0 / 27.0

# molar masses, kg/mol
HELIUM = 0.004
HYDROGEN = 0.002
OXYGEN = 0.032
CARBON_DIOXIDE = 0.044


class AreaModel(enum.Enum):
    """Which hull surfaces count toward envelope mass."""

    FULL_WETTED = "full_wetted"
    OUTER_LATERAL_ONLY = "outer_lateral_only"


@dataclass(frozen=True)
class BalloonGeometry:
    """Annular envelope dimensions in metres."""

    outer_radius_m: float = 7.0
    inner_radius_m: float = 3.0
    tube_length_m: float = 6.0

    def __post_init__(self):
        require_nonnegative(self, "inner_radius_m")
        if not self.outer_radius_m > self.inner_radius_m:
            raise ValueError(
                "outer_radius_m must exceed inner_radius_m, got "
                f"{self.outer_radius_m} <= {self.inner_radius_m}")
        require_positive(self, "tube_length_m")


@dataclass(frozen=True)
class BalloonConfig:
    """Full aerostat definition: geometry plus mass line items.

    ``lifting_gas_density_kg_m3`` of ``None`` means "derive from the
    molar mass at ambient fill conditions" via ``lift_gas_density``.
    """

    geometry: BalloonGeometry = BalloonGeometry()
    lifting_gas_density_kg_m3: float | None = None
    gas_molar_mass_kg_mol: float = OXYGEN
    surface_area_weight_kg_m2: float = 0.01
    tether_length_m: float = 40.0
    tether_weight_per_length_kg_m: float = 0.01
    scientific_payload_weight_kg: float = 2.0
    windmill_weight_kg: float = 2.0
    area_model: AreaModel = AreaModel.OUTER_LATERAL_ONLY

    def __post_init__(self):
        if self.lifting_gas_density_kg_m3 is not None and self.lifting_gas_density_kg_m3 <= 0:
            raise ValueError(
                "lifting_gas_density_kg_m3 must be positive when given, got "
                f"{self.lifting_gas_density_kg_m3}")
        require_positive(self, "gas_molar_mass_kg_mol")
        require_nonnegative(self, "surface_area_weight_kg_m2", "tether_length_m",
                            "tether_weight_per_length_kg_m",
                            "scientific_payload_weight_kg", "windmill_weight_kg")


#: Baseline ring-envelope design used throughout the reports: oxygen fill
#: at 610 Pa / 293 K, 40 m tether, 2 kg instruments plus 2 kg wind turbine.
REFERENCE_BALLOON = BalloonConfig(
    lifting_gas_density_kg_m3=0.008008584,
)


@dataclass(frozen=True)
class BuoyancyResult:
    """Outcome of a buoyancy evaluation under one area model."""

    area_model: AreaModel
    lifting_volume_m3: float
    hull_area_m2: float
    gas_mass_kg: float
    hull_mass_kg: float
    tether_mass_kg: float
    payload_mass_kg: float
    windmill_mass_kg: float
    total_mass_kg: float
    overall_density_kg_m3: float
    ambient_density_kg_m3: float
    net_force_n: float
    buoyant: bool


def lift_gas_density(molar_mass_kg_mol: float, env: MarsEnvironment) -> float:
    """Ideal-gas density at ambient fill pressure and temperature."""
    if molar_mass_kg_mol <= 0:
        raise ValueError(
            f"molar_mass_kg_mol must be positive, got {molar_mass_kg_mol}")
    return (env.surface_pressure * molar_mass_kg_mol
            / env.gas_constant / env.ambient_temperature)  # R * T may overflow


def lifting_volume(geometry: BalloonGeometry) -> float:
    """Gas volume of the annular envelope, m^3."""
    ring = geometry.outer_radius_m ** 2 - geometry.inner_radius_m ** 2
    return math.pi * ring * geometry.tube_length_m


def hull_area(geometry: BalloonGeometry, area_model: AreaModel = AreaModel.OUTER_LATERAL_ONLY) -> float:
    """Envelope surface area in m^2 under the chosen convention."""
    outer = 2.0 * math.pi * geometry.outer_radius_m * geometry.tube_length_m
    if area_model is AreaModel.OUTER_LATERAL_ONLY:
        return outer
    inner = 2.0 * math.pi * geometry.inner_radius_m * geometry.tube_length_m
    caps = 2.0 * math.pi * (geometry.outer_radius_m ** 2 - geometry.inner_radius_m ** 2)
    return outer + inner + caps


def gas_density_for(config: BalloonConfig, env: MarsEnvironment) -> float:
    """Lifting-gas density: explicit override, else ideal gas at ambient."""
    if config.lifting_gas_density_kg_m3 is not None:
        return config.lifting_gas_density_kg_m3
    return lift_gas_density(config.gas_molar_mass_kg_mol, env)


def buoyancy_margin(config: BalloonConfig, env: MarsEnvironment,
                    area_model: AreaModel | None = None) -> BuoyancyResult:
    """Evaluate whether the configured aerostat floats in the ambient air.

    The overall density is the sum of gas, hull, tether, payload and
    turbine masses divided by the displaced (gas) volume. The aerostat is
    buoyant when that density is below ``env.ambient_density``; the net
    lift is the corresponding Archimedes force.
    """
    model = config.area_model if area_model is None else area_model
    volume = lifting_volume(config.geometry)
    area = hull_area(config.geometry, model)
    gas_density = gas_density_for(config, env)

    gas_mass = gas_density * volume
    hull_mass = config.surface_area_weight_kg_m2 * area
    tether_mass = config.tether_length_m * config.tether_weight_per_length_kg_m
    total = (gas_mass + hull_mass + tether_mass
             + config.scientific_payload_weight_kg + config.windmill_weight_kg)
    overall_density = total / volume
    net_force = (env.ambient_density - overall_density) * volume * env.gravity

    return BuoyancyResult(
        area_model=model,
        lifting_volume_m3=volume,
        hull_area_m2=area,
        gas_mass_kg=gas_mass,
        hull_mass_kg=hull_mass,
        tether_mass_kg=tether_mass,
        payload_mass_kg=config.scientific_payload_weight_kg,
        windmill_mass_kg=config.windmill_weight_kg,
        total_mass_kg=total,
        overall_density_kg_m3=overall_density,
        ambient_density_kg_m3=env.ambient_density,
        net_force_n=net_force,
        buoyant=overall_density < env.ambient_density,
    )


def turbine_power(air_density: float, swept_area_m2: float, wind_speed_mps: float,
                  power_coefficient: float = BETZ_LIMIT) -> float:
    """Extractable wind power in W for a disc actuator.

    ``power_coefficient`` defaults to the Betz limit and may not exceed it.
    """
    if air_density < 0:
        raise ValueError(f"air_density must be nonnegative, got {air_density}")
    if swept_area_m2 < 0:
        raise ValueError(f"swept_area_m2 must be nonnegative, got {swept_area_m2}")
    if wind_speed_mps < 0:
        raise ValueError(f"wind_speed_mps must be nonnegative, got {wind_speed_mps}")
    if not 0.0 <= power_coefficient <= BETZ_LIMIT:
        raise ValueError(
            f"power_coefficient must be in [0, {BETZ_LIMIT:.6f}], got {power_coefficient}")
    return 0.5 * power_coefficient * air_density * swept_area_m2 * wind_speed_mps ** 3
