"""Aerostat sizing: gas density, geometry, mass rollup, buoyancy, turbine."""

import math

import pytest

from tubescout.aerostat import (
    BETZ_LIMIT,
    CARBON_DIOXIDE,
    HELIUM,
    HYDROGEN,
    OXYGEN,
    REFERENCE_BALLOON,
    AreaModel,
    BalloonConfig,
    BalloonGeometry,
    buoyancy_margin,
    gas_density_for,
    hull_area,
    lift_gas_density,
    lifting_volume,
    turbine_power,
)
from tubescout.env import MarsEnvironment
from tubescout.rng import Rng

ENV = MarsEnvironment()
GEOM = BalloonGeometry()  # 7 m outer, 3 m inner, 6 m long


class TestLiftGasDensity:
    def test_oxygen_at_fill_conditions(self):
        # 610 Pa * 0.032 / (8.314462618 * 293)
        rho = lift_gas_density(OXYGEN, ENV)
        assert rho == pytest.approx(0.008012683858284238, rel=1e-12)
        # within 0.5% of the baseline design figure
        assert abs(rho - 0.008008584) / 0.008008584 < 0.005

    def test_helium_at_fill_conditions(self):
        rho = lift_gas_density(HELIUM, ENV)
        assert rho == pytest.approx(0.0010015854822855298, rel=1e-12)

    def test_density_scales_with_molar_mass(self):
        assert lift_gas_density(HYDROGEN, ENV) == pytest.approx(
            0.5 * lift_gas_density(HELIUM, ENV), rel=1e-12)
        assert lift_gas_density(CARBON_DIOXIDE, ENV) > lift_gas_density(OXYGEN, ENV)

    def test_rejects_nonpositive_molar_mass(self):
        with pytest.raises(ValueError):
            lift_gas_density(0.0, ENV)

    def test_r_times_t_past_the_float_range(self):
        # R x T overflows, the density does not: 610 * 0.032 / 1e309
        huge = MarsEnvironment(gas_constant=1e308, ambient_temperature=10.0)
        assert lift_gas_density(OXYGEN, huge) == pytest.approx(1.952e-308, rel=1e-6)
        # R x T underflows to zero, so its inverse overflows
        tiny = MarsEnvironment(gas_constant=1e-200, ambient_temperature=1e-200)
        assert lift_gas_density(OXYGEN, tiny) == math.inf


class TestGeometry:
    def test_lifting_volume(self):
        # pi * (7^2 - 3^2) * 6 = 240 pi
        assert lifting_volume(GEOM) == pytest.approx(753.9822368615503, rel=1e-12)

    def test_hull_area_outer_lateral_only(self):
        # 2 pi * 7 * 6 = 84 pi
        area = hull_area(GEOM, AreaModel.OUTER_LATERAL_ONLY)
        assert area == pytest.approx(263.89378290154264, rel=1e-12)

    def test_hull_area_full_wetted(self):
        # 84 pi + 36 pi + 80 pi = 200 pi
        area = hull_area(GEOM, AreaModel.FULL_WETTED)
        assert area == pytest.approx(628.3185307179587, rel=1e-12)

    def test_full_wetted_dominates(self):
        rng = Rng(99)
        for _ in range(200):
            inner = 10.0 * rng.random()
            outer = inner + 0.01 + 10.0 * rng.random()
            length = 0.01 + 20.0 * rng.random()
            g = BalloonGeometry(outer, inner, length)
            assert hull_area(g, AreaModel.FULL_WETTED) >= hull_area(
                g, AreaModel.OUTER_LATERAL_ONLY)

    @pytest.mark.parametrize("kwargs", [
        dict(outer_radius_m=3.0, inner_radius_m=3.0),
        dict(outer_radius_m=2.0, inner_radius_m=3.0),
        dict(inner_radius_m=-1.0),
        dict(tube_length_m=0.0),
    ])
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(ValueError):
            BalloonGeometry(**kwargs)


class TestBuoyancy:
    def test_reference_outer_lateral_is_buoyant(self):
        result = buoyancy_margin(REFERENCE_BALLOON, ENV, AreaModel.OUTER_LATERAL_ONLY)
        assert result.gas_mass_kg == pytest.approx(6.038330078413622, rel=1e-9)
        assert result.hull_mass_kg == pytest.approx(2.6389378290154264, rel=1e-9)
        assert result.tether_mass_kg == pytest.approx(0.4, rel=1e-12)
        assert result.payload_mass_kg == 2.0
        assert result.windmill_mass_kg == 2.0
        assert result.total_mass_kg == pytest.approx(13.077267907429048, rel=1e-9)
        assert result.overall_density_kg_m3 == pytest.approx(0.01734, abs=5e-5)
        assert result.overall_density_kg_m3 < 0.02
        assert result.buoyant
        assert result.net_force_n == pytest.approx(7.450844183693088, rel=1e-9)

    def test_reference_full_wetted_is_not_buoyant(self):
        result = buoyancy_margin(REFERENCE_BALLOON, ENV, AreaModel.FULL_WETTED)
        assert result.hull_mass_kg == pytest.approx(6.283185307179586, rel=1e-9)
        assert result.overall_density_kg_m3 == pytest.approx(0.02218, abs=5e-5)
        assert result.overall_density_kg_m3 > 0.02
        assert not result.buoyant
        assert result.net_force_n < 0.0

    def test_default_area_model_comes_from_config(self):
        result = buoyancy_margin(REFERENCE_BALLOON, ENV)
        assert result.area_model is AreaModel.OUTER_LATERAL_ONLY

    def test_mass_rollup_is_exact(self):
        result = buoyancy_margin(REFERENCE_BALLOON, ENV)
        parts = (result.gas_mass_kg + result.hull_mass_kg + result.tether_mass_kg
                 + result.payload_mass_kg + result.windmill_mass_kg)
        assert result.total_mass_kg == parts  # bit-for-bit, no hidden terms

    def test_neutral_buoyancy_gives_zero_force(self):
        # pick a gas density that makes overall density equal ambient
        base = buoyancy_margin(REFERENCE_BALLOON, ENV)
        deficit = ENV.ambient_density - base.overall_density_kg_m3
        config = BalloonConfig(
            lifting_gas_density_kg_m3=REFERENCE_BALLOON.lifting_gas_density_kg_m3 + deficit)
        result = buoyancy_margin(config, ENV)
        assert result.net_force_n == pytest.approx(0.0, abs=1e-9)
        assert not result.buoyant  # strict inequality

    def test_lighter_gas_lifts_more(self):
        helium = BalloonConfig(gas_molar_mass_kg_mol=HELIUM)
        oxygen = BalloonConfig(gas_molar_mass_kg_mol=OXYGEN)
        lighter = buoyancy_margin(helium, ENV)
        heavier = buoyancy_margin(oxygen, ENV)
        assert lighter.overall_density_kg_m3 < heavier.overall_density_kg_m3
        assert lighter.net_force_n > heavier.net_force_n

    def test_buoyant_flag_matches_force_sign(self):
        rng = Rng(1234)
        for _ in range(1000):
            inner = 5.0 * rng.random()
            geometry = BalloonGeometry(
                outer_radius_m=inner + 0.1 + 8.0 * rng.random(),
                inner_radius_m=inner,
                tube_length_m=0.1 + 10.0 * rng.random(),
            )
            config = BalloonConfig(
                geometry=geometry,
                lifting_gas_density_kg_m3=0.0005 + 0.03 * rng.random(),
                surface_area_weight_kg_m2=0.05 * rng.random(),
                tether_length_m=100.0 * rng.random(),
                tether_weight_per_length_kg_m=0.05 * rng.random(),
                scientific_payload_weight_kg=5.0 * rng.random(),
                windmill_weight_kg=5.0 * rng.random(),
                area_model=AreaModel.FULL_WETTED if rng.chance(0.5)
                else AreaModel.OUTER_LATERAL_ONLY,
            )
            result = buoyancy_margin(config, ENV)
            assert result.buoyant == (result.net_force_n > 0.0)

    def test_ideal_gas_fallback_when_density_unset(self):
        config = BalloonConfig(gas_molar_mass_kg_mol=OXYGEN)
        assert gas_density_for(config, ENV) == pytest.approx(
            lift_gas_density(OXYGEN, ENV), rel=1e-15)
        result = buoyancy_margin(config, ENV)
        assert result.buoyant  # O2 fill still floats under the default model

    @pytest.mark.parametrize("kwargs", [
        dict(lifting_gas_density_kg_m3=0.0),
        dict(lifting_gas_density_kg_m3=-0.01),
        dict(gas_molar_mass_kg_mol=-0.004),
        dict(surface_area_weight_kg_m2=-0.01),
        dict(tether_length_m=-1.0),
        dict(scientific_payload_weight_kg=-2.0),
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            BalloonConfig(**kwargs)


class TestTurbinePower:
    def test_zero_wind_zero_power(self):
        assert turbine_power(0.02, 28.274, 0.0, 0.3) == 0.0

    def test_hand_evaluated_example(self):
        # 0.5 * 0.02 * (pi * 3^2) * 20^3 * 0.3
        power = turbine_power(0.02, math.pi * 9.0, 20.0, 0.3)
        assert power == pytest.approx(678.5840131753953, rel=1e-12)
        assert power == pytest.approx(678.6, abs=0.1)

    def test_cubic_scaling(self):
        base = turbine_power(0.02, 10.0, 5.0, 0.4)
        assert turbine_power(0.02, 10.0, 10.0, 0.4) == pytest.approx(8.0 * base, rel=1e-12)

    def test_betz_limit_is_default_and_ceiling(self):
        assert BETZ_LIMIT == pytest.approx(16.0 / 27.0, rel=1e-15)
        at_limit = turbine_power(1.0, 1.0, 1.0)
        assert at_limit == pytest.approx(0.5 * BETZ_LIMIT, rel=1e-12)
        with pytest.raises(ValueError):
            turbine_power(1.0, 1.0, 1.0, BETZ_LIMIT + 1e-9)

    @pytest.mark.parametrize("kwargs", [
        dict(air_density=-0.01),
        dict(swept_area_m2=-1.0),
        dict(wind_speed_mps=-1.0),
        dict(power_coefficient=-0.1),
    ])
    def test_domain_errors(self, kwargs):
        args = dict(air_density=0.02, swept_area_m2=10.0, wind_speed_mps=5.0,
                    power_coefficient=0.3)
        args.update(kwargs)
        with pytest.raises(ValueError):
            turbine_power(**args)

    def test_zero_coefficient_allowed(self):
        assert turbine_power(0.02, 10.0, 5.0, 0.0) == 0.0
