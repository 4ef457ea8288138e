"""Acceptance gate: eleven numbered criteria against the baseline design.

Each test checks one criterion at its stated tolerance and records a
single PASS/FAIL line (printed immediately and echoed in the terminal
summary). The expected numbers are the published baseline design values;
exact-match criteria use integer equality, physical quantities use the
stated relative tolerances.
"""

from pathlib import Path

import numpy as np

from tubescout.aerostat import (
    AreaModel,
    REFERENCE_BALLOON,
    buoyancy_margin,
    lift_gas_density,
)
from tubescout.config import load_config
from tubescout.energy import REFERENCE_WINCH, winch_power, winch_regen_energy
from tubescout.env import MarsEnvironment, cumulative_dose, make_environment
from tubescout.mission import germination_trial
from tubescout.program import (
    DEFAULT_LAUNCH_YEAR,
    DEFAULT_PAYLOADS,
    DEFAULT_PHASES,
    DEFAULT_WBS,
    BudgetLimits,
    LifecyclePhase,
    fte_estimate,
    rollup_budget,
    rollup_cost,
    validate_schedule,
)
from tubescout.report import aerostat_section, dump_json, exploration_section, power_section
from tubescout.thermal import REFERENCE_GREENHOUSE, heat_loss, night_heating_energy
from tubescout.tube_explorer import (
    TubeWorld,
    coverage_fraction,
    generate_tube,
    make_fleet,
    run_exploration,
    step,
)

from test_explorer_kernel import flood_fill
from test_program import find_node

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def rel_err(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


def test_criterion_01_winch_power_and_regen(record_criterion):
    env = MarsEnvironment()
    power = winch_power(REFERENCE_WINCH, env)
    regen = winch_regen_energy(REFERENCE_WINCH, env)
    ok = (rel_err(power.raw_kw, 0.746) <= 0.01
          and rel_err(power.with_margin_kw, 0.820) <= 0.01
          and rel_err(regen, 36.24) <= 0.01)
    record_criterion(
        1, ok,
        f"winch hoist {power.raw_kw:.4f}/{power.with_margin_kw:.4f} kW vs "
        f"0.746/0.820 within 1%; regen {regen:.2f} Wh vs 36.24 within 1%")
    assert ok


def test_criterion_02_greenhouse_heat_loss_and_night_energy(record_criterion):
    env = MarsEnvironment()
    loss_w = heat_loss(REFERENCE_GREENHOUSE, env.night_low_c)
    night_kwh = night_heating_energy(REFERENCE_GREENHOUSE, env)
    ok = (rel_err(loss_w, 511.5) <= 0.001
          and rel_err(night_kwh, 6.308) <= 0.01)
    record_criterion(
        2, ok,
        f"greenhouse trough loss {loss_w:.1f} W vs 511.5 within 0.1%; "
        f"night energy {night_kwh:.3f} kWh vs 6.308 within 1%")
    assert ok


def test_criterion_03_cost_rollup_exact(record_criterion):
    expected = {
        "mastcam_z": 193_500,
        "rimfax": 500_000,
        "mycotecture": 2_104_100,
        "deployable_greenhouse": 2_106_600,
        "wind_power_balloon": 2_107_350,
    }
    subtotals = {name: rollup_cost(find_node(DEFAULT_WBS, name))
                 for name in expected}
    total = rollup_cost(DEFAULT_WBS)
    ok = total == 181_417_003 and subtotals == expected
    record_criterion(
        3, ok,
        f"cost rollup total {total:,} == 181,417,003 and all five "
        "named subtrees match exactly")
    assert ok, (total, subtotals)


def test_criterion_04_fte_total_exact(record_criterion):
    total = fte_estimate(600, 10, 220)
    ok = total == 1_320_000
    record_criterion(4, ok, f"staffing total {total:,} == 1,320,000 "
                            "for 600 people over 10 years at 220")
    assert ok


def test_criterion_05_buoyancy_verdict_split_by_area_model(record_criterion):
    env = make_environment()
    lateral = buoyancy_margin(REFERENCE_BALLOON, env,
                              area_model=AreaModel.OUTER_LATERAL_ONLY)
    wetted = buoyancy_margin(REFERENCE_BALLOON, env,
                             area_model=AreaModel.FULL_WETTED)
    _, findings = aerostat_section(REFERENCE_BALLOON, env)
    gas = lift_gas_density(REFERENCE_BALLOON.gas_molar_mass_kg_mol, env)
    ok = (lateral.overall_density_kg_m3 < 0.0200
          and lateral.buoyant
          and wetted.overall_density_kg_m3 > 0.0200
          and not wetted.buoyant
          and any(f.kind == "discrepancy_vs_paper" for f in findings)
          and rel_err(gas, 0.008008584) <= 0.005)
    record_criterion(
        5, ok,
        f"outer-lateral density {lateral.overall_density_kg_m3:.5f} < 0.0200 "
        f"buoyant; full-wetted {wetted.overall_density_kg_m3:.5f} > 0.0200 "
        f"with discrepancy finding; fill-gas density {gas:.9f} within 0.5% "
        "of 0.008008584")
    assert ok


def test_criterion_06_radiation_endpoints_and_linearity(record_criterion):
    env = MarsEnvironment()
    surface = cumulative_dose(env, 0.0, 1.0)
    cave = cumulative_dose(env, 1.0, 1.0)
    mix = cumulative_dose(env, 0.5, 1.0)
    linear = all(
        rel_err(
            cumulative_dose(env, fraction, periods),
            periods * (fraction * env.dose_cave_msv
                       + (1.0 - fraction) * env.dose_surface_msv),
        ) <= 1e-12
        for fraction in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0)
        for periods in (0.5, 1.0, 3.0, 100.0)
    )
    ok = (surface == 14.795 and cave == 0.012
          and rel_err(mix, 7.4035) <= 1e-12 and linear)
    record_criterion(
        6, ok,
        f"dose endpoints {surface}/{cave} mSv exact; 50/50 mix {mix} "
        "== 7.4035; linear in fraction and duration to 1e-12")
    assert ok


def test_criterion_07_baseline_night_power_infeasible(record_criterion):
    config = load_config(SCENARIOS / "paper_baseline.json")
    loads = [tagged.load for tagged in config.loads]
    _, findings, _ = power_section(list(config.sources), loads,
                                   config.battery, config.env,
                                   config.timestep_s)
    infeasible = [f for f in findings if f.kind == "infeasible"]
    ok = False
    detail = "no infeasibility finding"
    if infeasible:
        data = infeasible[0].data
        span_s = (data["last_violation_s"] - data["first_violation_s"]
                  + config.timestep_s)
        ok = (data["first_violation_s"] == config.env.night_start_s
              and span_s == config.env.night_duration_s
              and data["max_deficit_w"] > 0)
        detail = (f"unserved night load from t={data['first_violation_s']:.0f} s "
                  f"spanning {span_s:.0f} s == full {config.env.night_duration_s:.0f} s "
                  f"night, deficit {data['max_deficit_w']:.1f} W")
    record_criterion(7, ok, detail)
    assert ok


def test_criterion_08_exploration_properties_on_random_maps(record_criterion):
    checked = 0
    for seed in range(100):
        grid = generate_tube(seed, 8, 8, 0.25)
        oracle = flood_fill(grid.cells)
        world = TubeWorld(grid=grid.copy())
        fleet = make_fleet(grid, 2, battery_full_s=36000.0)
        for robot in fleet:
            world.grid.explored[robot.position] = True
        previous = coverage_fraction(world.grid)
        for _ in range(600):
            world, fleet = step(world, fleet)
            current = coverage_fraction(world.grid)
            assert current >= previous, f"coverage regressed on seed {seed}"
            targets = [r.target for r in fleet if r.target is not None]
            assert len(targets) == len(set(targets)), \
                f"duplicate frontier claim on seed {seed}"
            previous = current
            if current == 1.0:
                break
        assert previous == 1.0, f"incomplete coverage on seed {seed}"
        explored = {tuple(int(x) for x in cell)
                    for cell in np.argwhere(world.grid.explored)}
        assert explored == oracle, f"explored set != oracle on seed {seed}"
        checked += 1

    def report_bytes(seed: int) -> bytes:
        grid = generate_tube(seed, 8, 8, 0.25)
        result = run_exploration(grid, make_fleet(grid, 2,
                                                  battery_full_s=36000.0))
        section, _ = exploration_section(result, grid)
        return dump_json(section).encode()

    repeatable = all(report_bytes(seed) == report_bytes(seed)
                     for seed in range(0, 100, 10))
    ok = checked == 100 and repeatable
    record_criterion(
        8, ok,
        f"{checked}/100 random 8x8 maps: full coverage, explored set == "
        "flood-fill oracle, monotone coverage, exclusive claims; reports "
        "byte-identical across reruns")
    assert ok


def test_criterion_09_payload_budget(record_criterion):
    result = rollup_budget(DEFAULT_PAYLOADS, BudgetLimits())
    ok = (result.total_mass_kg == 277.0
          and result.passes
          and abs(result.total_mass_kg - 270.0) / 270.0 <= 0.10)
    record_criterion(
        9, ok,
        f"payload mass {result.total_mass_kg:.0f} kg == 277, within 10% of "
        "the 270 kg design figure, passes the 1000 kg limit")
    assert ok


def test_criterion_10_schedule_validation(record_criterion):
    base = validate_schedule(DEFAULT_PHASES, DEFAULT_LAUNCH_YEAR, 2033)
    inversions_rejected = True
    for i in range(len(DEFAULT_PHASES) - 1):
        phases = list(DEFAULT_PHASES)
        a, b = phases[i], phases[i + 1]
        phases[i] = LifecyclePhase(code=a.code, start_year=b.start_year + 1)
        check = validate_schedule(tuple(phases), DEFAULT_LAUNCH_YEAR, 2033)
        if check.ok or not any(f.rule == "ordering" for f in check.findings):
            inversions_rejected = False
    late = validate_schedule(DEFAULT_PHASES, 2034, 2033)
    ok = (base.ok and inversions_rejected and not late.ok
          and any(f.rule == "deadline" for f in late.findings))
    record_criterion(
        10, ok,
        "baseline phase starts with 2033 launch validate; every adjacent "
        "start inversion and a post-deadline launch are rejected")
    assert ok


def test_criterion_11_germination_rate(record_criterion):
    seeds = (0, 1, 7, 42, 1234, 2**31, 2**40 + 99)
    rates = []
    for seed in seeds:
        trial = germination_trial(10_000, 0.7, seed)
        rates.append(trial.germinated / trial.n_seeds)
    ok = all(abs(rate - 0.7) <= 0.02 for rate in rates)
    record_criterion(
        11, ok,
        f"germination of 10,000 seeds at p=0.7: rates "
        f"{min(rates):.4f}..{max(rates):.4f} across {len(seeds)} seeds, "
        "all within 0.7 +/- 0.02")
    assert ok, rates
