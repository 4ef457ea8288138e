"""Winch mechanics, SoC simulation, shedding and the load scheduler."""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tubescout.cli import main

from tubescout.energy import (
    DEFAULT_TIMESTEP_S,
    REFERENCE_WINCH,
    Battery,
    PowerLoad,
    PowerSource,
    SocTrace,
    SourceKind,
    WinchSpec,
    schedule_loads,
    simulate_sol,
    sol_problems,
    winch_power,
    winch_regen_energy,
    write_soc_csv,
)
from tubescout.env import MarsEnvironment

from test_energy_kernel import battery_deltas

ENV = MarsEnvironment()
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
RTG = PowerSource("rtg", SourceKind.CONSTANT, rating_w=110.0)
NIGHT_HEATER = PowerLoad("greenhouse_heater", 511.5, (44375.0, 88775.0),
                         priority=2, sheddable=False)


class TestWinch:
    def test_reference_power(self):
        power = winch_power(REFERENCE_WINCH, ENV)
        assert power.raw_kw == pytest.approx(0.7442, rel=1e-12)
        assert power.with_margin_kw == pytest.approx(0.81862, rel=1e-12)
        # within 1% of the published design table
        assert abs(power.raw_kw - 0.746) / 0.746 < 0.01
        assert abs(power.with_margin_kw - 0.820) / 0.820 < 0.01

    def test_reference_regen_energy(self):
        energy = winch_regen_energy(REFERENCE_WINCH, ENV)
        assert energy == pytest.approx(36.17638888888889, rel=1e-12)
        assert abs(energy - 36.24) / 36.24 < 0.01

    def test_power_linear_in_speed(self):
        fast = WinchSpec(line_speed_mps=0.8)
        assert winch_power(fast, ENV).raw_kw == pytest.approx(
            2.0 * winch_power(REFERENCE_WINCH, ENV).raw_kw, rel=1e-12)

    def test_regen_bounded_by_potential_energy(self):
        for eta in (0.0, 0.3, 0.7, 1.0):
            spec = WinchSpec(regen_efficiency=eta)
            lossless = spec.payload_mass_kg * ENV.gravity * spec.depth_m / 3600.0
            assert winch_regen_energy(spec, ENV) <= lossless + 1e-12

    def test_zero_efficiency_zero_energy(self):
        assert winch_regen_energy(WinchSpec(regen_efficiency=0.0), ENV) == 0.0

    def test_lossless_limit(self):
        spec = WinchSpec(regen_efficiency=1.0)
        assert winch_regen_energy(spec, ENV) == pytest.approx(
            500.0 * 3.721 * 100.0 / 3600.0, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(payload_mass_kg=0.0),
        dict(line_speed_mps=-0.4),
        dict(depth_m=0.0),
        dict(motor_margin=-0.1),
        dict(regen_efficiency=1.1),
    ])
    def test_invalid_spec(self, kwargs):
        with pytest.raises(ValueError):
            WinchSpec(**kwargs)


class TestSimulateSol:
    def test_surplus_everywhere_no_violations(self):
        load = PowerLoad("bus", 50.0)
        trace = simulate_sol([RTG], [load], Battery(), ENV)
        assert trace.violations == ()
        assert np.all(np.diff(trace.soc_wh) >= 0.0)
        assert trace.soc_wh[0] == 500.0
        assert trace.final_soc_wh == pytest.approx(1000.0)  # capped at capacity

    def test_paper_baseline_night_is_infeasible(self):
        # RTG alone cannot carry the greenhouse heater through the night
        empty = Battery(capacity_wh=0.0, initial_soc_wh=0.0)
        trace = simulate_sol([RTG], [NIGHT_HEATER], empty, ENV)
        assert len(trace.violations) == 1776  # 44400 s night at 25 s steps
        assert {v.unmet_load_name for v in trace.violations} == {"greenhouse_heater"}
        assert all(v.deficit_w == pytest.approx(401.5) for v in trace.violations)
        times = [v.time_s for v in trace.violations]
        assert times[0] == 44375.0
        assert times[-1] == 88750.0
        assert times == sorted(times)
        # spans the whole night window
        assert times[-1] + trace.timestep_s == ENV.sol_length_s

    def test_closed_system_holds_charge(self):
        trace = simulate_sol([], [], Battery(1000.0, 300.0), ENV)
        assert trace.violations == ()
        assert np.all(trace.soc_wh == 300.0)

    def test_battery_bridges_short_deficit(self):
        # 200 W load for 1000 s against a 110 W RTG: 25 Wh of deficit,
        # easily carried by a half-full default battery
        burst = PowerLoad("drill", 200.0, (10000.0, 11000.0))
        trace = simulate_sol([RTG], [burst], Battery(), ENV)
        assert trace.violations == ()
        assert trace.soc_wh.min() < 500.0 or trace.soc_wh[0] == 500.0

    def test_charge_efficiency_applied(self):
        src = PowerSource("src", rating_w=100.0)
        battery = Battery(capacity_wh=1e6, initial_soc_wh=0.0,
                          charge_efficiency=0.8, discharge_efficiency=1.0)
        trace = simulate_sol([src], [], battery, ENV)
        expect = 100.0 * (ENV.sol_length_s / 3600.0) * 0.8
        assert trace.final_soc_wh == pytest.approx(expect, rel=1e-9)

    def test_discharge_efficiency_applied(self):
        battery = Battery(capacity_wh=1000.0, initial_soc_wh=1000.0,
                          charge_efficiency=1.0, discharge_efficiency=0.8)
        load = PowerLoad("bus", 100.0)
        trace = simulate_sol([], [load], battery, ENV)
        # battery stores 1000 Wh but can deliver only 800 Wh to the load
        delivered = float(np.sum(battery_deltas(trace)[1])) * 0.8
        assert delivered == pytest.approx(800.0, rel=1e-6)
        assert trace.final_soc_wh == pytest.approx(0.0, abs=1e-6)
        assert len(trace.violations) > 0

    def test_soc_stays_in_bounds(self):
        load = PowerLoad("bus", 300.0, (40000.0, 80000.0))
        trace = simulate_sol([RTG], [load], Battery(200.0, 100.0), ENV)
        assert trace.soc_wh.min() >= 0.0
        assert trace.soc_wh.max() <= 200.0 + 1e-9

    def test_energy_closure(self):
        load = PowerLoad("bus", 300.0, (40000.0, 80000.0))
        trace = simulate_sol([RTG], [load], Battery(200.0, 100.0), ENV)
        deltas = np.diff(trace.soc_wh)
        charged_wh, discharged_wh = battery_deltas(trace)
        np.testing.assert_allclose(deltas, charged_wh - discharged_wh,
                                   atol=1e-12)
        n = len(trace.supply_w)
        assert trace.final_soc_wh == pytest.approx(
            trace.soc_wh[0] + float(np.sum(charged_wh))
            - float(np.sum(discharged_wh)), abs=1e-6 * n)

    def test_deterministic_bit_identical(self):
        load = PowerLoad("bus", 300.0, (40000.0, 80000.0))
        a = simulate_sol([RTG], [load], Battery(200.0, 100.0), ENV)
        b = simulate_sol([RTG], [load], Battery(200.0, 100.0), ENV)
        assert np.array_equal(a.soc_wh, b.soc_wh)
        assert a.violations == b.violations

    def test_shedding_order_least_critical_first(self):
        sources = [PowerSource("src", rating_w=100.0)]
        loads = [
            PowerLoad("critical", 80.0, priority=0, sheddable=False),
            PowerLoad("lamp", 50.0, priority=5, sheddable=True),
            PowerLoad("tool", 30.0, priority=3, sheddable=True),
        ]
        trace = simulate_sol(sources, loads, Battery(0.0, 0.0), ENV)
        first_step = [v for v in trace.violations if v.time_s == 0.0]
        assert [(v.unmet_load_name, v.deficit_w) for v in first_step] == [
            ("lamp", 50.0), ("tool", 10.0)]
        assert "critical" not in {name for _, _, name, _, _ in trace.cut_runs()}

    def test_nonsheddable_violated_only_after_sheddable_exhausted(self):
        sources = [PowerSource("src", rating_w=10.0)]
        loads = [
            PowerLoad("critical", 80.0, priority=0, sheddable=False),
            PowerLoad("lamp", 50.0, priority=5, sheddable=True),
        ]
        trace = simulate_sol(sources, loads, Battery(0.0, 0.0), ENV)
        first_step = [v for v in trace.violations if v.time_s == 0.0]
        assert [(v.unmet_load_name, v.deficit_w) for v in first_step] == [
            ("lamp", 50.0), ("critical", 70.0)]

    def test_winch_regen_credit_lands_in_first_step(self):
        regen = PowerSource("winch", SourceKind.WINCH_REGEN, event_energy_wh=100.0)
        battery = Battery(capacity_wh=1e6, initial_soc_wh=0.0,
                          charge_efficiency=1.0, discharge_efficiency=1.0)
        trace = simulate_sol([regen], [], battery, ENV)
        assert trace.supply_w[0] == pytest.approx(100.0 * 3600.0 / DEFAULT_TIMESTEP_S)
        assert trace.supply_w[1] == 0.0
        assert trace.final_soc_wh == pytest.approx(100.0, rel=1e-9)

    def test_trickle_and_wind_behave_as_constant(self):
        wind = PowerSource("turbine", SourceKind.WIND_TURBINE, rating_w=30.0)
        trickle = PowerSource("coating", SourceKind.TRICKLE, rating_w=5.0)
        trace = simulate_sol([wind, trickle], [], Battery(1e6, 0.0, 1.0, 1.0), ENV)
        assert np.all(trace.supply_w == 35.0)

    @pytest.mark.parametrize("timestep", [0.0, -25.0, 60.0, 1000.0])
    def test_bad_timestep_rejected(self, timestep):
        with pytest.raises(ValueError):
            simulate_sol([RTG], [], Battery(), ENV, timestep_s=timestep)

    def test_valid_alternate_timestep(self):
        trace = simulate_sol([RTG], [], Battery(), ENV, timestep_s=5.0)
        assert len(trace.supply_w) == 17755

    def test_duplicate_load_names_rejected(self):
        loads = [PowerLoad("x", 1.0), PowerLoad("x", 2.0)]
        with pytest.raises(ValueError):
            simulate_sol([RTG], loads, Battery(), ENV)

    def test_window_past_sol_rejected(self):
        load = PowerLoad("late", 10.0, (80000.0, 90000.0))
        with pytest.raises(ValueError):
            simulate_sol([RTG], [load], Battery(), ENV)

    def test_no_source_empty_battery_sheds_every_step(self):
        """The kernel serves what it has: nothing, so the load is shed in
        full at every step. Only a configured scenario is refused."""
        trace = simulate_sol([], [PowerLoad("bus", 10.0)], Battery(1000.0, 0.0), ENV)
        assert np.all(trace.soc_wh == 0.0)
        # one run of cuts of the whole load, from step 0 through step 3550
        assert list(trace.cut_runs()) == [(0, 3551, "bus", False, 10.0)]

    def test_every_problem_named_by_argument_index_and_field(self):
        loads = [PowerLoad("a", 1.0), PowerLoad("b", 1.0, (0.0, 90000.0)),
                 PowerLoad("a", 2.0)]
        sources = [PowerSource("regen")]
        problems = list(sol_problems(sources, loads, ENV, 60.0,
                                     {"regen": "the caller's source"}))
        assert problems == [
            ("timestep_s", None, None,
             "timestep 60.0 s does not divide the 88775 s sol evenly"),
            ("sources", 0, "name",
             "duplicate name 'regen' (also the caller's source)"),
            ("loads", 2, "name", "duplicate name 'a' (also loads[0])"),
            ("loads", 1, "window",
             "window [0.0, 90000.0] ends past the 88775 s sol")]
        assert list(sol_problems([], loads[:1], ENV, 25.0)) == []

    def test_sol_work_bounded(self):
        """24 always-on loads, the largest benchmark case, fit at 25 s
        steps; at 1 s steps their scheduler work is over the bound."""
        loads = [PowerLoad(f"l{k}", 1.0) for k in range(24)]
        assert list(sol_problems([RTG], loads, ENV, 25.0)) == []
        assert list(sol_problems([RTG], loads, ENV, 1.0)) == [
            ("loads", None, None, "sol work (loads + 2) x sol steps x "
             "(loads + 1) = 26 x 88775 x 25 = 57703750 exceeds 42000000")]

    def test_first_problem_raised_with_its_argument(self):
        loads = [PowerLoad("a", 1.0), PowerLoad("a", 2.0)]
        with pytest.raises(ValueError, match=r"^loads\[1\]\.name: duplicate "
                                             r"name 'a' \(also loads\[0\]\)$"):
            schedule_loads([RTG], loads, Battery(), ENV, 25.0)

    @pytest.mark.parametrize("kwargs", [
        dict(capacity_wh=-1.0),
        dict(initial_soc_wh=1500.0),
        dict(charge_efficiency=0.0),
        dict(discharge_efficiency=1.5),
    ])
    def test_invalid_battery(self, kwargs):
        with pytest.raises(ValueError):
            Battery(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(name=""),
        dict(power_w=-5.0),
        dict(window=(100.0, 100.0)),
        dict(window=(-1.0, 100.0)),
    ])
    def test_invalid_load(self, kwargs):
        args = dict(name="x", power_w=1.0)
        args.update(kwargs)
        with pytest.raises(ValueError):
            PowerLoad(**args)


class TestSupplyPastTheFloatRange:
    """A supply past the float range would meet a demand past it in a NaN
    surplus, which neither charges nor sheds, so the sol refuses it."""

    @pytest.mark.parametrize("sources", [
        [PowerSource("a", rating_w=1e308), PowerSource("b", rating_w=1e308)],
        [RTG, PowerSource("regen", SourceKind.WINCH_REGEN, event_energy_wh=1e308)],
    ])
    def test_refused(self, sources):
        with pytest.raises(ValueError, match="sources: the supply overflows"):
            simulate_sol(sources, [], Battery(), ENV)
        with pytest.raises(ValueError, match="sources: the supply overflows"):
            schedule_loads(sources, [], Battery(), ENV)

    def test_an_infinite_regeneration_credit_runs(self):
        """The mission reports the credit itself, so the report refuses it."""
        regen = PowerSource("regen", SourceKind.WINCH_REGEN,
                            event_energy_wh=float("inf"))
        trace = simulate_sol([RTG, regen], [], Battery(), ENV)
        assert trace.final_soc_wh == Battery().capacity_wh


class TestScheduleLoads:
    def test_heater_rejected_under_rtg_only(self):
        avionics = PowerLoad("avionics", 40.0, priority=0, sheddable=False)
        battery = Battery(capacity_wh=100.0, initial_soc_wh=50.0)
        result = schedule_loads([RTG], [avionics, NIGHT_HEATER], battery, ENV)
        assert [l.name for l in result.admitted] == ["avionics"]
        assert result.verdicts == {"avionics": True, "greenhouse_heater": False}
        assert not result.feasible
        assert result.trace.violations == ()

    def test_empty_load_list_is_feasible(self):
        result = schedule_loads([RTG], [], Battery(), ENV)
        assert result.feasible
        assert result.admitted == ()

    def test_all_admitted_when_supply_ample(self):
        loads = [
            PowerLoad("a", 30.0, priority=1, sheddable=False),
            PowerLoad("b", 40.0, priority=0, sheddable=False),
        ]
        result = schedule_loads([RTG], loads, Battery(), ENV)
        assert result.feasible
        # admitted in ascending priority order
        assert [l.name for l in result.admitted] == ["b", "a"]

    def test_order_invariant_under_permutation(self):
        loads = [
            PowerLoad("alpha", 60.0, priority=1, sheddable=False),
            PowerLoad("beta", 60.0, priority=1, sheddable=False),
            PowerLoad("gamma", 60.0, priority=1, sheddable=False),
        ]
        battery = Battery(capacity_wh=10.0, initial_soc_wh=10.0)
        forward = schedule_loads([RTG], loads, battery, ENV)
        backward = schedule_loads([RTG], list(reversed(loads)), battery, ENV)
        assert [l.name for l in forward.admitted] == [l.name for l in backward.admitted]
        assert forward.verdicts == backward.verdicts

    def test_admitted_set_never_violates_hard_loads(self):
        loads = [
            PowerLoad("avionics", 40.0, priority=0, sheddable=False),
            PowerLoad("station", 60.0, priority=1, sheddable=False),
            PowerLoad("heater", 511.5, (44375.0, 88775.0), priority=2, sheddable=False),
            PowerLoad("lab", 120.0, (20000.0, 30000.0), priority=4, sheddable=True),
        ]
        result = schedule_loads([RTG], loads, Battery(), ENV)
        hard = {l.name for l in result.admitted if not l.sheddable}
        assert not ({name for _, _, name, _, _ in result.trace.cut_runs()} & hard)


def test_write_soc_csv(tmp_path):
    load = PowerLoad("bus", 50.0)
    trace = simulate_sol([RTG], [load], Battery(), ENV)
    out = tmp_path / "soc.csv"
    write_soc_csv(out, trace)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time_s,soc_wh,supply_w,demand_w,shed_w"
    assert len(lines) == 1 + len(trace.supply_w)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == 110.0
    assert float(first[3]) == 50.0


@pytest.mark.parametrize("timestep_s", [1.25, 25.0])
def test_write_soc_csv_times_are_exact(tmp_path, timestep_s):
    """Every row's time reads back as i * timestep_s; at 1.25 s steps,
    6 significant digits would print 10001.25 s as 10001.2."""
    trace = simulate_sol([RTG], [PowerLoad("bus", 50.0)], Battery(), ENV,
                         timestep_s)
    out = tmp_path / "soc.csv"
    write_soc_csv(out, trace)
    with open(out, newline="") as fh:
        times = [row["time_s"] for row in csv.DictReader(fh)]
    assert len(times) == round(ENV.sol_length_s / timestep_s)
    assert [float(t) for t in times] == [i * timestep_s for i in range(len(times))]
    # Rows that 6 significant digits give exactly keep that text.
    assert times[:3] == ["0", f"{timestep_s:g}", f"{2 * timestep_s:g}"]


def test_write_soc_csv_reads_each_derived_array_once(tmp_path, monkeypatch):
    """``supply_w`` and ``demand_w`` build a new array on every read: the
    writer reads each once, not once a row."""
    trace = simulate_sol([RTG], [PowerLoad("bus", 50.0), NIGHT_HEATER],
                         Battery(), ENV)
    reads = []
    for name in ("supply_w", "demand_w"):
        derive = getattr(SocTrace, name).fget
        monkeypatch.setattr(SocTrace, name, property(
            lambda self, name=name, derive=derive:
                reads.append(name) or derive(self)))
    write_soc_csv(tmp_path / "soc.csv", trace)
    assert sorted(reads) == ["demand_w", "supply_w"]


#: A ``power_sweep`` benchmark input that sheds and rejects ``load_01``.
SHEDDING_POWER_CONFIG = {"power": {
    "battery": {"capacity_wh": 1279.8, "initial_soc_wh": 1023.8},
    "loads": [
        {"name": "load_00", "power_w": 69.5, "priority": 9, "sheddable": False,
         "window_s": [56777.8, 71607.8]},
        {"name": "load_01", "power_w": 294.3, "priority": 0, "sheddable": False,
         "window_s": [64784.8, 88775.0]},
        {"name": "load_02", "power_w": 59.9, "priority": 4, "sheddable": False,
         "window_s": [15000.0, 23552.7]},
        {"name": "load_03", "power_w": 116.7, "priority": 2, "sheddable": True,
         "window_s": [41103.1, 56558.7]}],
    "sources": [
        {"kind": "constant", "name": "rtg", "rating_w": 43.3},
        {"kind": "wind_turbine", "name": "balloon_turbine", "rating_w": 28.8}],
    "timestep_s": 25.0}}


@pytest.mark.parametrize("config, digest", [
    ("paper_baseline",
     "207a0acbd0a83b4d611a3268da7aef62622587f3fbed43b8df76880860d5ec8d"),
    ("cold_extreme",
     "54823bfaf6b7abdfab14955c40a37d265fc4907bb3f15c50b169a69fa80236c3"),
    ("two_tube_mission",
     "a2d15fc08cdf5d1d449c75e8689f4a0ae4b9d984740c1da0442936ec25bf2c62"),
    (SHEDDING_POWER_CONFIG,
     "c1348034c6ea0a0e49ce87618da7514b818855332f7f462973d7448fd0e35552"),
])
def test_soc_trace_csv_bytes_are_pinned(config, digest, tmp_path):
    """``power --format csv`` writes these ``soc_trace.csv`` bytes, as the
    kernel wrote them when it stored a demand array per step."""
    if isinstance(config, str):
        path = SCENARIOS / f"{config}.json"
    else:
        path = tmp_path / "power.json"
        path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["power", "--config", str(path), "--format", "csv",
                 "--out", str(out)]) == 0
    data = (out / "soc_trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
