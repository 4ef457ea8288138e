"""Reading shed power one run at a time.

``SocTrace.cut_runs`` applies ``energy._cuts`` once per run of equal shed
power within a stretch of constant active loads. ``per_step_cuts`` is the
per-step walk it replaced, kept here only as an oracle: it applies
``_cuts`` at every shed step. The runs must expand to exactly its cuts,
in the same order, with the same floats and times, and the power report
and each mission sol must count the same cuts.
"""

import random
from pathlib import Path

import numpy as np
import pytest

from tubescout import energy, mission
from tubescout.config import MissionConfig, MissionSettings, TaggedLoad, load_config
from tubescout.energy import (
    Battery,
    PowerLoad,
    PowerSource,
    SocTrace,
    SourceKind,
    _cuts,
    _entry,
    simulate_sol,
)
from tubescout.env import MarsEnvironment
from tubescout.report import power_section

from test_mission_sols import logged_sol_traces

ENV = MarsEnvironment()
SOL_S = ENV.sol_length_s
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def per_step_cuts(trace):
    """(time_s, name, sheddable, deficit_w) for each cut, step by step."""
    n_steps = len(trace.shed_w)
    order = [_entry(l, trace.timestep_s, n_steps) for l in trace.shed_order]
    steps = np.flatnonzero(trace.shed_w)
    shed = zip(steps.tolist(), trace.shed_w[steps].tolist())
    return [(i * trace.timestep_s, name, sheddable, deficit_w)
            for i, name, sheddable, deficit_w in _cuts(order, shed)]


def assert_runs_expand_to_per_step_cuts(trace):
    expected = per_step_cuts(trace)
    cuts = list(trace.cuts())
    assert cuts == expected
    assert [tuple(map(type, cut)) for cut in cuts] == \
        [tuple(map(type, cut)) for cut in expected]
    runs = list(trace.cut_runs())
    assert sum(n for _, n, *_ in runs) == len(expected)
    # Each run covers consecutive steps with the same cuts.
    covered = {}
    for i, n, name, sheddable, deficit_w in runs:
        assert n >= 1
        for step in range(i, i + n):
            covered.setdefault(step, []).append((name, sheddable, deficit_w))
    per_step = {}
    for time_s, name, sheddable, deficit_w in expected:
        per_step.setdefault(round(time_s / trace.timestep_s), []).append(
            (name, sheddable, deficit_w))
    assert covered == per_step
    assert {name for _, _, name, _, _ in runs} == {name for _, name, _, _ in expected}
    assert [(v.time_s, v.unmet_load_name, v.deficit_w) for v in trace.violations] \
        == [(t, name, d) for t, name, _, d in expected]
    return runs


def power_sweep_case(rng: random.Random, n_loads: int):
    """Windowed loads, a fifth always on, on a sol supplied below their
    mean demand, from a battery that may start empty."""
    loads = []
    for k in range(n_loads):
        window = None
        if rng.random() >= 0.2:
            start = rng.uniform(0.0, SOL_S - 2000.0)
            window = (start, min(SOL_S, start + rng.uniform(2000.0, 40000.0)))
        loads.append(PowerLoad(f"l{k:02d}", rng.uniform(20.0, 300.0), window,
                               priority=rng.randrange(10),
                               sheddable=rng.random() < 0.4))
    mean_w = sum(l.power_w * (SOL_S if l.window is None else
                              l.window[1] - l.window[0]) for l in loads) / SOL_S
    sources = [PowerSource("rtg", rating_w=rng.choice((0.3, 0.65, 0.9)) * mean_w)]
    initial = rng.choice((0.0, 0.5, 6.4)) * mean_w
    return sources, loads, Battery(8.0 * mean_w, initial)


@pytest.mark.parametrize("seed", range(24))
def test_runs_expand_to_per_step_cuts_on_seeded_load_sets(seed):
    rng = random.Random(seed)
    sources, loads, battery = power_sweep_case(rng, rng.randrange(4, 25))
    timestep_s = rng.choice((25.0, 25.0, 355.1, 1775.5))
    trace = simulate_sol(sources, loads, battery, ENV, timestep_s)
    assert_runs_expand_to_per_step_cuts(trace)


def test_seeded_load_sets_shed_in_runs_longer_than_one_step():
    """The seeded sets shed, and most of their shed steps sit in runs of
    more than one step, so the expansion above is tested."""
    shed_steps = runs = 0
    for seed in range(24):
        rng = random.Random(seed)
        sources, loads, battery = power_sweep_case(rng, rng.randrange(4, 25))
        trace = simulate_sol(sources, loads, battery, ENV, 25.0)
        shed_steps += int(np.count_nonzero(trace.shed_w))
        runs += len({i for i, *_ in trace.cut_runs()})
    assert shed_steps > 10 * runs > 0


def test_equal_shed_on_both_sides_of_an_edge_is_two_runs():
    """One 50 W load hands over to another at step 40 on an empty battery:
    the shed power stays 50 W, but the load cut changes at the edge."""
    loads = [PowerLoad("a", 50.0, (0.0, 1000.0), sheddable=True),
             PowerLoad("b", 50.0, (1000.0, 2000.0))]
    trace = simulate_sol([PowerSource("rtg", rating_w=0.0)], loads,
                         Battery(0.0, 0.0), ENV, 25.0)
    assert set(trace.shed_w[:80]) == {50.0} and not trace.shed_w[80:].any()
    runs = assert_runs_expand_to_per_step_cuts(trace)
    assert runs == [(0, 40, "a", True, 50.0), (40, 40, "b", False, 50.0)]


def test_a_handover_to_two_loads_breaks_the_run():
    """At step 40 one 50 W load hands over to a 20 W and a 30 W load: the
    shed power stays 50 W, but it is cut from two other loads."""
    loads = [PowerLoad("a", 50.0, (0.0, 1000.0), sheddable=True),
             PowerLoad("b", 20.0, (1000.0, 2000.0), priority=1),
             PowerLoad("c", 30.0, (1000.0, 2000.0), sheddable=True)]
    trace = simulate_sol([PowerSource("rtg", rating_w=0.0)], loads,
                         Battery(0.0, 0.0), ENV, 25.0)
    assert set(trace.shed_w[:80]) == {50.0}
    runs = assert_runs_expand_to_per_step_cuts(trace)
    assert runs == [(0, 40, "a", True, 50.0), (40, 40, "c", True, 30.0),
                    (40, 40, "b", False, 20.0)]


def test_a_zero_watt_load_splits_a_run_into_equal_cuts():
    """A load of 0 W changes no cut, but its edges still start runs."""
    loads = [PowerLoad("heater", 100.0), PowerLoad("idle", 0.0, (500.0, 1500.0))]
    trace = simulate_sol([PowerSource("rtg", rating_w=40.0)], loads,
                         Battery(0.0, 0.0), ENV, 25.0)
    runs = assert_runs_expand_to_per_step_cuts(trace)
    n_steps = round(SOL_S / 25.0)
    assert runs == [(0, 20, "heater", False, 60.0), (20, 40, "heater", False, 60.0),
                    (60, n_steps - 60, "heater", False, 60.0)]


def test_gaps_between_shed_steps_start_new_runs():
    """Two equal loads with a gap between their windows: equal shed power,
    equal cuts, but not consecutive steps."""
    loads = [PowerLoad("x", 80.0, (0.0, 100.0)),
             PowerLoad("y", 80.0, (200.0, 300.0))]
    trace = simulate_sol([PowerSource("rtg", rating_w=0.0)], loads,
                         Battery(0.0, 0.0), ENV, 25.0)
    assert np.flatnonzero(trace.shed_w).tolist() == [0, 1, 2, 3, 8, 9, 10, 11]
    runs = assert_runs_expand_to_per_step_cuts(trace)
    assert runs == [(0, 4, "x", False, 80.0), (8, 4, "y", False, 80.0)]
    # A gap within one load's window: a second window of the same load set.
    loads = [PowerLoad("x", 80.0, (0.0, 100.0)), PowerLoad("z", 80.0, (150.0, 200.0))]
    trace = simulate_sol([PowerSource("rtg", rating_w=0.0)], loads,
                         Battery(0.0, 0.0), ENV, 25.0)
    assert [run[:2] for run in assert_runs_expand_to_per_step_cuts(trace)] == \
        [(0, 4), (6, 2)]


def test_a_gap_in_equal_shed_within_a_stretch_starts_a_new_run():
    """A sol does not shed, stop and shed the same power again between two
    edges, but a run is still only ever consecutive steps."""
    shed_w = np.array([5.0, 5.0, 0.0, 5.0, 5.0, 0.0])
    trace = SocTrace(timestep_s=25.0, soc_wh=np.zeros(len(shed_w) + 1),
                     demand_w=np.zeros(len(shed_w)), shed_w=shed_w,
                     base_supply_w=0.0, first_supply_w=0.0,
                     shed_order=(PowerLoad("lamp", 10.0),))
    runs = assert_runs_expand_to_per_step_cuts(trace)
    assert runs == [(0, 2, "lamp", False, 5.0), (3, 2, "lamp", False, 5.0)]


@pytest.mark.parametrize("regen_wh, runs", [
    # Without a credit, step 0 sheds what step 1 does and starts its run.
    (0.0, [(0, 10, "lamp", True, 60.0), (0, 10, "pump", False, 10.0)]),
    # A credit that covers part of step 0 sheds less there.
    (0.1, [(0, 1, "lamp", True, 55.599999999999994),
           (1, 9, "lamp", True, 60.0), (1, 9, "pump", False, 10.0)]),
    # A tiny credit still moves step 0's shed power, and its last cut.
    (1e-12, [(0, 1, "lamp", True, 60.0), (0, 1, "pump", False, 9.999999999856001),
             (1, 9, "lamp", True, 60.0), (1, 9, "pump", False, 10.0)]),
    # A credit that covers all of step 0 sheds nothing there.
    (0.5, [(1, 9, "lamp", True, 60.0), (1, 9, "pump", False, 10.0)]),
])
def test_winch_regeneration_at_step_0(regen_wh, runs):
    sources = [PowerSource("rtg", rating_w=0.0)]
    if regen_wh:
        sources.append(PowerSource("regen", SourceKind.WINCH_REGEN,
                                   event_energy_wh=regen_wh))
    loads = [PowerLoad("lamp", 60.0, (0.0, 250.0), sheddable=True),
             PowerLoad("pump", 10.0, (0.0, 250.0))]
    trace = simulate_sol(sources, loads, Battery(0.0, 0.0), ENV, 25.0)
    assert assert_runs_expand_to_per_step_cuts(trace) == runs


def test_worst_case_sheds_in_one_run():
    """The sol work bound's worst case, 20 always-on sheddable loads on an
    empty battery at 1 s steps, sheds the same power at every step: one
    run, and ``_cuts`` walked once for it."""
    loads = [PowerLoad(f"l{k:02d}", 50.0, sheddable=True) for k in range(20)]
    trace = simulate_sol([PowerSource("rtg", rating_w=1.0)], loads,
                         Battery(1000.0, 0.0), ENV, 1.0)
    runs = list(trace.cut_runs())
    assert {(i, n) for i, n, *_ in runs} == {(0, round(SOL_S))}
    deficits = [d for *_, d in runs]
    assert deficits[:19] == [50.0] * 19 and deficits[19] == pytest.approx(49.0)


def test_a_walk_applies_the_shed_rule_once_per_run(monkeypatch):
    walked = []

    def counted(order, shed):
        shed = list(shed)
        walked.extend(shed)
        return _cuts(order, shed)

    sources, loads, battery = power_sweep_case(random.Random(9), 16)
    trace = simulate_sol(sources, loads, battery, ENV, 25.0)
    monkeypatch.setattr(energy, "_cuts", counted)
    starts = {i for i, *_ in trace.cut_runs()}
    assert sorted(i for i, _ in walked) == sorted(starts)
    assert 0 < 10 * len(starts) < np.count_nonzero(trace.shed_w)


def reference_power_counts(trace):
    """The power report's counts as its per-step walk gave them."""
    count = hard_count = 0
    unmet, hard_loads = set(), set()
    first_s = last_s = max_deficit_w = None
    for time_s, name, sheddable, deficit_w in per_step_cuts(trace):
        count += 1
        unmet.add(name)
        if not sheddable:
            if not hard_count:
                first_s, max_deficit_w = time_s, deficit_w
            hard_count += 1
            hard_loads.add(name)
            last_s = time_s
            max_deficit_w = max(max_deficit_w, deficit_w)
    return count, sorted(unmet), hard_count, first_s, last_s, max_deficit_w, \
        sorted(hard_loads)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("timestep_s", [25.0, 355.1])
def test_power_section_counts_match_the_per_step_cuts(seed, timestep_s):
    rng = random.Random(seed)
    sources, loads, battery = power_sweep_case(rng, rng.randrange(4, 25))
    section, findings, trace = power_section(tuple(sources), tuple(loads),
                                             battery, ENV, timestep_s)
    count, unmet, hard_count, first_s, last_s, max_deficit_w, hard_loads = \
        reference_power_counts(trace)
    assert section["violation_count"] == count == len(list(trace.cuts()))
    assert section["unmet_loads"] == unmet
    assert section["feasible"] == (hard_count == 0)
    if hard_count:
        data = findings[0].data
        assert data["violation_count"] == hard_count
        assert repr(data["first_violation_s"]) == repr(first_s)
        assert repr(data["last_violation_s"]) == repr(last_s)
        assert repr(data["max_deficit_w"]) == repr(max_deficit_w)
        assert data["loads"] == hard_loads
    else:
        assert findings == []


def mission_traces(config):
    """Run a mission and return its sol log and each logged sol's trace,
    simulated afresh from the inputs the entry names: a repeated sol
    takes an earlier sol's numbers, so the mission's own calls do not
    give one trace per sol."""
    sol_log = mission.run_mission(config)["mission"]["sol_log"]
    return sol_log, list(logged_sol_traces(config, sol_log))


@pytest.mark.parametrize("scenario", ["paper_baseline", "cold_extreme",
                                      "two_tube_mission"])
def test_mission_sol_log_counts_match_the_per_step_cuts(scenario):
    sol_log, traces = mission_traces(load_config(SCENARIOS / f"{scenario}.json"))
    assert len(sol_log) == len(traces)
    for sol, trace in zip(sol_log, traces):
        cuts = list(trace.cuts())
        assert cuts == per_step_cuts(trace)
        assert sol["violations"] == len(cuts)
        assert sol["hard_violations"] == sum(not sheddable
                                             for _, _, sheddable, _ in cuts)


def test_mission_counts_sheddable_and_hard_cuts_apart():
    heater = TaggedLoad("heater", 511.5, (44375.0, 88775.0), sheddable=False)
    lamp = TaggedLoad("lamp", 50.0, sheddable=True)
    config = MissionConfig(
        battery=Battery(capacity_wh=0.0, initial_soc_wh=0.0),
        sources=(PowerSource("rtg", rating_w=110.0),),
        loads=(heater, lamp),
        mission=MissionSettings(events=(), germination=None))
    [sol], [trace] = mission_traces(config)
    cuts = per_step_cuts(trace)
    assert sol["violations"] == len(cuts) == 2 * 1776
    assert sol["hard_violations"] == 1776
