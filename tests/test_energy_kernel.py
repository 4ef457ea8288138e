"""The power sol kernel against a transcription of the per-step simulator
it replaced, plus property tests on ``simulate_sol``.

``reference_simulate_sol`` and ``reference_schedule_loads`` are the
earlier code, kept here only as an oracle: every step rebuilds the
active-load list through ``PowerLoad.active_at`` and sums it, and the
scheduler re-runs a whole sol for every candidate and once more for the
admitted set. The one change from that code is the SoC clamp at full
charge, which the kernel also has.
"""

import bisect
import itertools
import math
import random
from array import array
from functools import reduce
from operator import add
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubescout import energy
from tubescout.config import MissionConfig, MissionSettings, TaggedLoad
from tubescout.energy import (
    POWER_EPSILON_W,
    Battery,
    PowerLoad,
    PowerSource,
    SourceKind,
    Violation,
    _shed_order,
    _Sol,
    schedule_loads,
    simulate_sol,
)
from tubescout.env import MarsEnvironment
from tubescout.mission import run_mission
from tubescout.report import power_section

ENV = MarsEnvironment()
SOL_S = ENV.sol_length_s
ARRAYS = ("soc_wh", "supply_w", "demand_w", "shed_w", "charged_wh", "discharged_wh")


def reference_simulate_sol(sources, loads, battery, env, timestep_s):
    n_steps = round(env.sol_length_s / timestep_s)
    dt_h = timestep_s / 3600.0
    base_supply_w = sum(s.rating_w for s in sources if s.kind is not SourceKind.WINCH_REGEN)
    event_wh = sum(s.event_energy_wh for s in sources if s.kind is SourceKind.WINCH_REGEN)

    soc = np.empty(n_steps + 1)
    supply_w = np.empty(n_steps)
    demand_w = np.empty(n_steps)
    shed_w = np.zeros(n_steps)
    charged_wh = np.zeros(n_steps)
    discharged_wh = np.zeros(n_steps)
    violations = []

    soc[0] = battery.initial_soc_wh
    shed_order = _shed_order(list(loads))

    for i in range(n_steps):
        t = i * timestep_s
        supply = base_supply_w
        if i == 0 and event_wh > 0:
            supply += event_wh / dt_h
        active = [l for l in loads if l.active_at(t)]
        # A left fold: what ``sum`` did on floats before Python 3.12.
        demand = reduce(add, (l.power_w for l in active), 0)
        supply_w[i] = supply
        demand_w[i] = demand

        before = soc[i]
        after = before
        if supply >= demand - POWER_EPSILON_W:
            surplus_wh = max(0.0, supply - demand) * dt_h
            stored = min(surplus_wh * battery.charge_efficiency,
                         battery.capacity_wh - before)
            after = min(before + stored, battery.capacity_wh)
        else:
            need_wh = (demand - supply) * dt_h
            deliverable_wh = before * battery.discharge_efficiency
            delivered = min(need_wh, deliverable_wh)
            after = max(0.0, before - delivered / battery.discharge_efficiency)
            unmet_w = (need_wh - delivered) / dt_h
            if unmet_w > POWER_EPSILON_W:
                shed_w[i] = unmet_w
                remaining = unmet_w
                for load in shed_order:
                    if remaining <= POWER_EPSILON_W:
                        break
                    if not load.active_at(t) or load.power_w <= 0:
                        continue
                    cut = min(load.power_w, remaining)
                    violations.append(Violation(
                        time_s=t, unmet_load_name=load.name, deficit_w=cut))
                    remaining -= cut

        soc[i + 1] = after
        if after > before:
            charged_wh[i] = after - before
        elif before > after:
            discharged_wh[i] = before - after

    return dict(soc_wh=soc, supply_w=supply_w, demand_w=demand_w, shed_w=shed_w,
                charged_wh=charged_wh, discharged_wh=discharged_wh,
                violations=tuple(violations))


def reference_schedule_loads(sources, loads, battery, env, timestep_s):
    ordered = sorted(loads, key=lambda l: (l.priority, l.name))
    admitted = []
    verdicts = {}
    for load in ordered:
        trial = reference_simulate_sol(sources, admitted + [load], battery, env,
                                       timestep_s)
        hard_names = {l.name for l in admitted + [load] if not l.sheddable}
        cut = {v.unmet_load_name for v in trial["violations"]}
        ok = not (cut & hard_names)
        verdicts[load.name] = ok
        if ok:
            admitted.append(load)
    trace = reference_simulate_sol(sources, admitted, battery, env, timestep_s)
    return tuple(admitted), len(admitted) == len(loads), verdicts, trace


def assert_same_trace(trace, expected):
    for name in ARRAYS:
        assert np.array_equal(getattr(trace, name), expected[name]), name
    assert trace.violations == expected["violations"]
    assert all(type(v.time_s) is float and type(v.deficit_w) is float
               for v in trace.violations)


def random_case(rng: random.Random):
    """Sources, loads, battery and timestep for one seeded case."""
    timestep_s = rng.choice((25.0, 355.1, 355.1, 1775.5, 3551.0, 88775.0))
    if rng.random() < 0.05:
        timestep_s = 5.0
    n_steps = round(SOL_S / timestep_s)

    def instant(on_grid: bool) -> float:
        if on_grid:
            return rng.randrange(n_steps + 1) * timestep_s
        return rng.uniform(0.0, SOL_S)

    sources = []
    if rng.random() < 0.9:
        sources.append(PowerSource("rtg", rating_w=rng.choice(
            (0.0, 35.0, 110.0, rng.uniform(0.0, 600.0)))))
    if rng.random() < 0.3:
        sources.append(PowerSource("wind", SourceKind.WIND_TURBINE,
                                   rating_w=rng.uniform(0.0, 200.0)))
    if rng.random() < 0.3:
        sources.append(PowerSource("winch_regen", SourceKind.WINCH_REGEN,
                                   event_energy_wh=rng.uniform(0.0, 500.0)))

    capacity = rng.choice((0.0, 1000.0, rng.uniform(0.0, 5000.0)))
    initial = rng.choice((0.0, capacity, rng.uniform(0.0, capacity)))
    if not sources and initial == 0.0:
        initial = capacity = 100.0
    battery = Battery(capacity, initial, rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))

    loads = []
    max_loads = 2 if timestep_s == 5.0 else 7
    for k in range(rng.randrange(max_loads + 1)):
        kind = rng.random()
        if kind < 0.2:
            window = None
        else:
            on_grid = rng.random() < 0.5
            start, end = sorted((instant(on_grid), instant(on_grid)))
            if rng.random() < 0.15:
                start = 0.0
            if rng.random() < 0.15:
                end = SOL_S
            if start == end:
                start, end = 0.0, SOL_S
            window = (start, end)
        power = rng.choice((0.0, rng.uniform(0.0, 150.0), rng.uniform(0.0, 600.0)))
        loads.append(PowerLoad(f"l{k}", power, window, priority=rng.randrange(4),
                               sheddable=rng.random() < 0.4))
    return sources, loads, battery, timestep_s


@pytest.mark.parametrize("chunk", range(8))
def test_kernel_matches_reference_on_seeded_cases(chunk):
    """200 seeded cases: the trace, the scheduler's verdicts and its trace
    are bit-for-bit those of the per-step simulator."""
    for seed in range(chunk * 25, chunk * 25 + 25):
        sources, loads, battery, timestep_s = random_case(random.Random(seed))
        trace = simulate_sol(sources, loads, battery, ENV, timestep_s)
        assert_same_trace(trace, reference_simulate_sol(sources, loads, battery,
                                                        ENV, timestep_s))
        result = schedule_loads(sources, loads, battery, ENV, timestep_s)
        admitted, feasible, verdicts, expected = reference_schedule_loads(
            sources, loads, battery, ENV, timestep_s)
        assert result.admitted == admitted
        assert result.feasible == feasible
        assert result.verdicts == verdicts
        assert_same_trace(result.trace, expected)


def test_seeded_cases_cover_the_edges():
    """The seeded cases reach every edge the differential test is for."""
    seen = set()
    for seed in range(200):
        sources, loads, battery, timestep_s = random_case(random.Random(seed))
        seen.add(f"dt={timestep_s:g}")
        seen.update(s.kind.value for s in sources)
        if battery.capacity_wh == 0.0:
            seen.add("zero_capacity")
        elif battery.initial_soc_wh == 0.0:
            seen.add("empty_battery")
        for load in loads:
            if load.window is None:
                seen.add("always_on")
            else:
                start, end = load.window
                seen.add("start_0" if start == 0.0 else
                         "start_on_grid" if start % timestep_s == 0 else "start_off_grid")
                if end == SOL_S:
                    seen.add("end_at_sol")
            if load.power_w == 0.0:
                seen.add("zero_watts")
        trace = simulate_sol(sources, loads, battery, ENV, timestep_s)
        if any(v.unmet_load_name not in {l.name for l in loads if l.sheddable}
               for v in trace.violations):
            seen.add("hard_cut")
    assert seen >= {"dt=5", "dt=25", "dt=88775", "winch_regen", "zero_capacity",
                    "empty_battery", "always_on", "start_0", "start_on_grid",
                    "start_off_grid", "end_at_sol", "zero_watts", "hard_cut"}


def test_seeded_schedules_reach_every_resumed_trial_edge(monkeypatch):
    """The seeded cases' scheduler trials reach every edge of resuming the
    admitted run at the candidate's first active step and joining it
    again, so the differential test above covers them."""
    seen = set()
    run = _Sol.run

    def observed(sol, demand_w, loads, base=None, start=0, join=None):
        stepped = sol.stepped
        result = run(sol, demand_w, loads, base, start, join)
        end = start + sol.stepped - stepped
        if join is None:
            return result
        if result is not None and end < sol.n_steps:
            seen.add("rejoined_before_sol_end")
        if result is None and end > start + 1:
            seen.add("rejected_after_start")
        if result is not None and base[1][:start].any():
            seen.add("kept_violation_before_start")
        if start == join:
            seen.add("empty_span")
        if start == 0 and sol.first_supply_w != sol.base_supply_w:
            seen.add("winch_regen_at_step_0")
        return result

    monkeypatch.setattr(_Sol, "run", observed)
    for seed in range(200):
        sources, loads, battery, timestep_s = random_case(random.Random(seed))
        schedule_loads(sources, loads, battery, ENV, timestep_s)
    assert seen == {"rejoined_before_sol_end", "rejected_after_start",
                    "kept_violation_before_start", "empty_span",
                    "winch_regen_at_step_0"}


def test_seeded_cases_reach_every_skip_edge(monkeypatch):
    """Every run of the seeded cases fills by slice exactly the steps
    after the first fixed point of each stretch, and a trial rejoins its
    base run only at a stretch start at or after its join. Those runs
    reach every edge of the fill and of the rejoin, so the differential
    test above covers them."""
    seen = set()
    run = _Sol.run

    def observed(sol, demand_w, loads, base=None, start=0, join=None):
        stepped, skipped = sol.stepped, sol.skipped
        result = run(sol, demand_w, loads, base, start, join)
        end = start + sol.stepped - stepped
        skipped = sol.skipped - skipped
        # A trial's SoC and shed power are those of the full run, also
        # past the step that rejects it.
        soc, shed_w, _ = run(sol, demand_w, loads)
        # A stretch ends at step 1, at n_steps and at each load's lo and hi.
        load_bounds = {b for load in loads for b in sol.entries[load.name][:2]}
        bounds = sorted(b for b in load_bounds | {1, sol.n_steps} if b > start)
        rejoined = result is not None and end < sol.n_steps
        if rejoined:
            assert end in load_bounds and end >= join
            assert soc[end] == base[0][end]
            if end > join:
                seen.add("rejoins_at_load_edge_after_join")
        capacity = sol.battery.capacity_wh
        filled = 0
        for a, b in zip([start] + bounds, bounds):
            if a >= end:
                break
            stop = min(b, end)
            fixed = next((i for i in range(a, stop) if soc[i + 1] == soc[i]), None)
            if fixed is None:
                continue
            if result is None and fixed == end - 1 and end < b:
                seen.add("rejected_at_fixed_point")
            if stop - fixed - 1 == 0:
                continue
            filled += stop - fixed - 1
            if stop in load_bounds:
                seen.add("ends_at_load_edge")
            if rejoined and stop == end > join:
                seen.add("rejoins_after_fill")
            if shed_w[fixed]:
                seen.add("shedding")
            if (0.0 < soc[fixed] < capacity
                    and abs(sol.base_supply_w - demand_w[fixed]) <= POWER_EPSILON_W):
                seen.add("not_full_within_epsilon")
            if capacity == 0.0:
                seen.add("zero_capacity")
        assert skipped == filled
        return result

    monkeypatch.setattr(_Sol, "run", observed)
    for seed in range(200):
        sources, loads, battery, timestep_s = random_case(random.Random(seed))
        simulate_sol(sources, loads, battery, ENV, timestep_s)
        schedule_loads(sources, loads, battery, ENV, timestep_s)
    assert seen == {"rejected_at_fixed_point", "ends_at_load_edge",
                    "rejoins_at_load_edge_after_join", "rejoins_after_fill",
                    "shedding", "not_full_within_epsilon", "zero_capacity"}


@pytest.fixture
def ramps(monkeypatch):
    """Record each ramp the kernel runs as (first, stop, end): the running
    sum wrote the steps [first, stop) of the stretch that ends at ``end``,
    and the scalar rule took over at ``stop``."""
    recorded = []

    def bisect_left(a, x, lo=0, hi=None, *, key=None):
        found = bisect.bisect_left(a, x, lo, len(a) if hi is None else hi, key=key)
        if x is True:
            recorded.append((lo, found, len(a)))
        return found

    monkeypatch.setattr(energy, "bisect", SimpleNamespace(
        bisect_left=bisect_left, bisect_right=bisect.bisect_right))
    return recorded


def plain_step(sol, demand_w, soc, j) -> bool:
    """Whether the per-step simulator's step j (not step 0) from soc[j]
    adds its stretch's constant charge or discharge to the SoC: no clamp,
    no shed and no fixed point. A ramp covers exactly such steps."""
    battery = sol.battery
    before, supply, demand = soc[j], sol.base_supply_w, float(demand_w[j])
    if supply >= demand - POWER_EPSILON_W:
        stored = max(0.0, supply - demand) * sol.dt_h * battery.charge_efficiency
        return (battery.capacity_wh - before >= stored
                and before < before + stored <= battery.capacity_wh)
    need_wh = (demand - supply) * sol.dt_h
    return (before * battery.discharge_efficiency >= need_wh
            and 0.0 < before - need_wh / battery.discharge_efficiency < before)


#: Sols whose ramps end where the seeded cases' do not. A 6e-12 W surplus
#: stores 0.7 units in the last place a step below 512 Wh, which rounds to
#: one unit, and 0.35 units from 512 Wh on, which rounds to none: the ramp
#: ends at a fixed point at 512 Wh. A 9 kW surplus stores exactly 62.5 Wh a
#: step and fills the battery from 500 to 1000 Wh with no clamp, so the
#: ramp ends one step later, where the room, 0, is less than the charge.
#: A 9 * 2**-33 W load from step 1 draws half a unit in the last place of
#: the SoC a step: from an odd SoC the tie rounds down one unit, from the
#: even SoC after it the tie rounds to itself, so the ramp ends at once,
#: at a fixed point.
RAMP_CASES = [
    ([PowerSource("rtg", rating_w=6e-12)], [],
     Battery(1000.0, 512.0 - 1000 * 2.0 ** -44), 25.0),
    ([PowerSource("rtg", rating_w=9000.0)], [],
     Battery(1000.0, 500.0, 1.0, 1.0), 25.0),
    ([], [PowerLoad("trickle", 9 * 2.0 ** -33, (25.0, SOL_S))],
     Battery(2e5, 1e5 + 2.0 ** -36, 0.95, 1.0), 25.0),
]


def test_seeded_cases_reach_every_ramp_ending(ramps, monkeypatch):
    """Every ramp of the seeded cases and of ``RAMP_CASES`` covers plain
    steps only (see ``plain_step``) and ends at the first step that is
    not plain, or at its stretch's end. The ramps end at every kind of
    step that is not plain, so the differential tests cover them."""
    seen = set()
    run = _Sol.run

    def observed(sol, demand_w, loads, base=None, start=0, join=None):
        del ramps[:]
        result = run(sol, demand_w, loads, base, start, join)
        mine = ramps[:]
        # A trial's SoC and shed power are those of the full run, also
        # past the step that rejects it.
        soc, shed_w, _ = run(sol, demand_w, loads)
        capacity = sol.battery.capacity_wh
        for first, stop, end in mine:
            assert all(plain_step(sol, demand_w, soc, j) for j in range(first, stop))
            if stop == first:
                seen.add("length_0")
            if stop == end:
                seen.add("stretch_end")
                continue
            assert not plain_step(sol, demand_w, soc, stop)
            if stop > first and soc[stop] == capacity:
                seen.add("filled_without_clamp")
            if soc[stop + 1] == capacity:
                seen.add("full_clamp")
            elif shed_w[stop]:
                seen.add("empty_shedding")
            elif soc[stop + 1] == soc[stop]:
                seen.add("ulp_fixed_point")
        return result

    monkeypatch.setattr(_Sol, "run", observed)
    cases = [random_case(random.Random(seed)) for seed in range(200)]
    for sources, loads, battery, timestep_s in cases + RAMP_CASES:
        simulate_sol(sources, loads, battery, ENV, timestep_s)
        schedule_loads(sources, loads, battery, ENV, timestep_s)
    assert seen == {"length_0", "stretch_end", "filled_without_clamp",
                    "full_clamp", "empty_shedding", "ulp_fixed_point"}


def test_add_accumulate_is_a_left_to_right_running_sum():
    """A ramp is exact only because ``np.add.accumulate``, in place over
    an ``array('d')``, adds left to right as a Python running sum does,
    and because ``a - c`` is ``a + (-c)``. On values of mixed magnitudes
    any other order, such as numpy's pairwise ``sum`` or a sum started
    from 0 with the first value added last, gives other bits."""
    rng = random.Random(17)
    values = [rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.0)
              * 10.0 ** rng.randrange(-20, 20) for _ in range(5000)]
    running = list(itertools.accumulate(values))
    buffer = array("d", values)
    view = np.frombuffer(buffer)
    np.add.accumulate(view, out=view)
    assert buffer.tolist() == running
    assert float(np.sum(values)) != running[-1]
    late = [x + values[0] for x in itertools.accumulate([0.0] + values[1:])]
    assert late != running
    assert all(a - c == a + -c for a, c in zip(values, values[1:]))


def test_the_closure_tie_battery_fills_through_a_ramp(ramps):
    """At 1 s steps the 1 MW source of ``FILL_IN_ONE_STEP`` stores about
    264 Wh a step, so its battery fills over a ramp from step 2 that ends
    at the clamp, and the trace is the per-step simulator's."""
    sources, loads, battery, _ = FILL_IN_ONE_STEP
    trace = simulate_sol(sources, loads, battery, ENV, 1.0)
    (first, stop, end), = ramps
    assert (first, end) == (2, round(SOL_S))
    assert trace.soc_wh[stop] < battery.capacity_wh == trace.soc_wh[stop + 1]
    assert stop > first + 3
    assert trace.soc_wh.max() == battery.capacity_wh
    assert_same_trace(trace, reference_simulate_sol(sources, loads, battery,
                                                    ENV, 1.0))


def test_a_trial_stops_where_its_ramp_empties_the_battery(ramps):
    """The drill drains the full battery over a ramp from its second
    active step to the step that empties it. The scalar rule sheds the
    drill there, the first cut of the per-step simulator, and the trial
    returns None with that step the last it covered."""
    drill = PowerLoad("drill", 300.0, (1000 * 25.0, 3000 * 25.0))
    sources, battery = [PowerSource("rtg", rating_w=100.0)], Battery(1000.0, 1000.0)
    sol = _Sol(sources, [drill], battery, ENV, 25.0)
    bare = sol.run(sol.demand([]), [])
    del ramps[:]
    stepped = sol.stepped
    assert sol.run(sol.demand([drill]), [drill], bare, 1000, 3000) is None
    cut = reference_simulate_sol(sources, [drill], battery, ENV, 25.0)["violations"][0]
    hard = round(cut.time_s / 25.0)
    assert 1001 < hard < 3000
    assert ramps == [(1001, hard, 3000)]
    assert sol.stepped - stepped == hard + 1 - 1000


def test_a_trial_rejoins_at_the_load_edge_after_its_battery_fills():
    """The drill's trial drains the full battery over the drill's window,
    steps [1000, 1100), and recharges it after: the battery clamps full
    at a step in the middle of the stretch [1100, 2000) that the lamp's
    window ends. The trial steps one step past the clamp, the fixed
    point, fills the rest of the stretch by slice and rejoins the
    admitted run at the lamp's edge."""
    lamp = PowerLoad("lamp", 50.0, (2000 * 25.0, 3000 * 25.0))
    drill = PowerLoad("drill", 300.0, (1000 * 25.0, 1100 * 25.0))
    battery = Battery(1000.0, 1000.0)
    sol = _Sol([PowerSource("rtg", rating_w=100.0)], [lamp, drill], battery,
               ENV, 25.0)
    admitted_demand_w = sol.demand([lamp])
    admitted = sol.run(admitted_demand_w, [lamp])
    demand_w = admitted_demand_w.copy()
    sol.add(demand_w, drill)
    stepped, skipped = sol.stepped, sol.skipped
    soc, shed_w, _ = sol.run(demand_w, [lamp, drill], admitted, 1000, 1100)
    clamp = next(i for i in range(1100, 2000) if soc[i + 1] == battery.capacity_wh)
    assert 1100 < clamp < 2000 - 2 and soc[1100] < battery.capacity_wh
    assert sol.stepped - stepped == 2000 - 1000
    assert sol.skipped - skipped == 2000 - (clamp + 2)
    assert soc[2000:] == admitted[0][2000:]
    full_soc, full_shed_w, _ = sol.run(demand_w, [lamp, drill])
    assert soc == full_soc and np.array_equal(shed_w, full_shed_w)


def power_sweep_case(rng: random.Random, n_loads: int):
    """Windowed loads, a fifth always on, on a sol supplied below their
    mean demand, at the default 25 s step."""
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
    sources = [PowerSource("rtg", rating_w=0.65 * mean_w)]
    return sources, loads, Battery(8.0 * mean_w, 6.4 * mean_w)


def test_scheduler_steps_well_under_a_full_sol_per_trial():
    sources, loads, battery = power_sweep_case(random.Random(24), 24)
    result = schedule_loads(sources, loads, battery, ENV, 25.0)
    assert result.stepped < len(loads) * round(SOL_S / 25.0) // 2


def test_runs_and_reports_build_no_violation(monkeypatch):
    """Shed power is the only record of the cuts: the scheduler, a full
    sol, the power report and a mission's sols build no ``Violation``,
    though each of them cuts sheddable and non-sheddable loads."""
    built = []

    class Counted(Violation):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(energy, "Violation", Counted)
    sources, loads, battery = power_sweep_case(random.Random(24), 24)
    assert not schedule_loads(sources, loads, battery, ENV, 25.0).feasible
    assert simulate_sol(sources, loads, battery, ENV, 25.0).shed_w.any()
    section, findings, _ = power_section(tuple(sources), tuple(loads), battery,
                                         ENV, 25.0)
    assert section["violation_count"] > findings[0].data["violation_count"] > 0
    heater = PowerLoad("heater", 511.5, (44375.0, 88775.0), sheddable=False)
    lamp = PowerLoad("lamp", 50.0, sheddable=True)
    report = run_mission(MissionConfig(
        battery=Battery(capacity_wh=0.0, initial_soc_wh=0.0),
        sources=(PowerSource("rtg", rating_w=110.0),),
        loads=(TaggedLoad(heater), TaggedLoad(lamp)),
        mission=MissionSettings(events=(), germination=None)))
    sol = report["mission"]["sol_log"][0]
    assert sol["violations"] > sol["hard_violations"] > 0
    assert built == []


def test_a_trial_walks_the_cuts_once_a_stretch(monkeypatch):
    """At the sol work bound's worst case, every load always on and
    sheddable on an empty battery, each trial walks ``_cuts`` at step 0
    and step 1 only: step 1 is a fixed point, and the rest of the sol
    repeats it. The steps the runs cover stay those of the bare sol and
    one full trial per load."""
    walks = []
    cuts = energy._cuts

    def counted(order, shed):
        walks.append(shed)
        return cuts(order, shed)

    monkeypatch.setattr(energy, "_cuts", counted)
    loads = [PowerLoad(f"l{k:02d}", 50.0, sheddable=True) for k in range(20)]
    result = schedule_loads([PowerSource("rtg", rating_w=1.0)], loads,
                            Battery(1000.0, 0.0), ENV, 1.0)
    assert result.feasible
    assert len(walks) == 2 * len(loads)
    assert result.stepped == (len(loads) + 1) * round(SOL_S)


@pytest.mark.parametrize("timestep_s", [5.0, 25.0, 1775.5])
def test_a_full_battery_with_a_surplus_skips_all_but_two_steps(timestep_s):
    """Step 0 is a stretch of its own; step 1 leaves the full battery full,
    and fills the rest of the sol."""
    sol = _Sol([PowerSource("rtg", rating_w=100.0)], [], Battery(1000.0, 1000.0),
               ENV, timestep_s)
    soc, shed_w, _ = sol.run(sol.demand([]), [])
    assert sol.skipped == sol.n_steps - 2
    assert sol.stepped == sol.n_steps
    assert set(soc) == {1000.0} and not shed_w.any()


def test_winch_regen_step_is_never_the_start_of_a_skip():
    """Step 0 leaves the full battery full on its regenerated surplus, but
    the steps after it discharge: step 0 fills nothing."""
    sources = [PowerSource("regen", SourceKind.WINCH_REGEN, event_energy_wh=100.0)]
    loads = [PowerLoad("lamp", 50.0)]
    battery = Battery(1000.0, 1000.0)
    sol = _Sol(sources, loads, battery, ENV, 25.0)
    soc, _, _ = sol.run(sol.demand(loads), loads)
    assert soc[0] == soc[1] == 1000.0 > soc[2]
    trace = simulate_sol(sources, loads, battery, ENV, 25.0)
    assert_same_trace(trace, reference_simulate_sol(sources, loads, battery,
                                                    ENV, 25.0))


@pytest.mark.parametrize("rating_w, battery, joined", [
    (50.0, Battery(10000.0, 5000.0), False),
    (500.0, Battery(1000.0, 1000.0), True)])
def test_a_trial_steps_from_its_load_start(rating_w, battery, joined):
    """The bare sol steps in full; the trial of a load active from step
    k = 1000 to 2000 steps none of [0, k). On a deficit, with a battery
    that never fills, its SoC stays below the bare sol's to the end; on a
    surplus that keeps the battery full, it rejoins the bare sol at the
    window's end."""
    n_steps = round(SOL_S / 25.0)
    load = PowerLoad("drill", 100.0, (1000 * 25.0, 2000 * 25.0))
    result = schedule_loads([PowerSource("rtg", rating_w=rating_w)], [load],
                            battery, ENV, 25.0)
    assert result.feasible
    assert result.stepped - n_steps == (1000 if joined else n_steps - 1000)


@pytest.mark.parametrize("timestep_s", [5.0, 25.0, 1775.5, 88775.0])
def test_load_spans_are_the_active_steps(timestep_s):
    rng = random.Random(7)
    n_steps = round(SOL_S / timestep_s)
    windows = [None, (0.0, SOL_S), (timestep_s / 2, timestep_s)]
    windows += [tuple(sorted((rng.uniform(0, SOL_S), rng.uniform(0, SOL_S))))
                for _ in range(40)]
    windows += [(k * timestep_s, SOL_S) for k in (0, n_steps - 1)]
    loads = [PowerLoad(f"l{k}", 1.0, w) for k, w in enumerate(windows)]
    sol = _Sol([PowerSource("rtg", rating_w=1.0)], loads, Battery(), ENV, timestep_s)
    for load in loads:
        active = [i for i in range(n_steps) if load.active_at(i * timestep_s)]
        lo, hi, *_ = sol.entries[load.name]
        assert active == list(range(lo, hi)), load.window


@pytest.mark.parametrize("timestep_s", [0.5, 0.001, 5e-324])
def test_too_many_steps_rejected(timestep_s):
    with pytest.raises(ValueError, match="too short"):
        simulate_sol([PowerSource("rtg", rating_w=1.0)], [], Battery(), ENV,
                      timestep_s)


def test_soc_stays_at_capacity_when_charging_to_full():
    battery = Battery(3729.6, 1554.3735443630037)
    trace = simulate_sol([PowerSource("r", rating_w=1e6)], [], battery, ENV)
    assert trace.soc_wh[1] == battery.capacity_wh
    assert trace.soc_wh.max() == battery.capacity_wh


def test_schedule_without_admitted_loads_runs_the_bare_sol():
    heater = PowerLoad("heater", 511.5, (44375.0, 88775.0))
    battery = Battery(0.0, 0.0)
    result = schedule_loads([PowerSource("rtg", rating_w=110.0)], [heater],
                            battery, ENV)
    assert result.admitted == () and not result.feasible
    assert result.verdicts == {"heater": False}
    assert not result.trace.demand_w.any()
    assert result.trace.violations == ()


_timesteps = st.sampled_from((25.0, 88775.0, 3551.0, 1775.5, 355.1))
_windows = st.one_of(
    st.none(),
    st.tuples(st.floats(0.0, SOL_S), st.floats(0.0, SOL_S))
    .map(sorted).filter(lambda w: w[0] < w[1]).map(tuple))
_loads = st.lists(
    st.tuples(st.floats(0.0, 2000.0), _windows, st.booleans()),
    max_size=6)


@st.composite
def sols(draw):
    capacity = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e5)))
    battery = Battery(capacity, draw(st.floats(0.0, capacity)),
                      draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0)))
    sources = [PowerSource("rtg", rating_w=draw(st.floats(0.0, 2000.0)))]
    regen_wh = draw(st.floats(0.0, 1e4))
    if regen_wh:
        sources.append(PowerSource("regen", SourceKind.WINCH_REGEN,
                                   event_energy_wh=regen_wh))
    loads = [PowerLoad(f"l{k}", power, window, sheddable=sheddable)
             for k, (power, window, sheddable) in enumerate(draw(_loads))]
    return sources, loads, battery, draw(_timesteps)


#: A charge that fills the battery in one step: before + (capacity - before)
#: rounds one unit in the last place above capacity, so the step is clamped.
#: No float64 charge closes this step (see ``no_charge_closes``).
FILL_IN_ONE_STEP = ([PowerSource("r", rating_w=1e6)], [],
                    Battery(3729.6, 1554.3735443630037), 25.0)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(sols())
@example(FILL_IN_ONE_STEP)
def test_soc_bounds_and_closure(case):
    """SoC stays in [0, capacity]; one step never both charges and
    discharges; the step deltas close the SoC exactly, except in a step
    clamped at capacity that no float64 charge can close, where they
    close it to within one unit in the last place of the capacity (see
    SocTrace)."""
    sources, loads, battery, timestep_s = case
    trace = simulate_sol(sources, loads, battery, ENV, timestep_s)
    soc = trace.soc_wh
    assert np.all(soc >= 0.0)
    assert np.all(soc <= battery.capacity_wh)
    assert not np.any((trace.charged_wh > 0) & (trace.discharged_wh > 0))
    closed = soc[:-1] + trace.charged_wh - trace.discharged_wh
    for i in np.flatnonzero(closed != soc[1:]):
        before, after = float(soc[i]), float(soc[i + 1])
        assert after == battery.capacity_wh
        assert abs(closed[i] - after) <= math.ulp(after)
        assert no_charge_closes(before, after)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(sols())
@example(FILL_IN_ONE_STEP)
@example(RAMP_CASES[0])
@example(RAMP_CASES[1])
@example(RAMP_CASES[2])
def test_kernel_matches_reference_on_drawn_sols(case):
    """Drawn windows off the step grid and 1775.5 s and 355.1 s steps put
    stretch edges where the seeded cases do not, and ``RAMP_CASES`` end
    ramps where neither does."""
    sources, loads, battery, timestep_s = case
    trace = simulate_sol(sources, loads, battery, ENV, timestep_s)
    assert_same_trace(trace, reference_simulate_sol(sources, loads, battery,
                                                    ENV, timestep_s))


def no_charge_closes(before: float, after: float) -> bool:
    """Whether no float64 ``c`` has ``before + c == after`` (0 <= before
    < after). It holds when ``after`` has an odd last digit, ``before``
    is an odd multiple of half its unit u in the last place, and
    ``after - before`` reaches the power of two below ``after``: every
    candidate ``c`` then lies in the binade of ``after``, a multiple of
    u, so ``before + c`` is a tie half a unit from ``after`` and rounds
    to its even neighbour. Otherwise the nearest float to
    ``after - before``, which ``np.diff`` gives, closes the step."""
    u = math.ulp(after)
    return (math.fmod(before, u) == u / 2 and int(after / u) % 2 == 1
            and after - before >= 2.0 ** math.floor(math.log2(after)))


def test_closure_is_inexact_only_where_the_charge_is_clamped():
    """The clamped step of FILL_IN_ONE_STEP cannot close exactly: no
    charge within 64 units of the stored one reaches the capacity, as
    ``no_charge_closes`` predicts. One unit less SoC, and it closes."""
    sources, loads, battery, timestep_s = FILL_IN_ONE_STEP
    trace = simulate_sol(sources, loads, battery, ENV, timestep_s)
    before, after = (float(x) for x in trace.soc_wh[:2])
    charged = float(trace.charged_wh[0])
    assert after == battery.capacity_wh
    assert charged == after - before
    assert before + charged == math.nextafter(after, math.inf)
    assert no_charge_closes(before, after)
    down = up = charged
    for _ in range(64):
        down = math.nextafter(down, 0.0)
        up = math.nextafter(up, math.inf)
        assert before + down != after and before + up != after
    # One unit lower in the initial SoC, the same fill closes exactly.
    lower = math.nextafter(before, 0.0)
    assert not no_charge_closes(lower, after)
    assert lower + (after - lower) == after
