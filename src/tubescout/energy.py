"""Power budget toolkit: winch mechanics, sources, loads and battery SoC.

The winch model converts lowering/raising a payload into motor power and
regenerated energy. The sol simulator steps a battery through one
Martian day against a set of constant sources and windowed loads,
recording state of charge and the power shed at each step.
A greedy scheduler on top admits loads in priority order and reports
which subset is actually supportable.

All simulation here is deterministic: constant source ratings, explicit
time stepping, no randomness.
"""

from __future__ import annotations

import bisect
import csv
import enum
import itertools
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .env import MarsEnvironment
from .numeric import fold_sum

# numpy is imported inside the functions that build or read arrays, so
# that the analytic subcommands, which import this module, never load it.
if TYPE_CHECKING:
    import numpy as np

#: Power differences below this are treated as zero (float noise guard).
POWER_EPSILON_W = 1e-9

#: Default simulation resolution. 25 s divides the 88775 s sol exactly
#: (3551 steps) and lands a step boundary on the 44375 s night start.
DEFAULT_TIMESTEP_S = 25.0

#: Upper bound on steps per sol: 1 s steps on the 88775 s sol fit. A
#: step the scalar rule takes costs 0.25 to 0.4 us (CPython 3.11, 2 x86
#: CPUs), a step of a ramp about 9 ns (a 1 s sol whose SoC never settles
#: runs in 0.8 ms), a step filled by slice after a fixed point next to
#: nothing, and each step 48 bytes of trace arrays.
MAX_SOL_STEPS = 100_000

#: Upper bound on the work of one power report, counted as (loads + 2)
#: runs of the sol (one scheduler trial per load, the scheduler's bare
#: sol and the full trace) times its steps times (loads + 1). In the
#: worst case, every load always on and sheddable and the battery empty,
#: no trial stops early or rejoins, and every step sheds every load. A
#: shedding step empties the battery, so the runs fill each stretch
#: between window edges by slice after its first steps, a trial walks
#: ``_cuts`` about once a stretch, and the report reads the trace's cuts
#: once per run of equal shed power. At the bound (20 loads at 1 s
#: steps, 1.78M cuts in one run) the report takes 21-26 ms, 16 ms of it
#: the scheduler (CPython 3.11, 2 x86 CPUs).
MAX_SOL_WORK = 42_000_000


@dataclass(frozen=True)
class WinchSpec:
    """Tube-access winch sized for lowering a rover-class payload."""

    payload_mass_kg: float = 500.0
    line_speed_mps: float = 0.4
    depth_m: float = 100.0
    motor_margin: float = 0.10
    regen_efficiency: float = 0.70

    def __post_init__(self):
        if self.payload_mass_kg <= 0:
            raise ValueError(
                f"payload_mass_kg must be positive, got {self.payload_mass_kg}")
        if self.line_speed_mps <= 0:
            raise ValueError(
                f"line_speed_mps must be positive, got {self.line_speed_mps}")
        if self.depth_m <= 0:
            raise ValueError(f"depth_m must be positive, got {self.depth_m}")
        if self.motor_margin < 0:
            raise ValueError(f"motor_margin must be nonnegative, got {self.motor_margin}")
        if not 0.0 <= self.regen_efficiency <= 1.0:
            raise ValueError(
                f"regen_efficiency must be in [0, 1], got {self.regen_efficiency}")


#: Baseline winch: 500 kg payload at 0.4 m/s over a 100 m drop, 10% motor
#: margin, 70% round-trip generator efficiency.
REFERENCE_WINCH = WinchSpec()


@dataclass(frozen=True)
class WinchPower:
    raw_kw: float
    with_margin_kw: float


def winch_power(spec: WinchSpec, env: MarsEnvironment) -> WinchPower:
    """Steady hoisting power m*g*v, with and without the motor margin."""
    raw = spec.payload_mass_kg * env.gravity * spec.line_speed_mps / 1000.0
    return WinchPower(raw_kw=raw, with_margin_kw=raw * (1.0 + spec.motor_margin))


def winch_regen_energy(spec: WinchSpec, env: MarsEnvironment) -> float:
    """Energy in Wh recovered by one controlled descent of the payload."""
    joules = spec.payload_mass_kg * env.gravity * spec.depth_m * spec.regen_efficiency
    return joules / 3600.0


class SourceKind(enum.Enum):
    CONSTANT = "constant"          # e.g. an RTG
    WIND_TURBINE = "wind_turbine"  # constant rating at the scenario wind speed
    WINCH_REGEN = "winch_regen"    # one-shot energy credit at sol start
    TRICKLE = "trickle"            # e.g. atmospheric electricity collection


@dataclass(frozen=True)
class PowerSource:
    """A supply-side element. ``rating_w`` applies continuously for all
    kinds except WINCH_REGEN, whose ``event_energy_wh`` is injected during
    the first timestep of the sol."""

    name: str
    kind: SourceKind = SourceKind.CONSTANT
    rating_w: float = 0.0
    event_energy_wh: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("source name must be nonempty")
        if self.rating_w < 0:
            raise ValueError(f"rating_w must be nonnegative, got {self.rating_w}")
        if self.event_energy_wh < 0:
            raise ValueError(
                f"event_energy_wh must be nonnegative, got {self.event_energy_wh}")


@dataclass(frozen=True)
class PowerLoad:
    """A demand-side element active during ``window`` (seconds within a
    sol, start inclusive, end exclusive). ``window=None`` means always on.
    Lower ``priority`` is more critical; sheddable loads are dropped first
    when supply falls short."""

    name: str
    power_w: float
    window: tuple[float, float] | None = None
    priority: int = 0
    sheddable: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("load name must be nonempty")
        if self.power_w < 0:
            raise ValueError(f"power_w must be nonnegative, got {self.power_w}")
        if self.window is not None:
            start, end = self.window
            if not 0.0 <= start < end:
                raise ValueError(
                    f"load window needs 0 <= start < end, got {self.window}")

    def active_at(self, time_s: float) -> bool:
        if self.window is None:
            return True
        return self.window[0] <= time_s < self.window[1]


@dataclass(frozen=True)
class Battery:
    capacity_wh: float = 1000.0
    initial_soc_wh: float = 500.0
    charge_efficiency: float = 0.95
    discharge_efficiency: float = 0.95

    def __post_init__(self):
        if self.capacity_wh < 0:
            raise ValueError(f"capacity_wh must be nonnegative, got {self.capacity_wh}")
        if not 0.0 <= self.initial_soc_wh <= self.capacity_wh:
            raise ValueError(
                f"initial_soc_wh must be in [0, {self.capacity_wh}], "
                f"got {self.initial_soc_wh}")
        for name in ("charge_efficiency", "discharge_efficiency"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")


@dataclass(frozen=True)
class Violation:
    """One load (partially) unserved during one timestep."""

    time_s: float
    unmet_load_name: str
    deficit_w: float


@dataclass(frozen=True)
class SocTrace:
    """Stepwise record of one simulated sol.

    ``soc_wh`` has one more sample than the step arrays: entry i is the
    state of charge at time i*timestep_s, entry [-1] at the end of the
    sol. ``charged_wh``/``discharged_wh`` are the actual per-step battery
    deltas, at most one of them nonzero per step, and SoC stays within
    [0, capacity_wh]. SoC closure,
    soc[i+1] = soc[i] + charged_wh[i] - discharged_wh[i],
    holds exactly at every step where some float64 charge can close it.
    A step clamped at capacity may have none: when soc[i] is an odd
    multiple of half the capacity's unit in the last place, capacity
    ends in an odd digit and the charge is at least the power of two
    below capacity, every soc[i] + charge is a rounding tie that goes
    to an even neighbour of capacity. There closure holds only to
    within that unit.

    ``shed_w`` is the only record of unmet demand: ``cut_runs`` assigns
    it to the loads of ``shed_order`` when asked, and ``cuts`` expands
    that step by step.
    """

    timestep_s: float
    soc_wh: np.ndarray
    supply_w: np.ndarray
    demand_w: np.ndarray
    shed_w: np.ndarray
    charged_wh: np.ndarray
    discharged_wh: np.ndarray
    shed_order: tuple[PowerLoad, ...] = ()

    @property
    def final_soc_wh(self) -> float:
        return float(self.soc_wh[-1])

    @property
    def total_shed_wh(self) -> float:
        import numpy as np
        return float(np.sum(self.shed_w)) * self.timestep_s / 3600.0

    def cut_runs(self):
        """Yield (step, n, name, sheddable, deficit_w) for each load cut at
        ``step`` and each of the n - 1 steps after it, run by run and in
        shed order within a run, as Python values.

        A run is a maximal stretch of consecutive shed steps with the same
        ``shed_w`` and no load's ``lo`` or ``hi`` (see ``_entry``) after
        its first step. The active loads and the power to hand out are the
        same at every step of a run, so every step has the cuts of the
        first, and ``_cuts`` runs once a run."""
        import numpy as np
        steps = np.flatnonzero(self.shed_w)
        if not len(steps):  # most sols: build no more arrays
            return
        values = self.shed_w[steps]
        order = [_entry(l, self.timestep_s, len(self.shed_w))
                 for l in self.shed_order]
        edges = sorted({edge for entry in order for edge in entry[:2]})
        stretch = np.searchsorted(edges, steps, side="right")
        new = np.ones(len(steps), dtype=bool)
        new[1:] = ((np.diff(steps) != 1) | (np.diff(stretch) != 0)
                   | (values[1:] != values[:-1]))
        starts = np.flatnonzero(new)
        lengths = np.diff(starts, append=len(steps))
        for i, n, shed_w in zip(steps[starts].tolist(), lengths.tolist(),
                                values[starts].tolist()):
            for _, name, sheddable, deficit_w in _cuts(order, ((i, shed_w),)):
                yield i, n, name, sheddable, deficit_w

    def cuts(self):
        """Yield (time_s, name, sheddable, deficit_w) for each load cut,
        step by step and in shed order within a step: ``cut_runs``
        expanded."""
        for i, run in itertools.groupby(self.cut_runs(), key=lambda cut: cut[0]):
            run = list(run)
            for step in range(i, i + run[0][1]):
                for _, _, name, sheddable, deficit_w in run:
                    yield step * self.timestep_s, name, sheddable, deficit_w

    @property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(Violation(time_s, name, deficit_w)
                     for time_s, name, _, deficit_w in self.cuts())

    def violated_load_names(self) -> set[str]:
        return {name for _, _, name, _, _ in self.cut_runs()}


def sol_problems(sources: list[PowerSource], loads: list[PowerLoad],
                 battery: Battery, env: MarsEnvironment, timestep_s: float,
                 taken_source_names: dict[str, str] | None = None):
    """Yield every reason ``simulate_sol`` refuses these arguments, as
    (argument, item index or None, item field or None, message): for
    example ``("loads", 1, "window", ...)``. ``taken_source_names`` maps
    names a caller will add sources under to what adds them; a source
    that reuses one is a duplicate."""
    sol_s = env.sol_length_s
    if not timestep_s > 0:
        yield ("timestep_s", None, None,
               f"timestep {timestep_s} s must be positive")
    elif (steps := sol_s / timestep_s) > MAX_SOL_STEPS:
        yield ("timestep_s", None, None,
               f"timestep {timestep_s} s is too short: the {sol_s:.0f} s sol "
               f"would take more than {MAX_SOL_STEPS} steps")
    elif round(steps) == 0 or abs(steps - round(steps)) > 1e-9:
        yield ("timestep_s", None, None,
               f"timestep {timestep_s} s does not divide the {sol_s:.0f} s "
               f"sol evenly")
    elif (work := (len(loads) + 2) * round(steps) * (len(loads) + 1)) > MAX_SOL_WORK:
        yield ("loads", None, None,
               f"sol work (loads + 2) x sol steps x (loads + 1) = "
               f"{len(loads) + 2} x {round(steps)} x {len(loads) + 1} = {work} "
               f"exceeds {MAX_SOL_WORK}")
    for argument, items, taken in (("sources", sources, taken_source_names),
                                   ("loads", loads, None)):
        first = dict(taken or {})
        for i, item in enumerate(items):
            also = first.setdefault(item.name, f"{argument}[{i}]")
            if also != f"{argument}[{i}]":
                yield (argument, i, "name",
                       f"duplicate name {item.name!r} (also {also})")
    for i, load in enumerate(loads):
        if load.window is not None and load.window[1] > sol_s:
            yield ("loads", i, "window", f"window {list(load.window)} ends "
                                         f"past the {sol_s:.0f} s sol")
    if not sources and battery.initial_soc_wh == 0 and loads:
        yield ("sources", None, None,
               "no power source and an empty battery cannot serve loads")


def _shed_order(loads: list[PowerLoad]) -> list[PowerLoad]:
    """Order in which unmet demand is assigned: sheddable loads first,
    least critical first, then non-sheddable loads the same way."""
    sheddable = sorted((l for l in loads if l.sheddable),
                       key=lambda l: (-l.priority, l.name))
    hard = sorted((l for l in loads if not l.sheddable),
                  key=lambda l: (-l.priority, l.name))
    return sheddable + hard


def _entry(load: PowerLoad, timestep_s: float, n_steps: int) -> tuple:
    """The load's ``_cuts`` entry (lo, hi, power_w, name, sheddable), with
    [lo, hi) the steps at which ``PowerLoad.active_at`` holds."""
    lo, hi = 0, n_steps
    if load.window is not None:
        lo, hi = (bisect.bisect_left(range(n_steps), time_s,
                                     key=lambda i: i * timestep_s)
                  for time_s in load.window)
    return lo, hi, load.power_w, load.name, load.sheddable


def _cuts(order, shed):
    """For each (step, unmet_w) in ``shed``, cut the active loads of
    ``order`` (``_entry`` tuples in shed order) by their power or what is
    left, until what is left is within ``POWER_EPSILON_W``, and yield
    (step, name, sheddable, deficit_w) for each cut."""
    for i, remaining in shed:
        for lo, hi, power_w, name, sheddable in order:
            if remaining <= POWER_EPSILON_W:
                break
            if not lo <= i < hi or power_w <= 0:
                continue
            cut = min(power_w, remaining)
            yield i, name, sheddable, cut
            remaining -= cut


class _Sol:
    """The power sol kernel: one sol of fixed sources and battery, able
    to run any subset of the loads it was built with.

    Demand is a numpy array built by adding each load's power over its
    step range in load order, which repeats the float additions of
    summing the active loads step by step. The SoC recurrence runs on
    Python floats, and each stretch's ramp in one numpy running sum.
    ``simulate_sol``, every ``schedule_loads`` trial and each mission sol
    run this same code.
    """

    def __init__(self, sources: list[PowerSource], loads: list[PowerLoad],
                 battery: Battery, env: MarsEnvironment, timestep_s: float):
        for argument, i, name, message in sol_problems(sources, loads, battery,
                                                       env, timestep_s):
            where = argument if i is None else f"{argument}[{i}].{name}"
            raise ValueError(f"{where}: {message}")
        self.timestep_s = timestep_s
        self.n_steps = round(env.sol_length_s / timestep_s)
        self.dt_h = timestep_s / 3600.0
        self.battery = battery
        self.base_supply_w = fold_sum(s.rating_w for s in sources
                                      if s.kind is not SourceKind.WINCH_REGEN)
        event_wh = fold_sum(s.event_energy_wh for s in sources
                            if s.kind is SourceKind.WINCH_REGEN)
        self.first_supply_w = self.base_supply_w
        if event_wh > 0:
            self.first_supply_w += event_wh / self.dt_h
        #: Each load's ``_entry``, shared by every trial's shed order.
        self.entries = {load.name: _entry(load, timestep_s, self.n_steps)
                        for load in loads}
        #: Steps covered by this sol's runs, added once per run, and the
        #: steps among them that a fixed point filled by slice.
        self.stepped = 0
        self.skipped = 0

    def add(self, demand_w: np.ndarray, load: PowerLoad) -> None:
        lo, hi, power_w, _, _ = self.entries[load.name]
        demand_w[lo:hi] += power_w

    def demand(self, loads: list[PowerLoad]) -> np.ndarray:
        import numpy as np
        demand_w = np.zeros(self.n_steps)
        for load in loads:
            self.add(demand_w, load)
        return demand_w

    def run(self, demand_w: np.ndarray, loads: list[PowerLoad],
            base=None, start: int = 0, join: int | None = None):
        """Step the battery through the sol against ``demand_w``, the
        demand of ``loads``. Returns (soc, shed_w, shed_order), with soc
        an ``array('d')`` of n_steps + 1 samples; no cuts are kept.

        The run walks the sol one stretch at a time. The stretches are cut
        at step 1, at ``n_steps`` and at each load's ``lo`` and ``hi``
        (see ``_entry``), and nowhere else, so the active loads, and so
        the demand, are the same at every step of a stretch, and so is
        the supply: only step 0 has the winch regeneration credit, and it
        is a stretch of its own. A step then depends only on the SoC it
        starts from. Once a step leaves the SoC unchanged, it is a fixed
        point, and every later step of its stretch repeats it bit for
        bit: the same SoC, the same shed power and, in a trial, the same
        verdict. The run fills the rest of the stretch's SoC and shed
        power by slice, counts those steps in ``skipped``, and goes on at
        the next stretch.

        Until a clamp, each step of a stretch adds the same d to the SoC:
        its charge, or minus its full discharge. So after a stretch's first
        step, the run writes the rest of the stretch as a ramp, the running
        sum of [soc, d, d, ...] by ``np.add.accumulate`` in place, which
        adds left to right as the steps do, and ``a + -c`` is ``a - c``. It
        then finds by bisection the first step the ramp got wrong, where
        the battery would clamp full or empty or the SoC stop changing;
        each of those tests, once true along a ramp, stays true. From that
        step the scalar rule goes on. Ramp steps shed nothing, so they
        change no verdict, and ``stepped`` counts them as stepped.

        A full run is ``start`` = 0 with no ``base``. A run given
        ``base``, an earlier run of this sol whose demand and active
        loads differ from these only in steps [start, join), is a trial.
        It copies the steps before ``start`` from ``base`` and steps from
        there; at each stretch start at or after ``join`` it compares its
        SoC with that of ``base`` and, once they are equal, copies the
        rest. This is exact: outside [start, join) the demand and the
        active loads in shed order are the same, so equal SoC at a step
        gives the same values bit for bit from there on. Comparing only
        there costs next to nothing: two runs under the same demand meet
        where both batteries clamp, full or empty, so the step after is a
        fixed point, and the trial fills to the next load edge by slice
        and rejoins there. A trial returns None at the first step whose
        shed power reaches a non-sheddable load. A repeated step cannot
        be that step, since the step it repeats was not, so a trial
        checks the cuts of a stepped step only.
        """
        import numpy as np
        battery = self.battery
        capacity = battery.capacity_wh
        charge_eff = battery.charge_efficiency
        discharge_eff = battery.discharge_efficiency
        dt_h = self.dt_h
        n_steps = self.n_steps
        shed_order = _shed_order(loads)
        order = [self.entries[l.name] for l in shed_order]
        edges = sorted({1, n_steps}.union(*(entry[:2] for entry in order)))
        shed_w = np.zeros(n_steps)
        shed_view = memoryview(shed_w)
        soc = array("d", [battery.initial_soc_wh]) * (n_steps + 1)
        soc_wh = np.frombuffer(soc)
        if base is not None:
            base_soc, base_shed_w, _ = base
            soc[:start + 1] = base_soc[:start + 1]
            shed_w[:start] = base_shed_w[:start]
        before = soc[start]
        demand_view = memoryview(demand_w)
        first = start
        while start < n_steps:
            if base is not None and start >= join and soc[start] == base_soc[start]:
                soc[start:] = base_soc[start:]
                shed_w[start:] = base_shed_w[start:]
                break
            end = edges[bisect.bisect_right(edges, start)]
            demand = demand_view[start]
            supply = self.first_supply_w if start == 0 else self.base_supply_w
            # min(a, b) and max(a, b) are spelled out as conditionals (same
            # result, same operand on ties) because the calls cost most of
            # a step.
            i = start
            while i < end:
                if supply >= demand - POWER_EPSILON_W:
                    surplus_w = supply - demand
                    stored = surplus_w * dt_h * charge_eff if surplus_w > 0.0 else 0.0
                    room = capacity - before
                    after = before + (room if room < stored else stored)
                    if capacity < after:
                        after = capacity
                else:
                    need_wh = (demand - supply) * dt_h
                    delivered = before * discharge_eff
                    if not delivered < need_wh:
                        delivered = need_wh
                    after = before - delivered / discharge_eff
                    if not after > 0.0:
                        after = 0.0
                    unmet_w = (need_wh - delivered) / dt_h
                    if unmet_w > POWER_EPSILON_W:
                        shed_view[i] = unmet_w
                        if base is not None:
                            for _, _, sheddable, _ in _cuts(order, ((i, unmet_w),)):
                                if not sheddable:
                                    self.stepped += i + 1 - first
                                    return None
                if after == before:
                    # A fixed point: every later step of the stretch repeats
                    # this one, its SoC, its shed power and its verdict.
                    soc_wh[i + 1:end + 1] = after
                    if shed_view[i]:
                        shed_w[i + 1:end] = shed_view[i]
                    self.skipped += end - i - 1
                    break
                if i == start and i + 1 < end:
                    # The ramp (see above): fails(k) holds where the scalar
                    # rule would not just add d at step k.
                    if after > before:
                        d = stored
                        fails = lambda k: (capacity - soc[k] < stored
                                           or capacity < soc[k + 1]
                                           or soc[k + 1] == soc[k])
                    else:
                        d = -(need_wh / discharge_eff)
                        fails = lambda k: (soc[k] * discharge_eff < need_wh
                                           or not soc[k + 1] > 0.0
                                           or soc[k + 1] == soc[k])
                    ramp = soc_wh[i + 1:end + 1]
                    ramp[0] = after
                    ramp[1:] = d
                    # Past the first failing step the sum may overflow.
                    with np.errstate(over="ignore"):
                        np.add.accumulate(ramp, out=ramp)
                    i = bisect.bisect_left(range(end), True, i + 1, key=fails)
                    before = soc[i]
                    continue
                soc[i + 1] = before = after
                i += 1
            start = end
        self.stepped += start - first
        return soc, shed_w, shed_order

    def trace(self, demand_w: np.ndarray, run) -> SocTrace:
        import numpy as np
        soc, shed_w, shed_order = run
        soc_wh = np.frombuffer(soc)
        supply_w = np.full(self.n_steps, self.base_supply_w, dtype=float)
        supply_w[0] = self.first_supply_w
        delta = np.diff(soc_wh)
        charged_wh = np.maximum(delta, 0.0)
        # charged - delta is -delta exactly where SoC fell and +0.0 elsewhere.
        discharged_wh = np.subtract(charged_wh, delta, out=delta)
        return SocTrace(
            timestep_s=self.timestep_s,
            soc_wh=soc_wh,
            supply_w=supply_w,
            demand_w=demand_w,
            shed_w=shed_w,
            charged_wh=charged_wh,
            discharged_wh=discharged_wh,
            shed_order=tuple(shed_order),
        )


def simulate_sol(sources: list[PowerSource], loads: list[PowerLoad],
                 battery: Battery, env: MarsEnvironment,
                 timestep_s: float = DEFAULT_TIMESTEP_S) -> SocTrace:
    """Step a battery through one sol of supply and demand.

    Each step: surplus charges the battery at ``charge_efficiency`` (and
    is lost once the battery is full); deficit discharges it at
    ``discharge_efficiency``; remaining unmet demand is shed and kept as
    the step's ``shed_w``. ``SocTrace.cuts`` assigns it to the active
    loads, sheddable and least critical first, as one cut per affected
    load per step.

    Raises:
        ValueError: on the first of ``sol_problems``, prefixed with the
            argument it concerns (for example ``loads[1].window: ``).
    """
    sol = _Sol(sources, loads, battery, env, timestep_s)
    demand_w = sol.demand(loads)
    return sol.trace(demand_w, sol.run(demand_w, loads))


@dataclass(frozen=True)
class ScheduleResult:
    admitted: tuple[PowerLoad, ...]
    feasible: bool
    verdicts: dict[str, bool]
    trace: SocTrace
    #: Steps covered by the bare sol and the trials together, those
    #: filled by slice after a fixed point included.
    stepped: int


def schedule_loads(sources: list[PowerSource], loads: list[PowerLoad],
                   battery: Battery, env: MarsEnvironment,
                   timestep_s: float = DEFAULT_TIMESTEP_S) -> ScheduleResult:
    """Greedily admit loads in ascending (priority, name) order.

    A candidate is admitted iff simulating the already admitted set plus
    the candidate cuts no non-sheddable load; a trial stops at the first
    such cut. ``feasible`` is true iff every input load is admitted. The
    returned trace is that of the final admitted set.

    The admitted run starts as a bare sol without loads. A trial differs
    from it only at the candidate's active steps [lo, hi): before ``lo``
    and after the trial's SoC rejoins the admitted run's, demand, shed
    order and SoC are all equal, so each trial resumes the admitted run
    at ``lo`` and stops at the first load edge at or after ``hi`` where
    its SoC equals the admitted run's (see ``_Sol.run``). The
    admitted run never cuts a non-sheddable load, so the steps a trial
    copies cannot change its verdict.
    """
    import numpy as np
    sol = _Sol(sources, loads, battery, env, timestep_s)
    admitted: list[PowerLoad] = []
    admitted_demand_w = np.zeros(sol.n_steps)
    admitted_run = sol.run(admitted_demand_w, admitted)
    verdicts: dict[str, bool] = {}
    for load in sorted(loads, key=lambda l: (l.priority, l.name)):
        demand_w = admitted_demand_w.copy()
        sol.add(demand_w, load)
        run = sol.run(demand_w, admitted + [load], admitted_run,
                      *sol.entries[load.name][:2])
        verdicts[load.name] = run is not None
        if run is not None:
            admitted.append(load)
            admitted_demand_w, admitted_run = demand_w, run
    return ScheduleResult(
        admitted=tuple(admitted),
        feasible=len(admitted) == len(loads),
        verdicts=verdicts,
        trace=sol.trace(admitted_demand_w, admitted_run),
        stepped=sol.stepped,
    )


def _time_text(time_s: float) -> str:
    """``time_s`` in 6 significant digits where they give it exactly,
    else in the shortest text that does."""
    text = f"{time_s:.6g}"
    return text if float(text) == time_s else repr(time_s)


def write_soc_csv(path, trace: SocTrace) -> None:
    """Write one row per step: time_s, end-of-step SoC, and that step's
    supply, demand and shed power."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "soc_wh", "supply_w", "demand_w", "shed_w"])
        n = len(trace.supply_w)
        for i in range(n):
            writer.writerow([
                _time_text(i * trace.timestep_s),
                f"{trace.soc_wh[i + 1]:.6f}",
                f"{trace.supply_w[i]:.6f}",
                f"{trace.demand_w[i]:.6f}",
                f"{trace.shed_w[i]:.6f}",
            ])
