"""Mission phase state machine plus the multi-sol scenario runner.

The runner composes every model in the package: it drives the phase
machine over a scripted event list, simulates a power sol per phase
visit, runs a tube survey on each survey-complete event (crediting the
winch regeneration into the next sol's supply), logs each sol's radiation
dose with a phase-dependent cave fraction, and emits one consolidated
report dictionary. Identical config and seed give identical reports.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from tubescout.energy import DEFAULT_TIMESTEP_S, PowerSource, SourceKind, simulate_sol
from tubescout.env import MarsEnvironment, cumulative_dose
from tubescout.numeric import fold_sum, require_nonnegative
from tubescout.program import fte_estimate
from tubescout.report import (
    ANALYTIC_SECTIONS,
    ConfigError,
    Finding,
    echo,
    env_section,
    exploration_section,
    guard,
    place,
    power_inputs,
)
from tubescout.rng import GERMINATION_STREAM, chance_count, derive_seed
from tubescout.tube_explorer import (
    OBSTACLE,
    ExplorationReport,
    check_survey_work,
    generate_tube,
    make_fleet,
    read_map_file,
    run_exploration,
)

if TYPE_CHECKING:
    from tubescout.config import MissionConfig


class MissionPhase(enum.Enum):
    INITIAL = "Initial"
    TRANSIT = "Transit"
    SETTLEMENT = "Settlement"
    COMPLETE = "Complete"


class MissionEvent(enum.Enum):
    DEPLOYMENT_DONE = "DeploymentDone"
    ARRIVED_AT_TUBE = "ArrivedAtTube"
    TUBE_SURVEY_COMPLETE = "TubeSurveyComplete"
    RELOCATE_TO_NEXT_TUBE = "RelocateToNextTube"
    END_MISSION = "EndMission"


#: The source through which the mission credits winch regeneration to
#: the sol after a survey.
REGEN_SOURCE_NAME = "winch_regen"


class IllegalTransition(ValueError):
    """An event that the current mission phase does not accept."""


@dataclass(frozen=True)
class MissionState:
    phase: MissionPhase = MissionPhase.INITIAL
    sol: int = 0
    tubes_explored: int = 0

    def __post_init__(self):
        require_nonnegative(self, "sol", "tubes_explored")


#: Transit and settlement can loop to visit further tubes; a survey
#: completing keeps the crew-less outpost settled at the same tube.
_TRANSITIONS = {
    (MissionPhase.INITIAL, MissionEvent.DEPLOYMENT_DONE): MissionPhase.TRANSIT,
    (MissionPhase.TRANSIT, MissionEvent.ARRIVED_AT_TUBE): MissionPhase.SETTLEMENT,
    (MissionPhase.SETTLEMENT, MissionEvent.TUBE_SURVEY_COMPLETE): MissionPhase.SETTLEMENT,
    (MissionPhase.SETTLEMENT, MissionEvent.RELOCATE_TO_NEXT_TUBE): MissionPhase.TRANSIT,
}


def advance(state: MissionState, event: MissionEvent) -> MissionState:
    """Apply one event. EndMission completes the mission from any phase;
    a survey completing increments the explored-tube count; every other
    undefined (phase, event) pair raises IllegalTransition."""
    if event is MissionEvent.END_MISSION:
        return replace(state, phase=MissionPhase.COMPLETE)
    key = (state.phase, event)
    if key not in _TRANSITIONS:
        raise IllegalTransition(
            f"event {event.value} is not legal in phase {state.phase.value}")
    tubes = state.tubes_explored
    if event is MissionEvent.TUBE_SURVEY_COMPLETE:
        tubes += 1
    return MissionState(phase=_TRANSITIONS[key], sol=state.sol,
                        tubes_explored=tubes)


#: Upper bounds on a whole mission: the sols its visits simulate (each
#: phase visit's ``sols_per_phase``) and the tubes they survey. A sol at
#: 25 s steps takes 0.05-0.2 ms, from one without loads to one that
#: sheds six loads, and 1.6-3.2 ms at 1 s steps; the shipped tubes survey
#: in 3-6 ms, but one survey may take up to about 80 s at
#: ``MAX_SURVEY_WORK`` (CPython 3.11, numpy 2.4, 2 x86 CPUs).
MAX_MISSION_SOLS = 10_000
MAX_MISSION_SURVEYS = 20
#: Upper bound on the steps a mission's sols simulate in all: 10,000
#: default sols of 88,775 s at 25 s steps, 35.51M, which is 400 sols at
#: 1 s steps. With a battery that never fills, so that its SoC never
#: settles, no two sols start alike and every sol is simulated: with
#: ``two_tube_mission``'s two loads and a 400 W source, a mission at the
#: bound takes about 0.7 s at 25 s steps and 0.4 s at 1 s steps
#: (CPython 3.11, numpy 2.4, 2 x86 CPUs), where 10,000 such sols at 1 s
#: steps would take 25 times as long.
MAX_MISSION_SOL_STEPS = MAX_MISSION_SOLS * round(
    MarsEnvironment().sol_length_s / DEFAULT_TIMESTEP_S)


def phase_visits(config: "MissionConfig") -> list[tuple]:
    """The visits of the mission script from ``MissionState()``, each as
    (event, state entered, sols run): the first, in Initial, has no event,
    ``state.sol`` is the visit's first sol, and Complete runs no sols.
    Raises ConfigError before any sol runs: at ``config.mission.events[i]``
    for an event its phase does not accept, and at ``config.mission.events``
    once the visits so far pass a ``MAX_MISSION_*`` bound."""
    settings = config.mission
    sol_steps = round(config.env.sol_length_s / config.timestep_s)
    visits, state = [], MissionState()
    for i, event in enumerate((None, *settings.events)):
        if event is not None:
            try:
                state = advance(state, event)
            except IllegalTransition as exc:
                raise ConfigError([(f"config.mission.events[{i - 1}]",
                                    str(exc))]) from exc
        sols = (0 if state.phase is MissionPhase.COMPLETE
                else settings.sols_per_phase.get(state.phase.value, 0))
        visits.append((event, state, sols))
        state = replace(state, sol=state.sol + sols)
        if state.sol > MAX_MISSION_SOLS:
            too_many = f"{state.sol} sols, more than {MAX_MISSION_SOLS}"
        elif state.sol * sol_steps > MAX_MISSION_SOL_STEPS:
            too_many = (f"{state.sol} sols x {sol_steps} steps = "
                        f"{state.sol * sol_steps} sol steps, more than "
                        f"{MAX_MISSION_SOL_STEPS}")
        elif state.tubes_explored > MAX_MISSION_SURVEYS:
            too_many = (f"{state.tubes_explored} tube surveys, more than "
                        f"{MAX_MISSION_SURVEYS}")
        else:
            continue
        raise ConfigError([("config.mission.events",
                            f"the first {i} events run {too_many}")])
    return visits


#: Upper bound on the seeds of a germination trial: counted by jumps in
#: numpy (``rng.chance_count``), a million draws take 0.045-0.05 s and
#: 10,000 draws 0.8-0.9 ms (CPython 3.11, numpy 2.4, 2 x86 CPUs).
MAX_GERMINATION_SEEDS = 1_000_000


def check_germination(n_seeds: int, p_germinate: float) -> None:
    if not 0 <= n_seeds <= MAX_GERMINATION_SEEDS:
        raise ValueError(f"n_seeds must be in 0..{MAX_GERMINATION_SEEDS}, "
                         f"got {n_seeds}")
    if not 0.0 <= p_germinate <= 1.0:
        raise ValueError(f"p_germinate must be in [0, 1], got {p_germinate}")


@dataclass(frozen=True)
class GerminationTrial:
    """Outcome of n independent seed-germination draws."""

    n_seeds: int
    p_germinate: float
    seed: int
    germinated: int

    def __post_init__(self):
        check_germination(self.n_seeds, self.p_germinate)
        if not 0 <= self.germinated <= self.n_seeds:
            raise ValueError(
                f"germinated must be in [0, {self.n_seeds}], got {self.germinated}")


def germination_trial(n_seeds: int, p_germinate: float, seed: int) -> GerminationTrial:
    """Run n Bernoulli draws on the germination random stream. Bad
    bounds are rejected before any draw."""
    check_germination(n_seeds, p_germinate)
    germinated = chance_count(seed, GERMINATION_STREAM, n_seeds, p_germinate)
    return GerminationTrial(n_seeds=n_seeds, p_germinate=p_germinate,
                            seed=seed, germinated=germinated)


def explore_tube(config: "MissionConfig", seed: int,
                 index: int) -> tuple[dict, list[Finding], ExplorationReport]:
    """Survey tube ``index``: the configured map file, or else a tube
    generated from ``derive_seed(seed, index)``. Returns the exploration
    section (with its ``tube_seed``), its findings and the raw result.

    Every check of the tube runs here, before a tube is generated, and
    raises ConfigError: at ``config.exploration.map_file`` for a file that
    does not read as a map, at ``config.exploration`` for a survey past
    ``MAX_SURVEY_WORK``, and at ``config.exploration.sample_sites[i]`` for
    a site outside the tube or on a map file's obstacle (a site on a
    generated tube's obstacle is an undeliverable finding)."""
    exp = config.exploration
    grid = tube_seed = None
    if exp.map_file is not None:
        try:
            grid = read_map_file(exp.map_file)
        except FileNotFoundError as exc:
            raise ConfigError([("config.exploration.map_file",
                                f"map file not found: {exp.map_file}")]) from exc
        except (OSError, ValueError) as exc:
            raise ConfigError([("config.exploration.map_file", str(exc))]) from exc
        height, width = grid.cells.shape
    else:
        height, width = exp.generator.height, exp.generator.width
    try:
        check_survey_work(exp.robot_count, exp.max_steps, height * width)
    except ValueError as exc:
        raise ConfigError([("config.exploration", str(exc))]) from exc
    problems = []
    for i, site in enumerate(exp.sample_sites):
        row, col = cell = site.cell
        if not (0 <= row < height and 0 <= col < width):
            problem = f"cell {list(cell)} is outside the {width}x{height} map"
        elif grid is not None and grid.cells[row, col] == OBSTACLE:
            problem = f"cell {list(cell)} is an obstacle in the map"
        else:
            continue
        problems.append((f"config.exploration.sample_sites[{i}]", problem))
    if problems:
        raise ConfigError(problems)
    if grid is None:
        gen = exp.generator
        tube_seed = derive_seed(seed, index)
        grid = generate_tube(tube_seed, width, height,
                             gen.obstacle_density, gen.resolution_m)
    robots = make_fleet(grid, exp.robot_count, **exp.robot_overrides)
    result = run_exploration(grid, robots, station=exp.station,
                             max_steps=exp.max_steps, env=config.env,
                             sample_sites=exp.sample_sites)
    section, findings = exploration_section(result, grid)
    section["tube_seed"] = tube_seed
    return section, findings, result


def run_mission(config: "MissionConfig", seed_override: int | None = None) -> dict:
    """Execute the scripted mission and return the consolidated report.

    The runner runs the visits of ``phase_visits``, which checks the
    whole script first. Per visit it simulates the visit's sols,
    carrying battery state of charge from sol to sol; loads tagged with
    phase names only draw during those phases. Each survey-complete
    event explores one tube with ``explore_tube`` (a fixed map file if
    configured, surveyed once and reused, otherwise a tube generated from
    a per-tube derived seed), guarded as the ``exploration`` part as
    ``explore`` guards it, and credits the station's winch regeneration
    to the following sol.
    The germination trial runs on the first settlement entry.

    A sol is a pure function of the visit's loads, its starting SoC and
    the regeneration credited to it; the sources, the battery's capacity
    and efficiencies, ``env`` and ``timestep_s`` are the config's. So a
    dict local to the call keys each sol on those three, the two floats
    by their bits (``struct.pack``, so ``-0.0`` and ``0.0`` differ), and
    only the first sol of each key runs ``simulate_sol``: a later one
    takes its final SoC, shed energy and cut counts. The report's
    ``sols_simulated`` is still the sol log's length, one entry per sol
    of the script.

    The sol log (one entry per sol) and the tube sections (one per
    survey) are the mission's records: its counts, its infeasible sols
    and its dose and regeneration totals are read from them after the
    last visit, each total added left to right from 0.0.
    """
    settings = config.mission
    seed = settings.seed if seed_override is None else seed_override
    env = config.env
    findings: list[Finding] = []

    visits = phase_visits(config)
    sol_log: list[dict] = []
    tube_sections: list[dict] = []
    soc_wh = config.battery.initial_soc_wh
    # (loads, bits of the starting SoC and regeneration Wh) -> the sol-log
    # entry of the first sol with them. Load names are unique, so equal
    # load tuples hold the same loads.
    first_sols: dict[tuple, dict] = {}
    pending_regen_wh = 0.0
    germination: GerminationTrial | None = None
    survey = None

    for event, state, sols in visits:
        phase = state.phase.value
        if event is MissionEvent.TUBE_SURVEY_COMPLETE:
            index = state.tubes_explored - 1
            # A map file's survey does not depend on the tube index.
            if survey is None or config.exploration.map_file is None:
                survey = guard(("exploration",), explore_tube)(config, seed, index)
            section, tube_findings, result = survey
            tube_sections.append(dict(section, tube_index=index))
            findings.extend(tube_findings)
            pending_regen_wh += result.energy_regen_wh
        if (state.phase is MissionPhase.SETTLEMENT and germination is None
                and settings.germination is not None):
            germination = germination_trial(settings.germination.n_seeds,
                                            settings.germination.p_germinate,
                                            seed)
        dose_msv = cumulative_dose(env, settings.cave_fraction.get(phase, 0.0), 1.0)
        loads = tuple(t for t in config.loads if t.active_in(phase))
        for sol in range(state.sol, state.sol + sols):
            sources = list(config.sources)
            injected_wh = pending_regen_wh
            if injected_wh > 0.0:
                sources.append(PowerSource(REGEN_SOURCE_NAME, SourceKind.WINCH_REGEN,
                                           0.0, injected_wh))
                pending_regen_wh = 0.0
            key = (loads, struct.pack("dd", soc_wh, injected_wh))
            if key in first_sols:
                # The same numbers and regeneration credit; the phase and
                # its dose are the visit's.
                entry = dict(first_sols[key], sol=sol, phase=phase, dose_msv=dose_msv)
            else:
                trace = simulate_sol(sources, loads,
                                     replace(config.battery, initial_soc_wh=soc_wh),
                                     env, config.timestep_s)
                violations = hard_violations = 0
                for _, n, _, sheddable, _ in trace.cut_runs():
                    violations += n
                    hard_violations += 0 if sheddable else n
                entry = first_sols[key] = {
                    "sol": sol,
                    "phase": phase,
                    "final_soc_wh": trace.final_soc_wh,
                    "total_shed_wh": trace.total_shed_wh,
                    "violations": violations,
                    "hard_violations": hard_violations,
                    "regen_injected_wh": injected_wh,
                    "dose_msv": dose_msv,
                }
                # Drop this sol's trace before the next one is simulated.
                del trace
            sol_log.append(entry)
            soc_wh = entry["final_soc_wh"]

    infeasible_sols = [entry["sol"] for entry in sol_log if entry["hard_violations"]]
    if infeasible_sols:
        findings.append(Finding(
            kind="infeasible",
            module="energy",
            message=(f"unmet non-sheddable demand on "
                     f"{len(infeasible_sols)} sol(s)"),
            data={"sols": list(infeasible_sols)},
        ))
    total_regen_wh = 0.0 + fold_sum(s["energy_regen_wh"] for s in tube_sections)
    prog = config.program
    body = {
        "env": env_section(env),
        "energy": {
            "inputs": power_inputs(config.battery, config.sources,
                                   config.loads, config.timestep_s),
            "total_regen_credited_wh": total_regen_wh,
            "infeasible_sols": infeasible_sols,
        },
        "exploration": {"tubes": tube_sections, "total_regen_wh": total_regen_wh},
        "program": {"staffing": {
            "inputs": {"people": prog.fte_people, "years": prog.fte_years,
                       "fte_per_person_year": prog.fte_rate},
            "total_fte": fte_estimate(prog.fte_people, prog.fte_years,
                                      prog.fte_rate),
        }},
        "mission": {
            "events": [e.value for e in settings.events],
            "phase_log": [visit.phase.value for _, visit, _ in visits],
            "phases_visited": sorted({visit.phase.value for _, visit, _ in visits
                                      if visit.phase is not MissionPhase.COMPLETE}),
            "tubes_explored": len(tube_sections),
            "sols_simulated": len(sol_log),
            "total_dose_msv": 0.0 + fold_sum(entry["dose_msv"] for entry in sol_log),
            "germination": echo(germination),
            "sol_log": sol_log,
        },
    }
    # The analytic sections and their findings, as their subcommands give them.
    for path, build in ANALYTIC_SECTIONS.values():
        section, found = guard(path, build)(config)
        place(body, path, section)
        findings.extend(found)
    body["findings"] = [f.to_dict() for f in findings]
    return body
