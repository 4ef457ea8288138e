"""Tests for the mission state machine, germination trial, and runner."""

import json
from pathlib import Path

import pytest

import tubescout.mission
from tubescout.cli import main
from tubescout.config import (
    ConfigError,
    ExplorationSettings,
    GeneratorSettings,
    GerminationSettings,
    MissionConfig,
    MissionSettings,
    TaggedLoad,
    parse_config,
)
from tubescout.energy import Battery, PowerSource, SourceKind, winch_regen_energy
from tubescout.mission import (
    MAX_GERMINATION_SEEDS,
    GerminationTrial,
    IllegalTransition,
    MissionEvent,
    MissionPhase,
    MissionState,
    advance,
    germination_trial,
    run_mission,
)
from tubescout.report import dump_json
from tubescout.rng import Rng
from tubescout.tube_explorer import Station

E = MissionEvent
P = MissionPhase

SMALL_EXPLORATION = ExplorationSettings(
    generator=GeneratorSettings(width=8, height=8, obstacle_density=0.2),
    robot_count=2,
)

TWO_TUBE_EVENTS = (E.DEPLOYMENT_DONE, E.ARRIVED_AT_TUBE, E.TUBE_SURVEY_COMPLETE,
                   E.RELOCATE_TO_NEXT_TUBE, E.ARRIVED_AT_TUBE,
                   E.TUBE_SURVEY_COMPLETE, E.END_MISSION)


def small_config(**mission_kwargs) -> MissionConfig:
    return MissionConfig(
        exploration=SMALL_EXPLORATION,
        mission=MissionSettings(**mission_kwargs),
    )


class TestAdvance:
    def test_deployment_starts_transit(self):
        state = advance(MissionState(), E.DEPLOYMENT_DONE)
        assert state.phase is P.TRANSIT
        assert state.tubes_explored == 0

    def test_arrival_settles(self):
        state = advance(MissionState(phase=P.TRANSIT), E.ARRIVED_AT_TUBE)
        assert state.phase is P.SETTLEMENT

    def test_survey_complete_stays_settled_and_counts_tube(self):
        state = advance(MissionState(phase=P.SETTLEMENT, tubes_explored=1),
                        E.TUBE_SURVEY_COMPLETE)
        assert state.phase is P.SETTLEMENT
        assert state.tubes_explored == 2

    def test_relocate_loops_back_to_transit(self):
        state = advance(MissionState(phase=P.SETTLEMENT), E.RELOCATE_TO_NEXT_TUBE)
        assert state.phase is P.TRANSIT

    @pytest.mark.parametrize("phase", [P.INITIAL, P.TRANSIT, P.SETTLEMENT,
                                       P.COMPLETE])
    def test_end_mission_completes_from_any_phase(self, phase):
        state = advance(MissionState(phase=phase, sol=3, tubes_explored=2),
                        E.END_MISSION)
        assert state.phase is P.COMPLETE
        assert state.sol == 3
        assert state.tubes_explored == 2

    @pytest.mark.parametrize("phase, event", [
        (P.INITIAL, E.ARRIVED_AT_TUBE),
        (P.INITIAL, E.TUBE_SURVEY_COMPLETE),
        (P.INITIAL, E.RELOCATE_TO_NEXT_TUBE),
        (P.TRANSIT, E.DEPLOYMENT_DONE),
        (P.TRANSIT, E.TUBE_SURVEY_COMPLETE),
        (P.TRANSIT, E.RELOCATE_TO_NEXT_TUBE),
        (P.SETTLEMENT, E.DEPLOYMENT_DONE),
        (P.SETTLEMENT, E.ARRIVED_AT_TUBE),
        (P.COMPLETE, E.DEPLOYMENT_DONE),
        (P.COMPLETE, E.ARRIVED_AT_TUBE),
    ])
    def test_undefined_pairs_rejected(self, phase, event):
        with pytest.raises(IllegalTransition, match="not legal"):
            advance(MissionState(phase=phase), event)

    def test_tubes_only_increment_on_survey_complete(self):
        state = MissionState()
        for event in TWO_TUBE_EVENTS:
            before = state.tubes_explored
            state = advance(state, event)
            expected = before + (1 if event is E.TUBE_SURVEY_COMPLETE else 0)
            assert state.tubes_explored == expected
        assert state.tubes_explored == 2
        assert state.phase is P.COMPLETE

    def test_sol_preserved_by_transitions(self):
        state = MissionState(sol=7)
        state = advance(state, E.DEPLOYMENT_DONE)
        assert state.sol == 7

    def test_state_validation(self):
        with pytest.raises(ValueError, match="sol"):
            MissionState(sol=-1)
        with pytest.raises(ValueError, match="tubes_explored"):
            MissionState(tubes_explored=-1)

    def test_event_name_parsing(self):
        config = parse_config({"mission": {"events": ["DeploymentDone", "EndMission"]}})
        assert config.mission.events == (E.DEPLOYMENT_DONE, E.END_MISSION)
        with pytest.raises(ConfigError, match="unknown mission event"):
            parse_config({"mission": {"events": ["Teleport"]}})


class TestGerminationTrial:
    def test_certain_germination(self):
        assert germination_trial(500, 1.0, 3).germinated == 500

    def test_certain_failure(self):
        assert germination_trial(500, 0.0, 3).germinated == 0

    @pytest.mark.parametrize("seed", [0, 1, 42, 12345, 2**40])
    def test_large_trial_near_rate(self, seed):
        trial = germination_trial(10_000, 0.7, seed)
        assert abs(trial.germinated / trial.n_seeds - 0.7) <= 0.02

    def test_deterministic_per_seed(self):
        a = germination_trial(1000, 0.7, 9)
        b = germination_trial(1000, 0.7, 9)
        c = germination_trial(1000, 0.7, 10)
        assert a.germinated == b.germinated
        assert a != c

    def test_zero_seeds(self):
        assert germination_trial(0, 0.7, 1).germinated == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="n_seeds"):
            germination_trial(-1, 0.7, 1)
        with pytest.raises(ValueError, match="p_germinate"):
            germination_trial(10, 1.5, 1)
        with pytest.raises(ValueError, match="p_germinate"):
            germination_trial(10, -0.1, 1)

    @pytest.mark.parametrize("n_seeds, p_germinate", [
        (MAX_GERMINATION_SEEDS + 1, 0.7), (10, 1.5)])
    def test_bounds_checked_before_any_draw(self, monkeypatch, n_seeds, p_germinate):
        draws = []  # one entry per stepped word
        fill = Rng._fill  # the one step loop, under words and the kernel's head
        monkeypatch.setattr(Rng, "_fill", lambda rng, out:
                            draws.extend([rng] * len(out)) or fill(rng, out))
        assert germination_trial(3, 0.5, 1).n_seeds == len(draws) == 3
        draws.clear()
        with pytest.raises(ValueError):
            germination_trial(n_seeds, p_germinate, 1)
        assert draws == []

    def test_trial_record_invariants(self):
        with pytest.raises(ValueError, match="germinated"):
            GerminationTrial(n_seeds=10, p_germinate=0.5, seed=1, germinated=11)


def phase_log_matches_pattern(log):
    """Initial (Transit Settlement+)* Complete, as phase-name strings."""
    import re
    compact = " ".join(log)
    return re.fullmatch(r"Initial( (Transit( Settlement)+))* Complete",
                        compact) is not None


class TestRunMission:
    def test_default_single_tube_report(self):
        report = run_mission(small_config())
        assert sorted(report.keys()) == ["aerostat", "energy", "env",
                                         "exploration", "findings", "mission",
                                         "program", "thermal"]
        m = report["mission"]
        assert m["phase_log"] == ["Initial", "Transit", "Settlement",
                                  "Settlement", "Complete"]
        assert m["tubes_explored"] == 1
        assert m["sols_simulated"] == 4
        assert len(report["exploration"]["tubes"]) == 1

    def test_end_mission_immediately(self):
        report = run_mission(small_config(events=(E.END_MISSION,)))
        m = report["mission"]
        assert m["tubes_explored"] == 0
        assert m["phases_visited"] == ["Initial"]
        assert m["phase_log"] == ["Initial", "Complete"]
        assert m["sols_simulated"] == 1
        assert m["germination"] is None
        assert report["exploration"]["tubes"] == []

    def test_two_tube_script(self):
        report = run_mission(small_config(events=TWO_TUBE_EVENTS))
        m = report["mission"]
        assert m["tubes_explored"] == 2
        transitions = sum(1 for a, b in zip(m["phase_log"], m["phase_log"][1:])
                          if a == "Transit" and b == "Settlement")
        assert transitions == 2
        assert phase_log_matches_pattern(m["phase_log"])
        assert len(report["exploration"]["tubes"]) == 2

    def test_phase_log_pattern_on_default(self):
        report = run_mission(small_config())
        assert phase_log_matches_pattern(report["mission"]["phase_log"])

    def test_regen_credit_equals_tubes_times_per_descent(self):
        config = small_config(events=TWO_TUBE_EVENTS)
        report = run_mission(config)
        per_descent = winch_regen_energy(config.winch, config.env)
        expected = report["mission"]["tubes_explored"] * per_descent
        assert report["energy"]["total_regen_credited_wh"] == expected

    def test_regen_injected_on_sol_after_survey(self):
        report = run_mission(small_config())
        injected = [e for e in report["mission"]["sol_log"]
                    if e["regen_injected_wh"] > 0]
        assert len(injected) == 1
        assert injected[0]["phase"] == "Settlement"
        assert injected[0]["sol"] == 3

    def test_dose_closure(self):
        report = run_mission(small_config(events=TWO_TUBE_EVENTS))
        m = report["mission"]
        assert m["total_dose_msv"] == pytest.approx(
            sum(e["dose_msv"] for e in m["sol_log"]), rel=1e-12)

    def test_phase_dependent_dose(self):
        report = run_mission(small_config())
        for entry in report["mission"]["sol_log"]:
            if entry["phase"] in ("Initial", "Transit"):
                assert entry["dose_msv"] == pytest.approx(14.795)
            else:
                assert entry["dose_msv"] == pytest.approx(7.4035)

    def test_germination_runs_on_first_settlement(self):
        report = run_mission(small_config())
        germ = report["mission"]["germination"]
        assert germ is not None
        assert germ["n_seeds"] == 10_000
        assert abs(germ["germinated"] / germ["n_seeds"] - 0.7) <= 0.02

    def test_germination_disabled(self):
        report = run_mission(small_config(germination=None))
        assert report["mission"]["germination"] is None

    def test_byte_identical_reports(self):
        a = dump_json(run_mission(small_config(events=TWO_TUBE_EVENTS)))
        b = dump_json(run_mission(small_config(events=TWO_TUBE_EVENTS)))
        assert a == b

    def test_seed_override_changes_generated_tubes(self):
        config = small_config()
        base = run_mission(config)
        other = run_mission(config, seed_override=99)
        assert base["mission"]["phase_log"] == other["mission"]["phase_log"]
        assert (base["exploration"]["tubes"][0]["tube_seed"]
                != other["exploration"]["tubes"][0]["tube_seed"])

    def test_map_file_used_for_every_tube(self, tmp_path):
        from tubescout.tube_explorer import generate_tube, write_map_file
        grid = generate_tube(5, 8, 8, 0.15)
        path = tmp_path / "fixed.map"
        write_map_file(path, grid)
        config = MissionConfig(
            exploration=ExplorationSettings(map_file=str(path), robot_count=2),
            mission=MissionSettings(events=TWO_TUBE_EVENTS),
        )
        report = run_mission(config)
        tubes = report["exploration"]["tubes"]
        assert len(tubes) == 2
        assert all(t["tube_seed"] is None for t in tubes)
        assert tubes[0]["inputs"] == tubes[1]["inputs"]
        assert tubes[0]["coverage_fraction"] == 1.0

    @pytest.mark.parametrize("map_file, surveys", [(True, 1), (False, 3)])
    def test_map_file_is_surveyed_once(self, tmp_path, monkeypatch, map_file,
                                       surveys):
        from tubescout.tube_explorer import generate_tube, write_map_file
        exploration = SMALL_EXPLORATION
        if map_file:
            path = tmp_path / "fixed.map"
            write_map_file(path, generate_tube(5, 8, 8, 0.15))
            exploration = ExplorationSettings(map_file=str(path), robot_count=2)
        events = (E.DEPLOYMENT_DONE, E.ARRIVED_AT_TUBE, E.TUBE_SURVEY_COMPLETE,
                  E.TUBE_SURVEY_COMPLETE, E.TUBE_SURVEY_COMPLETE, E.END_MISSION)
        config = MissionConfig(exploration=exploration,
                               mission=MissionSettings(events=events))
        runs = []
        explore = tubescout.mission.run_exploration
        monkeypatch.setattr(tubescout.mission, "run_exploration",
                            lambda *args, **kwargs: runs.append(1)
                            or explore(*args, **kwargs))
        tubes = run_mission(config)["exploration"]["tubes"]
        assert len(runs) == surveys
        assert [t["tube_index"] for t in tubes] == [0, 1, 2]
        if map_file:
            assert all(dict(t, tube_index=0) == tubes[0] for t in tubes)
        else:
            assert len({t["tube_seed"] for t in tubes}) == 3

    def test_illegal_script_reports_event_position(self, monkeypatch):
        monkeypatch.setattr(tubescout.mission, "simulate_sol", pytest.fail)
        config = small_config(events=(E.DEPLOYMENT_DONE, E.TUBE_SURVEY_COMPLETE))
        with pytest.raises(ConfigError) as exc_info:
            run_mission(config)
        assert exc_info.value.errors == [(
            "config.mission.events[1]",
            "event TubeSurveyComplete is not legal in phase Transit")]

    def test_script_past_a_bound_runs_no_sol(self, monkeypatch):
        """The whole script is walked before the first sol: the eleventh
        visit of 1000 sols passes ``MAX_MISSION_SOLS``."""
        monkeypatch.setattr(tubescout.mission, "simulate_sol", pytest.fail)
        config = small_config(
            sols_per_phase={"Initial": 1000, "Transit": 1000, "Settlement": 1000},
            events=(E.DEPLOYMENT_DONE, E.ARRIVED_AT_TUBE,
                    *(E.RELOCATE_TO_NEXT_TUBE, E.ARRIVED_AT_TUBE) * 4,
                    E.END_MISSION))
        with pytest.raises(ConfigError) as exc_info:
            run_mission(config)
        assert exc_info.value.errors == [(
            "config.mission.events",
            "the first 10 events run 11000 sols, more than 10000")]

    def test_battery_carries_between_sols(self):
        config = MissionConfig(
            battery=Battery(capacity_wh=1000.0, initial_soc_wh=500.0),
            sources=(),
            loads=(),
            exploration=SMALL_EXPLORATION,
            mission=MissionSettings(),
        )
        report = run_mission(config)
        socs = [e["final_soc_wh"] for e in report["mission"]["sol_log"]]
        # Idle sols hold charge; the post-survey sol banks the winch
        # regeneration at charge efficiency.
        regen = winch_regen_energy(config.winch, config.env)
        expected_last = 500.0 + regen * config.battery.charge_efficiency
        assert socs == pytest.approx([500.0, 500.0, 500.0, expected_last])

    def test_phase_tagged_load_draws_only_in_its_phase(self):
        heater = TaggedLoad("greenhouse_heater", 511.5, (44375.0, 88775.0),
                            priority=2, sheddable=False, phases=("Settlement",))
        config = MissionConfig(
            battery=Battery(capacity_wh=0.0, initial_soc_wh=0.0),
            sources=(PowerSource("rtg", SourceKind.CONSTANT, 110.0),),
            loads=(heater,),
            exploration=SMALL_EXPLORATION,
            mission=MissionSettings(),
        )
        report = run_mission(config)
        by_phase = {}
        for entry in report["mission"]["sol_log"]:
            by_phase.setdefault(entry["phase"], []).append(entry["hard_violations"])
        assert all(v == 0 for v in by_phase["Initial"] + by_phase["Transit"])
        assert all(v > 0 for v in by_phase["Settlement"])
        kinds = [f["kind"] for f in report["findings"]]
        assert "infeasible" in kinds

    def test_segment_sols_config(self):
        report = run_mission(small_config(
            sols_per_phase={"Initial": 2, "Transit": 0, "Settlement": 3}))
        m = report["mission"]
        # 2 initial + 0 transit + 3 per settlement visit (arrival + survey)
        assert m["sols_simulated"] == len(m["sol_log"]) == 2 + 0 + 3 + 3
        phases = [e["phase"] for e in m["sol_log"]]
        assert phases == ["Initial"] * 2 + ["Settlement"] * 6

    def test_exploration_coverage_complete_on_generated_tube(self):
        report = run_mission(small_config())
        tube = report["exploration"]["tubes"][0]
        assert tube["coverage_fraction"] == 1.0
        assert tube["tube_index"] == 0

    def test_station_without_winch_credits_nothing(self):
        config = MissionConfig(
            exploration=ExplorationSettings(
                generator=GeneratorSettings(width=8, height=8),
                robot_count=2,
                station=Station(winch=None),
            ),
            mission=MissionSettings(),
        )
        report = run_mission(config)
        assert report["energy"]["total_regen_credited_wh"] == 0.0

    def test_drained_battery_without_source_sheds_to_the_end(self):
        """The configured battery is full, so the config is valid; once it
        drains, each later sol has no power and sheds its load in full."""
        config = parse_config({
            "power": {"battery": {"capacity_wh": 100.0, "initial_soc_wh": 100.0},
                      "sources": [],
                      "loads": [{"name": "heater", "power_w": 50.0,
                                 "sheddable": True}]},
            "mission": {"sols_per_phase": {"Initial": 2}}})
        report = run_mission(config)
        log = report["mission"]["sol_log"]
        assert report["mission"]["sols_simulated"] == len(log) == 5
        assert [e["final_soc_wh"] for e in log] == [0.0] * 5
        assert all(e["violations"] > 0 and e["total_shed_wh"] > 0
                   and e["hard_violations"] == 0 for e in log)
        assert report["energy"]["infeasible_sols"] == []

    def test_totals_of_a_mission_without_sols_or_surveys_are_floats(self):
        report = run_mission(small_config(events=(), sols_per_phase={"Initial": 0}))
        assert report["mission"]["sol_log"] == []
        assert report["mission"]["sols_simulated"] == 0
        text = dump_json(report)
        assert '"total_dose_msv": 0.0,' in text
        assert '"total_regen_credited_wh": 0.0' in text
        assert '"total_regen_wh": 0.0' in text

    def test_survey_in_a_visit_without_sols_is_credited(self):
        report = run_mission(small_config(
            sols_per_phase={"Initial": 0, "Transit": 0, "Settlement": 0}))
        [tube] = report["exploration"]["tubes"]
        assert report["mission"]["sol_log"] == []
        assert tube["energy_regen_wh"] > 0.0
        assert (report["energy"]["total_regen_credited_wh"]
                == report["exploration"]["total_regen_wh"]
                == tube["energy_regen_wh"])


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

#: Each analytic subcommand and the report path of its section, in the
#: order the mission report collects their findings.
ANALYTIC_PATHS = (
    ("balloon", ("aerostat",)),
    ("winch", ("energy", "winch")),
    ("thermal", ("thermal",)),
    ("budget", ("program", "budget")),
    ("cost", ("program", "cost")),
    ("schedule", ("program", "schedule")),
)


@pytest.mark.parametrize("scenario", ["paper_baseline.json", "cold_extreme.json",
                                      "two_tube_mission.json"])
def test_analytic_sections_equal_the_mission_sections(tmp_path, scenario):
    def run(command) -> dict:
        out = tmp_path / command
        assert main([command, "--config", str(SCENARIOS / scenario),
                     "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text(encoding="utf-8"))

    mission = run("mission")
    analytic_findings = []
    for command, path in ANALYTIC_PATHS:
        report = run(command)
        assert set(report) == {"version", "seed", "config", "findings", path[0]}
        assert report["config"] == mission["config"]
        section, expected = report, mission
        for key in path:
            section, expected = section[key], expected[key]
        assert section == expected, command
        analytic_findings += report["findings"]
    assert analytic_findings
    tail = mission["findings"][len(mission["findings"]) - len(analytic_findings):]
    assert tail == analytic_findings
