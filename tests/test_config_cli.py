"""Tests for scenario-config loading/validation and the command line."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tubescout.aerostat import AreaModel
from tubescout.cli import main
from tubescout.config import (
    MAX_JSON_DEPTH,
    MAX_MISSION_SOL_STEPS,
    MAX_MISSION_SOLS,
    MAX_MISSION_SURVEYS,
    ConfigError,
    MissionConfig,
    _read_json,
    load_config,
    parse_config,
    parse_wbs_file,
    to_echo_dict,
)
from tubescout.energy import MAX_SOL_WORK, SourceKind
from tubescout.mission import MissionEvent
from tubescout.program import rollup_cost
from tubescout.report import dump_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def error_paths(exc_info) -> list:
    return [path for path, _ in exc_info.value.errors]


class TestShippedScenarios:
    def test_paper_baseline_loads_clean(self):
        config = load_config(SCENARIOS / "paper_baseline.json")
        assert config.balloon.lifting_gas_density_kg_m3 == 0.008008584
        assert config.balloon.area_model is AreaModel.OUTER_LATERAL_ONLY
        assert config.winch.payload_mass_kg == 500.0
        assert config.battery.capacity_wh == 0.0
        assert config.timestep_s == 25.0
        assert len(config.loads) == 1
        assert config.loads[0].phases == ("Settlement",)
        assert config.exploration.map_file.endswith("tube_20x20_seed42.map")
        assert Path(config.exploration.map_file).is_file()
        assert rollup_cost(config.program.wbs) == 181_417_003
        assert len(config.program.phases) == 7
        assert config.mission.seed == 42

    def test_cold_extreme_loads_clean(self):
        config = load_config(SCENARIOS / "cold_extreme.json")
        assert config.env.night_low_c == -90.0
        assert config.avionics.heater_power_w == 510.0
        assert len(config.loads) == 2

    def test_two_tube_loads_clean(self):
        config = load_config(SCENARIOS / "two_tube_mission.json")
        assert len(config.mission.events) == 7
        assert config.mission.events.count(MissionEvent.TUBE_SURVEY_COMPLETE) == 2
        kinds = {s.kind for s in config.sources}
        assert kinds == {SourceKind.CONSTANT, SourceKind.WIND_TURBINE}


class TestParseConfig:
    def test_empty_config_equals_defaults(self):
        assert parse_config({}) == MissionConfig()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"ballon": {}})

    def test_unknown_nested_key_path(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config({"winch": {"depth": 100}})
        assert "config.winch.depth" in error_paths(exc_info)

    def test_bad_geometry_reported_at_its_path(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config({"balloon": {"geometry": {
                "outer_radius_m": 3.0, "inner_radius_m": 7.0}}})
        assert "config.balloon.geometry" in error_paths(exc_info)

    def test_map_file_and_generator_mutually_exclusive(self, tmp_path):
        map_path = tmp_path / "m.map"
        map_path.write_text("E\n")
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config({"exploration": {
                "map_file": str(map_path),
                "generator": {"width": 8, "height": 8},
            }}, base_dir=tmp_path)

    def test_missing_map_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config({"exploration": {"map_file": "absent.map"}},
                         base_dir=tmp_path)

    def test_map_file_resolved_relative_to_config_dir(self, tmp_path):
        from tubescout.tube_explorer import generate_tube, write_map_file
        write_map_file(tmp_path / "rel.map", generate_tube(3, 6, 6))
        config_path = write_config(tmp_path, {
            "exploration": {"map_file": "rel.map"}})
        config = load_config(config_path)
        assert config.exploration.map_file == str(tmp_path / "rel.map")

    def test_all_errors_collected(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config({
                "winch": {"payload_mass_kg": -5},
                "enclosure": {"glazed_area_m2": 0},
                "mission": {"seed": -1},
                "unknown_block": {},
            })
        assert len(exc_info.value.errors) >= 4

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "env": {,}\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_env_preset_and_overrides(self):
        config = parse_config({"env": {
            "preset": "cold_extreme", "overrides": {"day_high_c": 5.0}}})
        assert config.env.night_low_c == -90.0
        assert config.env.day_high_c == 5.0
        assert config.env_overrides == {"day_high_c": 5.0}

    def test_unknown_env_preset(self):
        with pytest.raises(ConfigError, match="unknown environment preset"):
            parse_config({"env": {"preset": "tropical"}})

    def test_unknown_env_override_field(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config({"env": {"overrides": {"wind_speed": 9.0}}})
        assert "config.env.overrides.wind_speed" in error_paths(exc_info)

    def test_balloon_null_density_means_derived(self):
        config = parse_config({"balloon": {
            "lifting_gas_density_kg_m3": None,
            "gas_molar_mass_kg_mol": 0.004}})
        assert config.balloon.lifting_gas_density_kg_m3 is None
        assert config.balloon.gas_molar_mass_kg_mol == 0.004

    def test_bad_area_model_lists_choices(self):
        with pytest.raises(ConfigError, match="outer_lateral_only"):
            parse_config({"balloon": {"area_model": "spherical"}})

    def test_bad_source_kind_lists_choices(self):
        with pytest.raises(ConfigError, match="wind_turbine"):
            parse_config({"power": {"sources": [
                {"name": "x", "kind": "fusion", "rating_w": 1.0}]}})

    def test_load_window_shape_checked(self):
        with pytest.raises(ConfigError, match="start_s"):
            parse_config({"power": {"loads": [
                {"name": "x", "power_w": 5.0, "window_s": [1.0]}]}})

    def test_load_phase_names_checked(self):
        with pytest.raises(ConfigError, match="unknown phase"):
            parse_config({"power": {"loads": [
                {"name": "x", "power_w": 5.0, "phases": ["Orbit"]}]}})

    def test_timestep_must_divide_sol(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config({"power": {"timestep_s": 60.0}})
        assert "config.power.timestep_s" in error_paths(exc_info)

    def test_custom_timestep_accepted(self):
        config = parse_config({"power": {"timestep_s": 5.0}})
        assert config.timestep_s == 5.0

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"mission": {"seed": -3}})

    def test_unknown_event_name(self):
        with pytest.raises(ConfigError, match="unknown mission event"):
            parse_config({"mission": {"events": ["Warp"]}})

    def test_unknown_phase_code(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config({"program": {"phases": [
                {"code": "PreA", "start_year": 2022},
                {"code": "F", "start_year": 2030},
                {"code": "G", "start_year": 2031}]}})
        assert exc_info.value.errors == [(
            "config.program.phases[2].code",
            "unknown phase code 'G' (known: PreA, A, B, C, D, E, F)")]

    def test_phase_map_validation(self):
        with pytest.raises(ConfigError, match="unknown phase"):
            parse_config({"mission": {"sols_per_phase": {"Orbit": 1}}})
        with pytest.raises(ConfigError, match="nonnegative"):
            parse_config({"mission": {"sols_per_phase": {"Transit": -1}}})
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            parse_config({"mission": {"cave_fraction": {"Settlement": 1.5}}})

    def test_phase_maps_merge_with_defaults(self):
        config = parse_config({"mission": {"sols_per_phase": {"Settlement": 5}}})
        assert config.mission.sols_per_phase == {
            "Initial": 1, "Transit": 1, "Settlement": 5}

    def test_germination_null_disables(self):
        config = parse_config({"mission": {"germination": None}})
        assert config.mission.germination is None

    def test_final_drop_checked_against_tolerance(self):
        with pytest.raises(ConfigError, match="drop tolerance"):
            parse_config({"exploration": {
                "robots": {"count": 1, "drop_tolerance_m": 1.0},
                "station": {"final_drop_m": 2.0}}})

    def test_final_drop_within_tolerance_ok(self):
        config = parse_config({"exploration": {
            "station": {"final_drop_m": 1.5}}})
        assert config.exploration.final_drop_m == 1.5

    def test_station_without_winch(self):
        config = parse_config({"exploration": {"station": {"use_winch": False}}})
        assert config.exploration.station.winch is None

    def test_wbs_money_string_costs(self):
        config = parse_config({"program": {"wbs": {
            "name": "root", "level": 2, "children": [
                {"name": "a", "level": 3, "cost_usd": "$1,000"},
                {"name": "b", "level": 3, "cost_usd": "2.000"},
            ]}}})
        assert rollup_cost(config.program.wbs) == 3000

    def test_wbs_bad_money_string(self):
        with pytest.raises(ConfigError, match="fractional dollars"):
            parse_config({"program": {"wbs": {
                "name": "root", "level": 2, "cost_usd": "1,23"}}})
        with pytest.raises(ConfigError, match="unparseable money amount"):
            parse_config({"program": {"wbs": {
                "name": "root", "level": 2, "cost_usd": "one dollar"}}})

    def test_payload_registry_parsed(self):
        config = parse_config({"program": {"payloads": [
            {"name": "box", "mass_kg": 10.0, "volume_m3": 0.1,
             "power_w": 5.0, "wbs_cost_usd": 100}]}})
        assert len(config.program.payloads) == 1
        assert config.program.payloads[0].name == "box"

    def test_robot_overrides_flow_through(self):
        config = parse_config({"exploration": {"robots": {
            "count": 2, "module_count": 4, "speed_mps": 1.0}}})
        assert config.exploration.robot_count == 2
        assert config.exploration.robot_overrides == {
            "module_count": 4, "speed_mps": 1.0}

    def test_generator_params_validated(self):
        with pytest.raises(ConfigError, match="obstacle_density"):
            parse_config({"exploration": {"generator": {"obstacle_density": 2.0}}})

    def test_echo_is_json_serializable_and_normalized(self):
        config = load_config(SCENARIOS / "paper_baseline.json")
        echo = to_echo_dict(config)
        text = dump_json(echo)
        assert '"wbs_total_usd": 181417003' in text
        assert json.loads(text)["mission"]["seed"] == 42

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)


class TestParseWbsFile:
    def test_standalone_wbs(self, tmp_path):
        path = tmp_path / "wbs.json"
        path.write_text(json.dumps({
            "name": "alt", "level": 2, "children": [
                {"name": "x", "level": 3, "cost_usd": 7}]}))
        wbs = parse_wbs_file(path)
        assert rollup_cost(wbs) == 7

    def test_invalid_wbs_file(self, tmp_path):
        path = tmp_path / "wbs.json"
        path.write_text(json.dumps({"name": "alt", "level": 2,
                                    "cost_usd": -4}))
        with pytest.raises(ConfigError):
            parse_wbs_file(path)


def run_cli(*argv) -> int:
    return main(list(argv))


def read_report(out_dir) -> dict:
    return json.loads((Path(out_dir) / "report.json").read_text())


BASELINE = str(SCENARIOS / "paper_baseline.json")


class TestCli:
    @pytest.mark.parametrize("command", ["balloon", "winch", "thermal",
                                         "power", "explore", "budget", "cost",
                                         "schedule", "mission"])
    def test_every_subcommand_defaults_clean(self, tmp_path, command):
        out = tmp_path / "out"
        assert run_cli(command, "--out", str(out)) == 0
        report = read_report(out)
        for key in ("config", "version", "seed", "findings"):
            assert key in report

    def test_cost_reports_program_total(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("cost", "--config", BASELINE, "--out", str(out)) == 0
        report = read_report(out)
        assert report["program"]["cost"]["total_cost_usd"] == 181_417_003

    def test_power_strict_flags_infeasible_baseline(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("power", "--config", BASELINE, "--out", str(out),
                       "--strict") == 1
        report = read_report(out)
        kinds = [f["kind"] for f in report["findings"]]
        assert "infeasible" in kinds

    def test_power_without_strict_exits_zero(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("power", "--config", BASELINE, "--out", str(out)) == 0

    def test_strict_ignores_non_infeasible_findings(self, tmp_path):
        config = write_config(tmp_path, {
            "program": {"launch_year": 2040, "deadline_year": 2033}})
        out = tmp_path / "out"
        assert run_cli("schedule", "--config", config, "--out", str(out),
                       "--strict") == 0
        report = read_report(out)
        assert report["findings"][0]["kind"] == "limit_violation"

    @pytest.mark.parametrize("command, payload, finding, strict_rc", [
        ("balloon", {"balloon": {"area_model": "full_wetted"}},
         ("infeasible", "aerostat", ["overall_density_kg_m3"]), 1),
        ("explore", {"exploration": {"max_steps": 1}},
         ("infeasible", "tube_explorer", ["coverage_fraction", "steps"]), 1),
        ("budget", {"program": {"limits": {"payload_mass_limit_kg": 100}}},
         ("limit_violation", "program", ["margins"]), 0),
    ], ids=["aerostat", "coverage", "budget"])
    def test_finding_fires_and_sets_strict_exit(self, tmp_path, command,
                                                payload, finding, strict_rc):
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli(command, "--config", config, "--out", str(out),
                       "--strict") == strict_rc
        assert finding in [(f["kind"], f["module"], sorted(f["data"]))
                           for f in read_report(out)["findings"]]

    def test_mission_byte_identical_for_same_seed(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("mission", "--config", BASELINE, "--out", str(out_a)) == 0
        assert run_cli("mission", "--config", BASELINE, "--out", str(out_b)) == 0
        assert ((out_a / "report.json").read_bytes()
                == (out_b / "report.json").read_bytes())

    def test_seed_override_controls_explore(self, tmp_path):
        out_a, out_b, out_c = (tmp_path / n for n in "abc")
        assert run_cli("explore", "--out", str(out_a), "--seed", "5") == 0
        assert run_cli("explore", "--out", str(out_b), "--seed", "5") == 0
        assert run_cli("explore", "--out", str(out_c), "--seed", "6") == 0
        a, b, c = (read_report(o) for o in (out_a, out_b, out_c))
        assert a == b
        assert a["exploration"]["tube_seed"] != c["exploration"]["tube_seed"]
        assert a["seed"] == 5 and c["seed"] == 6

    def test_balloon_reports_both_area_models(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("balloon", "--config", BASELINE, "--out", str(out)) == 0
        report = read_report(out)
        by_model = report["aerostat"]["by_area_model"]
        assert by_model["outer_lateral_only"]["buoyant"] is True
        assert by_model["full_wetted"]["buoyant"] is False
        kinds = [f["kind"] for f in report["findings"]]
        assert "discrepancy_vs_paper" in kinds

    def test_csv_format_writes_soc_trace(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("power", "--config", BASELINE, "--out", str(out),
                       "--format", "csv") == 0
        lines = (out / "soc_trace.csv").read_text().splitlines()
        assert lines[0] == "time_s,soc_wh,supply_w,demand_w,shed_w"
        assert len(lines) == 1 + 88775 // 25

    def test_power_near_the_float_limit_prints_nothing_on_stderr(self, tmp_path):
        """A 1e307 W source charges a 1e308 Wh battery by about 7e304 Wh a
        step, so the sol kernel's running sum of a stretch passes the
        clamp and then the largest float, which numpy would warn about.
        A fresh interpreter shows warnings as Python's defaults do."""
        config = write_config(tmp_path, {"power": {
            "battery": {"capacity_wh": 1e308, "initial_soc_wh": 0.0},
            "sources": [{"name": "rtg", "kind": "constant", "rating_w": 1e307}],
            "loads": [{"name": "drill", "power_w": 2e307,
                       "window_s": [50000.0, 75000.0]}]}})
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "tubescout.cli", "power", "--config", config,
             "--out", str(out)], env=env, capture_output=True, text=True,
            timeout=300)
        assert (done.returncode, done.stderr) == (0, "")
        power = read_report(out)["energy"]["power"]
        del power["inputs"]
        assert power == {
            "feasible": True, "final_soc_wh": 6.325127923976545e+307,
            "schedule": {"admitted": ["drill"], "feasible": True,
                         "verdicts": {"drill": True}},
            "total_shed_wh": 0.0, "unmet_loads": [], "violation_count": 0}

    def test_csv_format_writes_robot_stats(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("explore", "--config", BASELINE, "--out", str(out),
                       "--format", "csv") == 0
        lines = (out / "exploration_robots.csv").read_text().splitlines()
        assert lines[0].startswith("robot_id,")
        assert len(lines) == 4

    def test_wbs_flag_overrides_config_tree(self, tmp_path):
        wbs_path = tmp_path / "alt.json"
        wbs_path.write_text(json.dumps({
            "name": "alt", "level": 2, "children": [
                {"name": "x", "level": 3, "cost_usd": 12345}]}))
        out = tmp_path / "out"
        assert run_cli("cost", "--config", BASELINE, "--out", str(out),
                       "--wbs", str(wbs_path)) == 0
        assert read_report(out)["program"]["cost"]["total_cost_usd"] == 12345

    def test_config_errors_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {"winch": {"depth_m": -1}})
        assert run_cli("winch", "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        assert "config.winch" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert run_cli("mission", "--config", str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "out")) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert run_cli("mission", "--config", str(path),
                       "--out", str(tmp_path / "out")) == 2
        assert "JSON parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, text", [
        ("winch", "--config", '{"exploration": {"max_steps": %s}}'),
        ("cost", "--wbs", '{"name": "root", "level": 1, "cost_usd": %s}'),
    ], ids=["config", "wbs"])
    def test_integer_past_digit_limit_exits_2(self, tmp_path, capsys, command,
                                              flag, text):
        path = tmp_path / "huge.json"
        path.write_text(text % ("9" * 5000))
        assert run_cli(command, flag, str(path),
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
        assert "4300 digits" in err[0]

    @pytest.mark.parametrize("flag, wrap", [
        ("--config", lambda tree: {"program": {"wbs": tree}}),
        ("--wbs", lambda tree: tree),
    ], ids=["config", "wbs"])
    def test_deep_nesting_exits_2(self, tmp_path, capsys, flag, wrap):
        tree = {"name": "leaf", "level": 250, "cost_usd": 1}
        for level in range(249, 0, -1):
            tree = {"name": f"n{level}", "level": level, "children": [tree]}
        path = tmp_path / "deep.json"
        # too deep for the converters' recursion, and for json's own
        for text in (json.dumps(wrap(tree)), "[" * 100_000):
            path.write_text(text)
            assert run_cli("cost", flag, str(path),
                           "--out", str(tmp_path / "out")) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: {path}: JSON nesting deeper than {MAX_JSON_DEPTH} levels"]

    def test_json_depth_limit_is_inclusive(self, tmp_path):
        path = tmp_path / "lists.json"
        path.write_text("[" * MAX_JSON_DEPTH + "]" * MAX_JSON_DEPTH)
        assert _read_json(path) is not None
        path.write_text("[" * (MAX_JSON_DEPTH + 1) + "]" * (MAX_JSON_DEPTH + 1))
        with pytest.raises(ConfigError):
            _read_json(path)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert run_cli("explore", "--out", str(tmp_path / "out"),
                       "--seed", "-4") == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("teleport")
        assert exc_info.value.code == 2

    def test_mission_scenario_two_tubes(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("mission", "--config",
                       str(SCENARIOS / "two_tube_mission.json"),
                       "--out", str(out)) == 0
        report = read_report(out)
        assert report["mission"]["tubes_explored"] == 2

    def test_findings_printed_to_stdout(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("power", "--config", BASELINE, "--out", str(out))
        captured = capsys.readouterr().out
        assert "report.json" in captured
        assert "finding[infeasible]" in captured


README = Path(__file__).resolve().parent.parent / "README.md"


class TestInputValidation:
    def test_readme_example_config_parses(self):
        text = README.read_text(encoding="utf-8")
        block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
        raw = json.loads(re.sub(r"//[^\n]*", "", block))
        # The example shows both tube sources; they are mutually exclusive.
        del raw["exploration"]["generator"]
        config = parse_config(raw, base_dir=SCENARIOS)
        assert config.program.limits.payload_mass_limit_kg == 1000.0
        assert config.program.fte_rate == 220
        assert config.exploration.robot_overrides == {"speed_mps": 1.7}

    @pytest.mark.parametrize("payload, path, shown", [
        ({"winch": {"payload_mass_kg": float("nan")}},
         "config.winch.payload_mass_kg", "nan"),
        ({"env": {"overrides": {"gravity": float("nan")}}},
         "config.env.overrides.gravity", "nan"),
        ({"enclosure": {"glazed_area_m2": float("inf")}},
         "config.enclosure.glazed_area_m2", "inf"),
        ({"power": {"loads": [{"name": "x", "power_w": 1.0,
                               "window_s": [0.0, float("-inf")]}]}},
         "config.power.loads[0].window_s[1]", "-inf"),
    ])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, payload, path,
                                       shown):
        config = write_config(tmp_path, payload)
        assert run_cli("winch", "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        assert (f"error: {path}: expected a finite number, got {shown}"
                in capsys.readouterr().err)

    def test_load_window_past_sol_reported_at_its_path(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config({"power": {"loads": [
                {"name": "a", "power_w": 1.0, "window_s": [0.0, 100.0]},
                {"name": "b", "power_w": 1.0, "window_s": [44375.0, 90000.0]}]}})
        assert error_paths(exc_info) == ["config.power.loads[1].window_s"]

    def test_nonpositive_timestep_rejected(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config({"power": {"timestep_s": -25.0}})
        assert "config.power.timestep_s" in error_paths(exc_info)

    @pytest.mark.parametrize("command", ["explore", "mission"])
    @pytest.mark.parametrize("cell", [[-1, 0], [50, 50], [0, 8]])
    def test_sample_site_outside_map_exits_2(self, tmp_path, capsys, command,
                                             cell):
        config = write_config(tmp_path, {"exploration": {
            "generator": {"width": 8, "height": 8},
            "sample_sites": [{"cell": [1, 1], "mass_kg": 1.0},
                             {"cell": cell, "mass_kg": 1.0}]}})
        assert run_cli(command, "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"error: config.exploration.sample_sites[1]: cell {cell}" in err

    def test_sample_site_checked_against_map_file(self, tmp_path):
        from tubescout.tube_explorer import generate_tube, write_map_file
        write_map_file(tmp_path / "t.map", generate_tube(3, 6, 4))
        with pytest.raises(ConfigError) as exc_info:
            parse_config({"exploration": {"map_file": "t.map", "sample_sites": [
                {"cell": [5, 0], "mass_kg": 1.0}]}}, base_dir=tmp_path)
        assert exc_info.value.errors == [(
            "config.exploration.sample_sites[0]",
            "cell [5, 0] is outside the 6x4 map")]

    @pytest.mark.parametrize("key", ["aux_capacity_l", "max_obstacle_mm"])
    def test_unsimulated_robot_keys_rejected(self, key):
        with pytest.raises(ConfigError) as exc_info:
            parse_config({"exploration": {"robots": {key: 1.0}}})
        assert error_paths(exc_info) == [f"config.exploration.robots.{key}"]

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="missing required key 'mass_kg'"):
            parse_config({"program": {"payloads": [
                {"name": "box", "volume_m3": 0.1, "power_w": 5.0,
                 "wbs_cost_usd": 100}]}})

    def test_empty_phase_list_echoed_the_same_everywhere(self, tmp_path):
        config = write_config(tmp_path, {"power": {"loads": [
            {"name": "idle", "power_w": 5.0, "phases": []}]}})
        out = tmp_path / "out"
        assert run_cli("mission", "--config", config, "--out", str(out)) == 0
        report = read_report(out)
        assert report["config"]["power"]["loads"][0]["phases"] == []
        assert report["energy"]["inputs"]["loads"][0]["phases"] == []

    @pytest.mark.parametrize("command", ["winch", "explore", "mission"])
    def test_sample_site_on_map_obstacle_exits_2(self, tmp_path, capsys, command):
        (tmp_path / "t.map").write_text("E.#\n...\n")
        config = write_config(tmp_path, {"exploration": {
            "map_file": "t.map",
            "sample_sites": [{"cell": [1, 2], "mass_kg": 1.0},
                             {"cell": [0, 2], "mass_kg": 1.0}]}})
        assert run_cli(command, "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        assert ("error: config.exploration.sample_sites[1]: cell [0, 2] is an "
                "obstacle in the map" in capsys.readouterr().err)

    def test_undeliverable_sample_sites_reported(self, tmp_path):
        # E on top; (2, 0) is walled off, (1, 3) lies on an obstacle of the
        # generated map, and 9 kg is over the 6 kg module limit.
        from tubescout.rng import derive_seed
        from tubescout.tube_explorer import generate_tube, grid_to_text
        assert grid_to_text(generate_tube(derive_seed(42, 0), 8, 8, 0.3)) == (
            "...E..#.\n..#.#...\n#..#.#..\n#.#.#...\n"
            "#.#...#.\n.#.#...#\n.#.###..\n##....#.\n")
        config = write_config(tmp_path, {"exploration": {
            "generator": {"width": 8, "height": 8, "obstacle_density": 0.3},
            "sample_sites": [{"cell": [0, 0], "mass_kg": 1.0},
                             {"cell": [1, 4], "mass_kg": 1.0},
                             {"cell": [5, 0], "mass_kg": 1.0},
                             {"cell": [1, 3], "mass_kg": 9.0}]}})
        out = tmp_path / "out"
        assert run_cli("explore", "--config", config, "--out", str(out)) == 0
        found = [f for f in read_report(out)["findings"]
                 if "sample site" in f["message"]]
        assert [(f["kind"], f["message"], f["data"]) for f in found] == [
            ("infeasible", "sample site 1 cannot be delivered: cell [1, 4] is "
             "an obstacle", {"config_path": "config.exploration.sample_sites[1]"}),
            ("infeasible", "sample site 2 cannot be delivered: cell [5, 0] is "
             "not connected to the entrance",
             {"config_path": "config.exploration.sample_sites[2]"}),
            ("infeasible", "sample site 3 cannot be delivered: its 9.0 kg "
             "exceed every robot's 6.0 kg module limit",
             {"config_path": "config.exploration.sample_sites[3]"})]
        assert run_cli("explore", "--config", config, "--out", str(out),
                       "--strict") == 1

    @pytest.mark.parametrize("command", ["winch", "power"])
    @pytest.mark.parametrize("key, item", [
        ("sources", {"name": "rtg", "kind": "constant", "power_w": 50.0}),
        ("loads", {"name": "rtg", "power_w": 5.0}),
    ])
    def test_duplicate_power_names_exit_2(self, tmp_path, capsys, command, key,
                                          item):
        config = write_config(tmp_path, {"power": {key: [
            {**item, "name": "a"}, {**item, "name": "b"}, {**item, "name": "a"}]}})
        assert run_cli(command, "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        assert (f"error: config.power.{key}[2].name: duplicate name 'a' "
                f"(also {key}[0])" in capsys.readouterr().err)

    def test_sols_per_phase_capped(self, tmp_path, capsys):
        from tubescout.config import MAX_SOLS_PER_PHASE
        config = write_config(tmp_path, {"mission": {"sols_per_phase": {
            "Transit": MAX_SOLS_PER_PHASE, "Settlement": 10**12}}})
        assert run_cli("winch", "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert (f"error: config.mission.sols_per_phase.Settlement: must be in "
                f"[0, {MAX_SOLS_PER_PHASE}], got {10**12}" in err)
        assert "Transit" not in err

    @pytest.mark.parametrize("timestep", [0.5, 0.001, 1e-6, 5e-324])
    def test_too_short_timestep_exits_2(self, tmp_path, capsys, timestep):
        config = write_config(tmp_path, {"power": {"timestep_s": timestep}})
        assert run_cli("balloon", "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        assert (f"error: config.power.timestep_s: timestep {timestep} s is too "
                f"short" in capsys.readouterr().err)

    def test_sol_length_capped(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "env": {"overrides": {"sol_length_s": 1e12}},
            "power": {"timestep_s": 1e7}})
        assert run_cli("thermal", "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        assert ("error: config.env: sol_length_s must be at most 1000000"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["schedule", "mission"])
    @pytest.mark.parametrize("program, message", [
        ({"phases": []}, "phase list must be nonempty"),
        ({"phases": [{"code": "A", "start_year": 2023},
                     {"code": "A", "start_year": 2024}]},
         "duplicate phase codes in ['A', 'A']"),
        ({"fte": {"fte_per_person_year": -1}},
         "fte_per_person_year must be nonnegative, got -1"),
    ])
    def test_bad_program_exits_2(self, tmp_path, capsys, command, program,
                                 message):
        config = write_config(tmp_path, {"program": program})
        assert run_cli(command, "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: config.program: {message}"]

    def test_no_source_and_empty_battery_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {"power": {
            "battery": {"capacity_wh": 0.0, "initial_soc_wh": 0.0},
            "sources": [], "loads": [{"name": "heater", "power_w": 5.0}]}})
        assert run_cli("power", "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        assert ("error: config.power.sources: no power source and an empty "
                "battery cannot serve loads" in capsys.readouterr().err)

    def test_unprintable_unknown_key_keeps_one_error_line(self, tmp_path, capsys):
        config = write_config(tmp_path, {"avionics": {"\r": None}})
        assert run_cli("winch", "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: config.avionics.'\\r': unknown key '\\r'"]

    def test_non_finite_report_value_exits_2(self, tmp_path, capsys, monkeypatch):
        import tubescout.report as report
        monkeypatch.setattr(report, "winch_section",
                            lambda winch, env: {"raw_kw": float("nan")})
        out = tmp_path / "out"
        assert run_cli("winch", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (out / "report.json").exists()

    def test_illegal_event_script_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {"mission": {"events": [
            "DeploymentDone", "TubeSurveyComplete", "EndMission"]}})
        assert run_cli("winch", "--config", config,
                       "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: config.mission.events[1]: event TubeSurveyComplete is not "
            "legal in phase Transit"]


SUBCOMMANDS = ("balloon", "winch", "thermal", "power", "explore", "budget",
               "cost", "schedule", "mission")
ONE_SITE = [{"cell": [1, 1], "mass_kg": 1.0}]

#: (payload, error line) for inputs a model refuses. Every subcommand
#: must reject them at parse time, naming the config path.
MODEL_RULES = [
    ({"exploration": {"generator": {"obstacle_density": 1.0}}},
     "config.exploration.generator: obstacle_density must be in [0, 1), "
     "got 1.0"),
    ({"exploration": {"robots": {"module_count": 7}}},
     "config.exploration.robots: module_count must be in 2..5, got 7"),
    ({"exploration": {"robots": {"speed_mps": 0}}},
     "config.exploration.robots: speed_mps must be positive, got 0.0"),
    ({"exploration": {"robots": {"reserve_factor": 0.5}}},
     "config.exploration.robots: reserve_factor must be >= 1, got 0.5"),
    ({"exploration": {"robots": {"aux_capacity_kg": 0}}},
     "config.exploration.robots: aux_capacity_kg must be positive, got 0.0"),
    ({"power": {"sources": [{"name": "winch_regen", "rating_w": 5.0}]}},
     "config.power.sources[0].name: duplicate name 'winch_regen' (also the "
     "mission's winch regeneration source)"),
    # Sample sites make the config read the map.
    ({"exploration": {"map_file": "two.map", "sample_sites": ONE_SITE}},
     "config.exploration.map_file: map must have exactly one entrance, "
     "found 2"),
    ({"exploration": {"station": {"final_drop_m": -1}}},
     "config.exploration.station.final_drop_m: final_drop_m must be "
     "nonnegative, got -1.0"),
    ({"power": {"sources": [{"name": "rtg", "rating_w": -1}]}},
     "config.power.sources[0]: rating_w must be nonnegative, got -1.0"),
    ({"power": {"sources": [{"name": "", "rating_w": 5.0}]}},
     "config.power.sources[0]: source name must be nonempty"),
    ({"power": {"sources": [{"name": "regen", "kind": "winch_regen",
                             "event_energy_wh": -2}]}},
     "config.power.sources[0]: event_energy_wh must be nonnegative, got -2.0"),
    ({"env": {"overrides": {"gas_constant": 0}}},
     "config.env: gas_constant must be positive, got 0.0"),
    ({"exploration": {"robots": {"count": 100}, "max_steps": 1_000_000}},
     "config.exploration: survey work robots.count x max_steps x (map cells "
     "+ 60) = 100 x 1000000 x (400 + 60) = 46000000000 exceeds 250000000"),
]
#: The same for map files without sample sites, which only the survey reads.
SURVEY_RULES = [
    ({"exploration": {"map_file": "two.map"}},
     "config.exploration.map_file: map must have exactly one entrance, "
     "found 2"),
    ({"exploration": {"map_file": str(SCENARIOS / "tube_20x20_seed42.map"),
                      "robots": {"count": 100}, "max_steps": 1_000_000}},
     "config.exploration: survey work robots.count x max_steps x (map cells "
     "+ 60) = 100 x 1000000 x (400 + 60) = 46000000000 exceeds 250000000"),
    # Within the survey work budget, but past the tube-size cap.
    ({"exploration": {"map_file": "wide.map", "max_steps": 1}},
     "config.exploration.map_file: map dimensions 1001x1000 exceed 1000000 "
     "cells"),
]


def sol_work(sol_steps: int) -> dict:
    """23 always-on loads on a sol of ``sol_steps`` 1 s steps: at 70,000
    steps, exactly ``MAX_SOL_WORK`` = 25 x 70000 x 24."""
    return {"env": {"overrides": {"sol_length_s": float(sol_steps)}},
            "power": {"timestep_s": 1.0, "loads": [
                {"name": f"l{k:02d}", "power_w": 10.0} for k in range(23)]}}


#: Power configs just over the sol work bound.
SOL_WORK_RULES = [
    (sol_work(70_001),
     "config.power.loads: sol work (loads + 2) x sol steps x (loads + 1) = "
     "25 x 70001 x 24 = 42000600 exceeds 42000000"),
]


def mission_sols(initial_sols: int) -> dict:
    """Ten Transit and Settlement visits of 1000 sols each after
    ``initial_sols`` Initial sols: at 0, exactly ``MAX_MISSION_SOLS``."""
    return {"mission": {
        "sols_per_phase": {"Initial": initial_sols, "Transit": 1000,
                           "Settlement": 1000},
        "events": ["DeploymentDone", "ArrivedAtTube",
                   *["RelocateToNextTube", "ArrivedAtTube"] * 4, "EndMission"]}}


def mission_surveys(surveys: int) -> dict:
    """A mission without sols that surveys ``surveys`` tubes."""
    return {"mission": {
        "sols_per_phase": {"Initial": 0, "Transit": 0, "Settlement": 0},
        "events": ["DeploymentDone", "ArrivedAtTube",
                   *["TubeSurveyComplete"] * surveys, "EndMission"]}}


def mission_sols_at_1s(sols: int) -> dict:
    """``sols`` sols of the 88,775 s sol at 1 s steps, one in Initial and
    the rest split between Transit and Settlement: at 400, exactly
    ``MAX_MISSION_SOL_STEPS``."""
    return {"power": {"timestep_s": 1.0}, "mission": {
        "sols_per_phase": {"Initial": 1, "Transit": (sols - 1) // 2,
                           "Settlement": sols - 1 - (sols - 1) // 2},
        "events": ["DeploymentDone", "ArrivedAtTube", "EndMission"]}}


#: Missions one sol, one survey or one sol's steps past their bound.
MISSION_RULES = [
    (mission_sols(1),
     "config.mission.events: the first 10 events run 10001 sols, more than "
     "10000"),
    (mission_surveys(21),
     "config.mission.events: the first 23 events run 21 tube surveys, more "
     "than 20"),
    (mission_sols_at_1s(401),
     "config.mission.events: the first 2 events run 401 sols x 88775 steps "
     "= 35598775 sol steps, more than 35510000"),
]
#: Map files the rules above name, written beside the config.
MAP_FILES = {
    "two.map": "E.E\n...\n",
    "wide.map": "E" + "." * 1000 + "\n" + ("." * 1001 + "\n") * 999,
}


def test_sol_work_at_the_bound_loads(tmp_path):
    config = load_config(write_config(tmp_path, sol_work(70_000)))
    assert (len(config.loads) + 2) * 70_000 * (len(config.loads) + 1) == MAX_SOL_WORK


def test_missions_at_the_bounds_load(tmp_path):
    config = load_config(write_config(tmp_path, mission_sols(0)))
    # Every event but EndMission starts a visit of 1000 sols.
    assert (len(config.mission.events) - 1) * 1000 == MAX_MISSION_SOLS
    config = load_config(write_config(tmp_path, mission_sols_at_1s(400)))
    assert sum(config.mission.sols_per_phase.values()) * 88_775 \
        == MAX_MISSION_SOL_STEPS
    config = load_config(write_config(tmp_path,
                                      mission_surveys(MAX_MISSION_SURVEYS)))
    assert config.mission.events.count(
        MissionEvent.TUBE_SURVEY_COMPLETE) == MAX_MISSION_SURVEYS


@pytest.mark.parametrize("command, payload, error", [
    *[(command, payload, error) for payload, error in MODEL_RULES
      for command in SUBCOMMANDS],
    *[(command, payload, error) for payload, error in SURVEY_RULES
      for command in ("explore", "mission")],
    *[(command, payload, error) for payload, error in SOL_WORK_RULES
      for command in ("power", "mission")],
    *[(command, payload, error) for payload, error in MISSION_RULES
      for command in ("winch", "mission")],
])
def test_model_rules_exit_2_with_a_config_path(tmp_path, capsys, command,
                                               payload, error):
    map_file = payload.get("exploration", {}).get("map_file")
    if map_file in MAP_FILES:
        (tmp_path / map_file).write_text(MAP_FILES[map_file])
    config = write_config(tmp_path, payload)
    assert run_cli(command, "--config", config,
                   "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
