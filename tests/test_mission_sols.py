"""A mission simulates each distinct sol once.

``run_mission`` keys a sol on its loads and the bits of its starting SoC
and regeneration credit; a sol whose key repeats an earlier one takes
that sol's numbers without calling ``simulate_sol``. The oracle,
``logged_sol_traces``, simulates every logged sol afresh from the inputs
its entry names, with no memo, and every entry must equal it bit for
bit.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from tubescout import mission
from tubescout.cli import main
from tubescout.config import MissionConfig, MissionSettings, load_config
from tubescout.energy import Battery, PowerSource, SourceKind, simulate_sol

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
#: ``two_tube_mission`` with 1000 sols in every phase: 7000 sols, 6 distinct.
LONG_SOLS_PER_PHASE = 1000
LONG_REPORT_SHA256 = "0f7456030f1063007ff40aa5016da18c2bd3d07ade082352713840fa8b5e858f"


def long_mission() -> dict:
    """The long mission's config, as a JSON object."""
    payload = json.loads((SCENARIOS / "two_tube_mission.json").read_text(encoding="utf-8"))
    sols = payload["mission"]["sols_per_phase"]
    payload["mission"]["sols_per_phase"] = dict.fromkeys(sols, LONG_SOLS_PER_PHASE)
    return payload


def logged_sol_traces(config: MissionConfig, sol_log: list[dict]):
    """Each logged sol's trace, simulated afresh from the inputs its entry
    names: its phase's loads, the SoC the previous entry ended with (the
    config's for the first sol), and a regeneration source when the entry
    was credited some. A generator, so that a long log holds one trace at
    a time."""
    soc_wh = config.battery.initial_soc_wh
    for entry in sol_log:
        sources = list(config.sources)
        if entry["regen_injected_wh"] > 0.0:
            sources.append(PowerSource(mission.REGEN_SOURCE_NAME,
                                       SourceKind.WINCH_REGEN, 0.0,
                                       entry["regen_injected_wh"]))
        loads = [t for t in config.loads if t.active_in(entry["phase"])]
        yield simulate_sol(sources, loads,
                           replace(config.battery, initial_soc_wh=soc_wh),
                           config.env, config.timestep_s)
        soc_wh = entry["final_soc_wh"]


def entry_numbers(entry: dict) -> tuple:
    """A sol-log entry's simulated numbers, floats by their bits."""
    return (entry["final_soc_wh"].hex(), entry["total_shed_wh"].hex(),
            entry["violations"], entry["hard_violations"])


def trace_numbers(trace) -> tuple:
    violations = hard_violations = 0
    for _, n, _, sheddable, _ in trace.cut_runs():
        violations += n
        hard_violations += 0 if sheddable else n
    return (trace.final_soc_wh.hex(), trace.total_shed_wh.hex(),
            violations, hard_violations)


def assert_log_equals_the_oracle(config: MissionConfig, sol_log: list[dict]) -> None:
    assert [entry["sol"] for entry in sol_log] == list(range(len(sol_log)))
    simulated = 0
    for entry, trace in zip(sol_log, logged_sol_traces(config, sol_log), strict=True):
        assert entry_numbers(entry) == trace_numbers(trace), entry
        simulated += 1
    assert simulated == len(sol_log)


def count_sols(monkeypatch) -> list:
    """Spy on the mission's ``simulate_sol``: one battery per call."""
    batteries = []

    def spy(sources, loads, battery, env, timestep_s):
        batteries.append(battery)
        return simulate_sol(sources, loads, battery, env, timestep_s)

    monkeypatch.setattr(mission, "simulate_sol", spy)
    return batteries


@pytest.mark.parametrize("seed", [7, 123])
@pytest.mark.parametrize("scenario, sols, distinct", [
    ("paper_baseline", 4, 3), ("cold_extreme", 6, 4), ("two_tube_mission", 11, 6)])
def test_every_sol_log_entry_equals_a_fresh_sol(monkeypatch, scenario, sols,
                                                distinct, seed):
    config = load_config(SCENARIOS / f"{scenario}.json")
    calls = count_sols(monkeypatch)
    report = mission.run_mission(config, seed_override=seed)
    sol_log = report["mission"]["sol_log"]
    assert report["mission"]["sols_simulated"] == len(sol_log) == sols
    assert len(calls) == distinct
    monkeypatch.undo()
    assert_log_equals_the_oracle(config, sol_log)


def test_the_long_mission_simulates_six_sols(monkeypatch, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(long_mission()), encoding="utf-8")
    calls = count_sols(monkeypatch)
    assert main(["mission", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 6
    monkeypatch.undo()
    report_bytes = (tmp_path / "out" / "report.json").read_bytes()
    assert hashlib.sha256(report_bytes).hexdigest() == LONG_REPORT_SHA256
    sol_log = json.loads(report_bytes)["mission"]["sol_log"]
    assert len(sol_log) == 7 * LONG_SOLS_PER_PHASE
    assert_log_equals_the_oracle(load_config(path), sol_log)


def test_a_zero_soc_of_either_sign_is_its_own_sol(monkeypatch):
    """A config SoC of -0.0 passes the nonnegative check. The first sol
    starts there and ends at 0.0, so the second differs from it only in
    the sign of its zero SoC and must be simulated too; the third repeats
    the second."""
    config = MissionConfig(
        battery=Battery(capacity_wh=100.0, initial_soc_wh=-0.0),
        sources=(), loads=(),
        mission=MissionSettings(events=(), sols_per_phase={"Initial": 3},
                                germination=None))
    calls = count_sols(monkeypatch)
    sol_log = mission.run_mission(config)["mission"]["sol_log"]
    assert [repr(b.initial_soc_wh) for b in calls] == ["-0.0", "0.0"]
    assert [repr(entry["final_soc_wh"]) for entry in sol_log] == ["0.0"] * 3
    monkeypatch.undo()
    assert_log_equals_the_oracle(config, sol_log)
