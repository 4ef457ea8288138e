"""Reports do not depend on Python's string hash seed.

Set and dict iteration over strings follows the hash seed, so a set of
names written into a report unsorted would differ between runs. Two
processes, under ``PYTHONHASHSEED`` 0 and 4242, run each command line of
``RUNS``: ``mission`` on every shipped scenario and with ``--seed 123``,
``thermal``, ``power`` plain, ``--strict`` and ``--format csv``,
``explore --seed 7`` on ``two_tube_mission`` and on each of ``SURVEYS``,
and ``mission`` on the long mission, whose repeated sols are looked up
in a dict keyed on their inputs.
Each run must exit 0, and each file written must be byte-identical
across the two processes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_mission_sols import long_mission

ROOT = Path(__file__).resolve().parent.parent
REPORT, SOC, ROBOTS = "report.json", "soc_trace.csv", "exploration_robots.csv"


def shipped(name: str) -> str:
    return str(ROOT / "scenarios" / f"{name}.json")


def survey(size: int, robots: dict, max_steps: int, **more) -> dict:
    """A survey of a generated ``size`` x ``size`` tube."""
    return {"exploration": {"generator": {"width": size, "height": size},
                            "robots": robots, "max_steps": max_steps, **more}}


def site(row: int, col: int, mass_kg: float) -> dict:
    return {"cell": [row, col], "mass_kg": mass_kg}


CROWD = {"count": 30, "battery_full_s": 1e9}
CHARGE = {"charge_time_s": 5.0}
#: Explore configs, written as ``NAME.json`` in the runs' working directory.
SURVEYS = {
    # 30 robots: those that find every target claimed take the "nothing"
    # answer, and many search maps taller than the shipped tubes. On
    # 128x128 the target searches' bit sets span about 17k cells; 500
    # steps is about the most the survey work bound allows there.
    "crowd": survey(48, CROWD, 2000),
    "tall": survey(64, CROWD, 2000),
    "wide": survey(128, CROWD, 500),
    # Robots that go home to charge between targets and sample pickups.
    "short": survey(28, {"count": 3, "battery_full_s": 60}, 4000, station=CHARGE,
                    sample_sites=[site(5, 5, 1.0), site(20, 14, 2.0)]),
    # Robots that shuttle between the entrance and the frontier, and stall.
    "stall": survey(28, {"count": 3, "battery_full_s": 23.5}, 3000, station=CHARGE),
    # Two of three sites heavier than a 2 kg module can lift.
    "heavy": survey(28, {"count": 3, "battery_full_s": 60, "aux_capacity_kg": 2.0},
                    4000, station=CHARGE, sample_sites=[
                        site(5, 5, 1.0), site(20, 14, 6.5), site(12, 9, 2.5)]),
    # A site at the module limit, which is inclusive.
    "limit": {"exploration": {"robots": {"aux_capacity_kg": 2.0},
                              "sample_sites": [site(5, 6, 2.0)]}},
    # A site in an open pocket walled off from the entrance.
    "pocket": {"exploration": {"map_file": "pocket.map",
                               "sample_sites": [site(4, 0, 1.0)]}},
}
POCKET_MAP = "...E..\n......\n####.#\n..#...\n..#...\n"
#: (name, argv, files written): a run writes into ``COMMAND/NAME``.
RUNS = [
    *((name, ["mission", "--config", shipped(name)], [REPORT])
      for name in ("paper_baseline", "cold_extreme", "two_tube_mission")),
    ("two_tube_mission", ["power", "--config", shipped("two_tube_mission")], [REPORT]),
    ("strict", ["power", "--config", shipped("two_tube_mission"), "--strict"],
     [REPORT]),
    ("cold_extreme", ["power", "--config", shipped("cold_extreme"),
                      "--format", "csv"], [REPORT, SOC]),
    ("seed123", ["mission", "--config", shipped("two_tube_mission"),
                 "--seed", "123"], [REPORT]),
    ("long", ["mission", "--config", "long.json"], [REPORT]),
    ("cold_extreme", ["thermal", "--config", shipped("cold_extreme")], [REPORT]),
    ("two_tube_mission", ["explore", "--config", shipped("two_tube_mission"),
                          "--seed", "7", "--format", "csv"], [REPORT, ROBOTS]),
    *((name, ["explore", "--config", f"{name}.json", "--seed", "7"], [REPORT])
      for name in ("crowd", "tall", "wide", "heavy", "limit", "pocket")),
    *((name, ["explore", "--config", f"{name}.json", "--seed", "7",
              "--format", "csv"], [REPORT, ROBOTS]) for name in ("short", "stall")),
]

RUN = """
import json, sys
from tubescout.cli import main
for argv, out in json.loads(sys.argv[1]):
    code = main([*argv, "--out", out])
    assert code == 0, (argv, code)
"""


def run_files(hash_seed: str, cwd: Path) -> dict:
    """Relative path -> bytes of every file the runs write under ``hash_seed``."""
    out = cwd / hash_seed
    runs = [(argv, str(out / argv[0] / name)) for name, argv, _ in RUNS]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-c", RUN, json.dumps(runs)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The files written under hash seed 0, and under 4242."""
    cwd = tmp_path_factory.mktemp("hash_seed")
    for name, payload in SURVEYS.items():
        (cwd / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
    (cwd / "pocket.map").write_text(POCKET_MAP, encoding="utf-8")
    (cwd / "long.json").write_text(json.dumps(long_mission()), encoding="utf-8")
    return run_files("0", cwd), run_files("4242", cwd)


def test_reports_identical_across_hash_seeds(files):
    first, second = files
    assert sorted(first) == sorted(f"{argv[0]}/{name}/{file}"
                                 for name, argv, written in RUNS for file in written)
    assert first.keys() == second.keys()
    assert [name for name in first if first[name] != second[name]] == []


def test_a_stalled_survey_reports_where_it_stopped(files):
    assert (b"survey stopped at coverage 0.347 after 3000 steps"
            in files[0]["explore/stall/report.json"])
