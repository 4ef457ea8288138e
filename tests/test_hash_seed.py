"""Reports do not depend on Python's string hash seed.

Set and dict iteration over strings follows the hash seed, so a set of
names written into a report unsorted would differ between runs. Two
processes, under ``PYTHONHASHSEED`` 0 and 4242, run ``mission`` on every
shipped scenario and ``power`` on ``two_tube_mission``; each pair of
reports must be byte-identical.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
RUNS = [("mission", name) for name in
        ("paper_baseline", "cold_extreme", "two_tube_mission")]
RUNS.append(("power", "two_tube_mission"))

RUN = f"""
import sys
from tubescout.cli import main
out, scenarios = sys.argv[1], sys.argv[2]
for command, name in {RUNS!r}:
    code = main([command, "--config", f"{{scenarios}}/{{name}}.json",
                 "--out", f"{{out}}/{{command}}/{{name}}"])
    assert code == 0, (command, name, code)
"""


def run_reports(hash_seed: str, out: Path) -> dict:
    """Relative path -> bytes of every report written under ``hash_seed``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-c", RUN, str(out), str(SCENARIOS)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("report.json"))}


def test_reports_identical_across_hash_seeds(tmp_path):
    first = run_reports("0", tmp_path / "0")
    second = run_reports("4242", tmp_path / "4242")
    assert len(first) == len(RUNS)
    assert first.keys() == second.keys()
    assert [name for name in first if first[name] != second[name]] == []
