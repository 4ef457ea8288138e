"""Cold start: numpy is imported only by the runs that build arrays.

Each check starts a fresh interpreter, since this test process has
imported numpy long before. Loading any shipped scenario and the six
analytic subcommands, also on a scenario with sample sites, must leave
``numpy`` out of ``sys.modules``;
``power``, ``explore`` and ``mission``, which import it on first use,
must still write their golden reports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ("paper_baseline", "cold_extreme", "two_tube_mission")
ANALYTIC = ("balloon", "winch", "thermal", "budget", "cost", "schedule")


def fresh(code: str):
    """Run ``code`` in a new interpreter at the repository root and
    return the JSON value it prints last."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_loading_the_shipped_scenarios_imports_no_numpy():
    assert fresh(f"""
import json, sys
import tubescout.cli
from tubescout.config import load_config
for scenario in {SHIPPED!r}:
    load_config(f"scenarios/{{scenario}}.json")
print(json.dumps("numpy" in sys.modules))
""") is False


def test_analytic_subcommands_import_no_numpy():
    """The last config is paper_baseline with one sample site on its map."""
    codes, numpy_loaded = fresh(f"""
import contextlib, io, json, sys, tempfile
from pathlib import Path
from tubescout.cli import main
codes = []
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    raw = json.loads(Path("scenarios/paper_baseline.json").read_text())
    exploration = raw["exploration"]
    exploration["map_file"] = str(Path("scenarios", exploration["map_file"]).resolve())
    exploration["sample_sites"] = [{{"cell": [1, 1], "mass_kg": 1.0}}]
    site = Path(out, "site.json")
    site.write_text(json.dumps(raw))
    for config in [*(f"scenarios/{{s}}.json" for s in {SHIPPED!r}), str(site)]:
        for command in {ANALYTIC!r}:
            codes.append(main([command, "--config", config, "--out", out]))
print(json.dumps([codes, "numpy" in sys.modules]))
""")
    assert codes == [0] * (len(SHIPPED) + 1) * len(ANALYTIC)
    assert numpy_loaded is False


def test_array_subcommands_write_their_golden_reports():
    statuses, numpy_loaded = fresh("""
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "bench")
import golden, workloads
from tubescout.cli import main
table = golden.load_golden()
statuses = {}
with tempfile.TemporaryDirectory() as out:
    for case in workloads.matrix_cases():
        if case.argvs[0][0] in ("power", "explore", "mission"):
            results = golden.run_case(case, Path(out), main)[1]
            statuses[case.name] = golden.status(case, results, table)
print(json.dumps([statuses, "numpy" in sys.modules]))
""")
    assert len(statuses) == 3 * len(SHIPPED) + 1
    assert set(statuses.values()) == {"ok"}, statuses
    assert numpy_loaded is True
