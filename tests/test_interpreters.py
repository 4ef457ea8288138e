"""The analytic reports are byte-identical on every supported Python.

For each other interpreter found on this machine, the six analytic
subcommands run from ``src`` on ``paper_baseline`` and on a variant
whose payloads all weigh 0.1 kg, a registry whose mass total sums
differently under Python 3.12's compensated ``sum()``. Each report must
equal, byte for byte, the one this interpreter writes. These
subcommands import no numpy, so an interpreter without it will do.

The ``power``, ``explore`` and ``mission`` reports need numpy to run, so
this interpreter writes them for the three shipped scenarios, and each
other interpreter serializes them again with ``report.dump_json``: the
bytes must not change, whichever encoder that Python's ``dump_json``
picks.

An interpreter that cannot be found, or does not start, is skipped; a
run that fails once it has started fails the test.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
VERSIONS = ("3.10", "3.12", "3.13")
ANALYTIC = ("balloon", "winch", "thermal", "budget", "cost", "schedule")
ARRAYS = ("power", "explore", "mission")
SHIPPED = ("paper_baseline", "cold_extreme", "two_tube_mission")

RUN = f"""
import sys
from tubescout.cli import main
out, configs = sys.argv[1], sys.argv[2:]
for i, config in enumerate(configs):
    for command in {ANALYTIC!r}:
        code = main([command, "--config", config, "--out", f"{{out}}/{{i}}/{{command}}"])
        assert code == 0, (command, config, code)
"""

REWRITE = """
import json, sys
from pathlib import Path
from tubescout.report import dump_json
out, reports = Path(sys.argv[1]), sys.argv[2:]
for i, report in enumerate(reports):
    text = dump_json(json.loads(Path(report).read_text(encoding="utf-8")))
    (out / f"{i}.json").write_text(text, encoding="utf-8")
"""


def find_interpreter(version: str) -> str | None:
    """``python<version>`` from PATH or a pyenv install, if one starts
    and reports that version."""
    name = f"python{version}"
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates = [shutil.which(name),
                  *sorted(map(str, pyenv.glob(f"versions/{version}.*/bin/{name}")))]
    for exe in filter(None, candidates):
        try:
            done = subprocess.run(
                [exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60)
        except OSError:
            continue
        if done.returncode == 0 and done.stdout.strip() == version:
            return exe
    return None


def run_reports(exe: str, out: Path, configs: list) -> dict:
    """Relative path -> bytes of every report ``exe`` writes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([exe, "-c", RUN, str(out), *map(str, configs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("report.json"))}


@pytest.fixture(scope="module")
def configs(tmp_path_factory) -> list:
    raw = json.loads((SCENARIOS / "paper_baseline.json").read_text())
    raw["exploration"]["map_file"] = str(SCENARIOS / raw["exploration"]["map_file"])
    for payload in raw["program"]["payloads"]:
        payload["mass_kg"] = 0.1
    variant = tmp_path_factory.mktemp("configs") / "tenth_kg_payloads.json"
    variant.write_text(json.dumps(raw), encoding="utf-8")
    return [SCENARIOS / "paper_baseline.json", variant]


@pytest.fixture(scope="module")
def reference(configs, tmp_path_factory) -> dict:
    return run_reports(sys.executable, tmp_path_factory.mktemp("reference"),
                       configs)


@pytest.mark.parametrize("version", VERSIONS)
def test_analytic_reports_match_across_interpreters(version, configs,
                                                    reference, tmp_path):
    exe = find_interpreter(version)
    if exe is None:
        pytest.skip(f"no working python{version} found")
    reports = run_reports(exe, tmp_path, configs)
    assert len(reference) == len(configs) * len(ANALYTIC)
    assert reports.keys() == reference.keys()
    differ = [name for name in reports if reports[name] != reference[name]]
    assert not differ, f"python{version} ({exe}) wrote different reports: {differ}"


@pytest.fixture(scope="module")
def array_reports(tmp_path_factory) -> list:
    """This interpreter's power, explore and mission reports of the
    shipped scenarios."""
    from tubescout.cli import main
    out = tmp_path_factory.mktemp("arrays")
    for scenario in SHIPPED:
        for command in ARRAYS:
            code = main([command, "--config", str(SCENARIOS / f"{scenario}.json"),
                         "--out", str(out / scenario / command)])
            assert code == 0, (command, scenario)
    return sorted(out.rglob("report.json"))


@pytest.mark.parametrize("version", VERSIONS)
def test_array_reports_rewrite_identically_across_interpreters(
        version, array_reports, tmp_path):
    exe = find_interpreter(version)
    if exe is None:
        pytest.skip(f"no working python{version} found")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([exe, "-c", REWRITE, str(tmp_path), *map(str, array_reports)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert len(array_reports) == len(SHIPPED) * len(ARRAYS)
    differ = [str(report) for i, report in enumerate(array_reports)
              if (tmp_path / f"{i}.json").read_bytes() != report.read_bytes()]
    assert not differ, f"python{version} ({exe}) rewrote reports differently: {differ}"
