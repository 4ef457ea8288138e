"""Golden outcomes: run cases, record and check their report digests.

``golden.json`` maps each case key (see ``workloads.Case.key``) to a
SHA-256 over the case's outcome: for every command, the exit code and
the SHA-256 of the ``report.json`` it wrote. The file covers every pool
case of every workload and the shipped-scenario matrix, as produced by
the commit that defined the benchmark.

Regenerate (only when a change to report bytes is intended and
explained)::

    python3 bench/golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads

GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"


def call_main(main, argv: list) -> tuple:
    """Call ``main(argv)`` with its output captured.

    Returns (exit code, stderr text, elapsed ns). An exception is an exit
    code of its own ("raised <type>") so that a traceback is a failure,
    never a crash of the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects a command line
        rc = exc.code
    except Exception as exc:  # the program must never raise; record it
        rc = f"raised {type(exc).__name__}"
    return rc, err.getvalue(), time.perf_counter_ns() - start


def report_digest(out_dir: Path) -> str | None:
    path = out_dir / "report.json"
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(case, out_dir: Path, main) -> tuple:
    """Run every command of a case untraced.

    Returns (elapsed ns summed over the ``main`` calls, results), where a
    result is (subcommand, exit code, stderr, report digest or None).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    total = 0
    results = []
    for argv in case.argvs:
        (out_dir / "report.json").unlink(missing_ok=True)
        rc, err, elapsed = call_main(main, argv + ["--out", str(out_dir)])
        total += elapsed
        results.append((argv[0], rc, err, report_digest(out_dir)))
    return total, results


def outcome_digest(results: list) -> str:
    text = "|".join(f"{cmd}:{rc}:{digest or '-'}"
                    for cmd, rc, _, digest in results)
    return hashlib.sha256(text.encode()).hexdigest()


def _names_path(line: str, wanted: str) -> bool:
    """True if an ``error: <path>: ...`` line names ``wanted`` or one of
    its enclosing blocks (but not the bare top level)."""
    if not line.startswith("error: "):
        return False
    path = line[len("error: "):].split(": ", 1)[0]
    return path != "config" and (
        path == wanted or wanted.startswith(path + ".")
        or wanted.startswith(path + "["))


def status(case, results: list, golden: dict) -> str:
    """Classify one run.

    ``ok``: a valid case wrote exactly the golden reports, or an invalid
    case was rejected by every command with exit 2 and an
    ``error: <config path>: ...`` line naming the mutated setting.
    ``defect``: an invalid case was mishandled exactly as at the commit
    that defined the benchmark (a known ROADMAP item-4 defect).
    ``fail``: anything else, including a case missing from the goldens.
    """
    matches = golden.get(case.key) == outcome_digest(results)
    if case.mutation is None:
        return "ok" if matches else "fail"
    rejected = all(
        rc == 2 and any(_names_path(line, case.error_path)
                        for line in err.splitlines())
        for _, rc, err, _ in results)
    if rejected:
        return "ok"
    return "defect" if matches else "fail"


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def all_cases() -> list:
    cases = workloads.matrix_cases()
    for name in workloads.WORKLOADS:
        cases += workloads.pool_cases(name)
    return cases


def regenerate() -> dict:
    from tubescout.cli import main

    golden = {}
    out_dir = workloads.WORK / "golden" / "out"
    for workload in workloads.WORKLOADS:
        cases = workloads.pool_cases(workload)
        workloads.write_inputs(workload, cases)
        for case in cases:
            _, results = run_case(case, out_dir, main)
            golden[case.key] = outcome_digest(results)
        print(f"{workload}: {len(cases)} cases", file=sys.stderr)
    for case in workloads.matrix_cases():
        _, results = run_case(case, out_dir, main)
        golden[case.key] = outcome_digest(results)
    return golden


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    os.chdir(root)
    table = regenerate()
    GOLDEN_FILE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(table)} golden outcomes to {GOLDEN_FILE}")
