"""tubescout benchmark: seeded closed-loop workloads through ``cli.main``.

Usage, from the root of a checkout::

    python3 bench/run.py --workload survey_sweep --seed 1 --seconds 10 --trace 0

One client in one process calls ``tubescout.cli.main(argv)`` on the
workload's generated cases, one after another, for ``--seconds``. Every
run is checked against the golden digests in ``bench/golden.json``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
traced pass and prints the per-layer metrics. Header lines start with
``#``; the last line of standard output is one JSON object. See
``bench/README.md`` for every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import golden
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
#: Fresh interpreters started per run for ``setup_s`` (plus one unmeasured).
SETUP_SAMPLES = 7
#: Repeats of each direct probe call; the probe reports their mean.
PROBE_REPEATS = 5

SETUP_CODE = """\
import sys, time
sys.path.insert(0, "src")
import tubescout.cli
from tubescout.config import load_config
load_config(sys.argv[1])
print(time.monotonic_ns())
"""

END_TO_END_UNITS = {"setup_s": "s", "run_s_p50": "s", "runs_per_s": "1/s",
                    "peak_heap_mb": "MB", "ok_rate": "frac"}
#: A percentile is reported only with ten runs beyond it.
P90_MIN_RUNS = 100
LAYERS = ("cli", "config", "aerostat", "energy", "thermal", "tube_explorer",
          "program", "mission", "report")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = Path(".git") / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args, input_hash: str, n_cases: int) -> dict:
    import numpy

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpus": os.cpu_count(), "platform": platform.platform(),
            "commit": git_commit(), "cases": n_cases,
            "inputs_sha256": input_hash}


def measure_setup(config_path: str) -> list:
    """Seconds from spawning a fresh interpreter until it has imported
    ``tubescout.cli`` and loaded ``config_path``, rescaled to the
    reference host's speed. CLOCK_MONOTONIC is shared by all processes,
    so the child's reading ends the interval."""
    def start() -> float:
        begin = time.monotonic_ns()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, config_path],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        return (int(done.stdout.split()[-1]) - begin) / 1e9

    start()  # warms the file cache and writes .pyc files
    samples = []
    reference = speed.Reference()
    for _ in range(SETUP_SAMPLES):
        reference.before_run()
        samples.append(start())
    reference.sample()
    return reference.scaled(samples)


class Tally:
    """Statuses of every checked run (see ``golden.status``)."""

    def __init__(self, golden_table: dict):
        self.golden = golden_table
        self.counts = {"ok": 0, "defect": 0, "fail": 0}
        self.failures: list = []

    def check(self, case, results) -> str:
        result = golden.status(case, results, self.golden)
        self.counts[result] += 1
        if result == "fail" and len(self.failures) < 5:
            self.failures.append(
                f"{case.name}: " + "; ".join(
                    f"{cmd} rc={rc} {err.strip()[:120]}"
                    for cmd, rc, err, _ in results))
        return result

    def fail(self, message: str) -> None:
        self.counts["fail"] += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())


def end_to_end(args, cases, tally: Tally, out_dir: Path, main) -> tuple:
    first = next(c for c in cases if c.mutation is None)
    setup = measure_setup(first.argvs[0][first.argvs[0].index("--config") + 1])

    warm = min(cases, key=lambda c: c.size)
    tally.check(warm, golden.run_case(warm, out_dir, main)[1])
    gc.collect()
    durations, statuses = [], []
    reference = speed.Reference()
    deadline = time.perf_counter() + args.seconds
    # Whole passes over the list, so every case weighs the same in the
    # medians whatever the seed. At this commit a pass takes about 1.5 s
    # on design_sweep and 13-25 s on the others.
    while len(durations) % len(cases) or time.perf_counter() < deadline:
        reference.before_run()
        case = cases[len(durations) % len(cases)]
        elapsed, results = golden.run_case(case, out_dir, main)
        durations.append(elapsed / 1e9)
        statuses.append(tally.check(case, results))
    reference.sample()

    largest = workloads.largest_case(args.workload)
    workloads.write_case(args.workload, largest)
    gc.collect()
    tracemalloc.start()
    _, results = golden.run_case(largest, out_dir, main)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tally.check(largest, results)

    scaled = reference.scaled(durations)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s_p50": statistics.median(scaled),
        "runs_per_s": len(scaled) / sum(scaled),
        "peak_heap_mb": peak / 1e6,
        "ok_rate": statuses.count("ok") / len(statuses),
    }
    samples = {"setup_s": len(setup), "run_s_p50": len(durations),
               "runs_per_s": len(durations), "peak_heap_mb": 1,
               "ok_rate": len(statuses)}
    notes = [f"error_rate={1 - metrics['ok_rate']:.4f} "
             f"({statuses.count('defect')} known-defect and "
             f"{statuses.count('fail')} failed of {len(statuses)} timed runs)",
             f"peak_heap_case={largest.name}",
             f"unscaled: run_s_p50 {statistics.median(durations):.6g} s, "
             f"runs_per_s {len(durations) / sum(durations):.6g} 1/s; "
             f"{len(reference.samples)} reference passes took "
             f"{reference.mean_s():.6g} s on average, {speed.REFERENCE_S} s "
             f"on the reference host"]
    if len(durations) >= P90_MIN_RUNS:
        p90 = statistics.quantiles(scaled, n=10, method="inclusive")[8]
        notes.append(f"run_s_p90: {p90:.6g} s over {len(durations)} runs")
    else:
        notes.append(f"run_s_p90: not reported, {len(durations)} runs leave "
                     f"fewer than ten beyond it")
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            samples, notes)


# ----------------------------------------------------------------- traced pass

def _median_s(values) -> float:
    return statistics.median(values) / 1e9 if values else 0.0


def _probe(tr: spans.Tracer, name: str, fn) -> None:
    for _ in range(PROBE_REPEATS):
        with tr.span(name):
            fn()


def _explore_probes(tr, config, grid, result, rec) -> None:
    """Count the tube's reachable cells, time BFS over the full
    traversable mask, and time one ``step`` halfway through the survey."""
    from tubescout import tube_explorer as te

    reachable = int(te.reachable_cells(grid).sum())
    rec["reachable"] += reachable
    rec["explored"] += round(result.coverage_fraction * reachable)
    rec["ticks"] += result.steps
    if rec.get("probed") or reachable < 2:
        return
    rec["probed"] = True
    mask = grid.traversable()
    _probe(tr, "probe.tube_explorer.bfs_distances",
           lambda: te.bfs_distances(mask, grid.entrance))
    exp = config.exploration
    world = te.TubeWorld(grid=te.fresh_map(grid.cells, grid.resolution_m),
                         station=exp.station, sample_sites=exp.sample_sites)
    fleet = te.make_fleet(grid, exp.robot_count, **exp.robot_overrides)
    for _ in range(result.steps // 2):
        world, fleet = te.step(world, fleet)
    _probe(tr, "probe.tube_explorer.step", lambda: te.step(world, fleet))


def _sol_probes(tr, config, rec, schedule: bool) -> None:
    """Time ``simulate_sol`` (and, for ``power``, ``schedule_loads``) on
    the run's sources, all its loads and its battery."""
    from tubescout.energy import schedule_loads, simulate_sol

    args = (list(config.sources), [t.load for t in config.loads],
            config.battery, config.env, config.timestep_s)
    with tr.span("probe.energy.simulate_sol"):
        trace = simulate_sol(*args)
    rec["loads"] += len(args[1])
    rec["shed_steps"] += int((trace.shed_w > 0).sum())
    if schedule:
        with tr.span("probe.energy.schedule_loads"):
            rec["admitted"] += len(schedule_loads(*args).admitted)


def _mission_probes(tr, config, report, rec) -> bool:
    """Replay every tube and the germination trial from the report's
    seeds; True if each replay reproduces the reported outcome."""
    from tubescout import tube_explorer as te
    from tubescout.mission import germination_trial

    exp = config.exploration
    same = True
    for tube in report["exploration"]["tubes"]:
        if tube["tube_seed"] is None:
            with tr.span("probe.tube_explorer.read_map_file"):
                grid = te.read_map_file(exp.map_file)
        else:
            gen = exp.generator
            with tr.span("probe.tube_explorer.generate_tube"):
                grid = te.generate_tube(tube["tube_seed"], gen.width,
                                        gen.height, gen.obstacle_density,
                                        gen.resolution_m)
        robots = te.make_fleet(grid, exp.robot_count, **exp.robot_overrides)
        with tr.span("probe.tube_explorer.run_exploration"):
            result = te.run_exploration(grid, robots, station=exp.station,
                                        max_steps=exp.max_steps, env=config.env,
                                        sample_sites=exp.sample_sites)
        same &= result.steps == tube["steps"]
        _explore_probes(tr, config, grid, result, rec)
    germ = report["mission"]["germination"]
    if germ is not None:
        with tr.span("probe.mission.germination_trial"):
            trial = germination_trial(germ["n_seeds"], germ["p_germinate"],
                                      germ["seed"])
        same &= trial.germinated == germ["germinated"]
    _sol_probes(tr, config, rec, schedule=False)
    rec["sols"] += report["mission"]["sols_simulated"]
    rec["tubes"] += report["mission"]["tubes_explored"]
    rec["violations"] += sum(s["violations"] for s in report["mission"]["sol_log"])
    rec["sol_steps"] += report["mission"]["sols_simulated"] * round(
        config.env.sol_length_s / config.timestep_s)
    return same


def _compose_case(case, tr: spans.Tracer, out_dir: Path) -> list:
    """Traced composition of each command: (exit code, digest, context)."""
    composed = []
    for argv in case.argvs:
        (out_dir / "report.json").unlink(missing_ok=True)
        rc, context = spans.compose(argv + ["--out", str(out_dir)], tr)
        composed.append((rc, golden.report_digest(out_dir), context))
    return composed


def traced(args, cases, tally: Tally, out_dir: Path, main) -> tuple:
    """Untraced ``cli.main`` and the traced composition on the same cases,
    in alternating order; the two must write identical reports."""
    tr = spans.Tracer()
    n_traced = workloads.WORKLOADS[args.workload][3]
    rec = dict.fromkeys(("reachable", "explored", "ticks", "placed",
                         "delivered", "loads", "admitted", "shed_steps",
                         "violations", "sol_steps", "sols", "tubes", "bytes"), 0)
    plain_ns = traced_ns = 0
    golden.run_case(cases[0], out_dir / "plain", main)  # warm-up
    for run_id, case in enumerate(cases[:n_traced]):
        tr.run_id = run_id
        if run_id % 2:
            composed = _compose_case(case, tr, out_dir / "traced")
        elapsed, results = golden.run_case(case, out_dir / "plain", main)
        plain_ns += elapsed
        tally.check(case, results)
        if not run_id % 2:
            composed = _compose_case(case, tr, out_dir / "traced")
        if [(r[1], r[3]) for r in results] != [c[:2] for c in composed]:
            tally.fail(f"{case.name}: traced composition wrote another report")
        for (rc, _, context), argv in zip(composed, case.argvs):
            if rc != 0:
                continue
            config, report = context["config"], context["report"]
            rec["bytes"] += context["bytes"]
            if argv[0] == "explore":
                rec["placed"] += len(config.exploration.sample_sites)
                rec["delivered"] += report["exploration"]["samples_delivered"]
                _explore_probes(tr, config, context["grid"], context["result"], rec)
            elif argv[0] == "power":
                rec["violations"] += report["energy"]["power"]["violation_count"]
                rec["sol_steps"] += round(config.env.sol_length_s / config.timestep_s)
                _sol_probes(tr, config, rec, schedule=True)
            elif argv[0] == "mission" and not _mission_probes(tr, config,
                                                               report, rec):
                tally.fail(f"{case.name}: replay differs from the report")

    own = tr.self_times()
    per_run: list = [{} for _ in range(n_traced)]
    layer_ns = dict.fromkeys(LAYERS, 0)
    for (name, start, end, parent, run), self_ns in zip(tr.spans, own):
        totals = per_run[run]
        totals[name] = totals.get(name, 0) + end - start
        if name == "cli.main":
            traced_ns += end - start
        if not name.startswith("probe."):
            layer_ns[name.split(".")[0]] += self_ns

    def span_median(*names) -> float:
        return _median_s([sum(t.get(n, 0) for n in names) for t in per_run
                          if any(n in t for n in names)])

    def total_s(*names) -> float:
        return sum(t.get(n, 0) for t in per_run for n in names) / 1e9

    explore = ("tube_explorer.run_exploration",
               "probe.tube_explorer.run_exploration")
    explore_s = total_s(*explore)
    mission_s = total_s("mission.run_mission")
    metrics = {
        "tube_explorer.explore_s": (span_median(*explore), "s"),
        "tube_explorer.tick_ms": (1e3 * explore_s / rec["ticks"]
                                  if rec["ticks"] else 0.0, "ms"),
        "tube_explorer.cells_per_s": (rec["explored"] / explore_s
                                      if explore_s else 0.0, "1/s"),
        "tube_explorer.step_ms": (1e3 * span_median("probe.tube_explorer.step")
                                  / PROBE_REPEATS, "ms"),
        "tube_explorer.bfs_ms": (1e3 * span_median(
            "probe.tube_explorer.bfs_distances") / PROBE_REPEATS, "ms"),
        "tube_explorer.generate_s": (span_median(
            "tube_explorer.generate_tube",
            "probe.tube_explorer.generate_tube"), "s"),
        "tube_explorer.ticks": (rec["ticks"], "count"),
        "tube_explorer.reachable_cells": (rec["reachable"], "count"),
        "tube_explorer.coverage_frac": (rec["explored"] / rec["reachable"]
                                        if rec["reachable"] else 0.0, "frac"),
        "tube_explorer.samples_delivered_frac": (
            rec["delivered"] / rec["placed"] if rec["placed"] else 0.0, "frac"),
        "energy.simulate_sol_s": (span_median("probe.energy.simulate_sol"), "s"),
        "energy.schedule_s": (span_median("probe.energy.schedule_loads"), "s"),
        "energy.power_section_s": (span_median("energy.power_section"), "s"),
        "energy.loads": (rec["loads"], "count"),
        "energy.sol_steps": (rec["sol_steps"], "count"),
        "energy.violations": (rec["violations"], "count"),
        "energy.shed_steps": (rec["shed_steps"], "count"),
        "energy.admitted_frac": (rec["admitted"] / rec["loads"]
                                 if rec["loads"] else 0.0, "frac"),
        "mission.run_s": (span_median("mission.run_mission"), "s"),
        "mission.germination_s": (span_median(
            "probe.mission.germination_trial"), "s"),
        "mission.explore_share": (total_s("probe.tube_explorer.run_exploration")
                                  / mission_s if mission_s else 0.0, "frac"),
        "mission.sols": (rec["sols"], "count"),
        "mission.tubes": (rec["tubes"], "count"),
        "mission.ticks": (rec["ticks"] if mission_s else 0, "count"),
        "config.load_s": (span_median("config.load_config"), "s"),
        "config.echo_s": (span_median("config.to_echo_dict"), "s"),
        "cli.parse_args_s": (span_median("cli.parse_args"), "s"),
        "report.dump_json_s": (span_median("report.dump_json"), "s"),
        "report.bytes": (rec["bytes"], "bytes"),
        "aerostat.section_s": (span_median("aerostat.aerostat_section"), "s"),
        "thermal.section_s": (span_median("thermal.thermal_section"), "s"),
        "program.section_s": (span_median(
            "program.budget_section", "program.cost_section",
            "program.schedule_section"), "s"),
        "bench.trace_overhead_frac": ((traced_ns - plain_ns) / plain_ns, "frac"),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (layer_ns[layer] / traced_ns, "frac")

    tr.write(workloads.WORK / args.workload / f"spans-seed{args.seed}.jsonl")
    samples = {"traced_runs": n_traced, "probe_repeats": PROBE_REPEATS,
               "spans": len(tr.spans)}
    return metrics, samples, attribution_checks(args.workload, metrics)


def attribution_checks(workload: str, metrics: dict) -> list:
    """Does the workload stress the layers it claims to?"""
    value = {k: v for k, (v, _) in metrics.items()}
    sol_simulator = ("energy.simulate_sol_s", "energy.schedule_s",
                     "energy.power_section_s")
    checks = {
        "survey_sweep": [("share.tube_explorer >= 0.9",
                          value["share.tube_explorer"] >= 0.9),
                         ("energy spans are 0",
                          all(value[k] == 0 for k in sol_simulator))],
        "power_sweep": [("share.energy >= 0.9", value["share.energy"] >= 0.9),
                        ("tube_explorer.explore_s == 0",
                         value["tube_explorer.explore_s"] == 0)],
        "design_sweep": [("tube_explorer.explore_s == 0",
                          value["tube_explorer.explore_s"] == 0),
                         ("energy spans are 0",
                          all(value[k] == 0 for k in sol_simulator))],
        "mission_campaign": [("mission.explore_share > 0",
                              value["mission.explore_share"] > 0)],
    }[workload]
    return [f"attribution: {text}: {'PASS' if ok else 'FAIL'}"
            for text, ok in checks]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "tubescout" / "cli.py").is_file() \
            or not (ROOT / "scenarios").is_dir():
        print(f"error: no tubescout source tree (src/, scenarios/) under {ROOT}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from tubescout.cli import main as cli_main

    cases = workloads.workload_cases(args.workload, args.seed)
    input_hash = workloads.write_inputs(args.workload, cases)
    tally = Tally(golden.load_golden())
    out_dir = workloads.WORK / args.workload / "out"
    measure = traced if args.trace else end_to_end
    metrics, samples, notes = measure(args, cases, tally, out_dir, cli_main)

    header = environment(args, input_hash, len(cases))
    header["samples"] = samples
    for key, val in header.items():
        print(f"# {key}: {val}")
    for note in notes + tally.failures:
        print(f"# {note}")
    result = {"correct": tally.counts["fail"] == 0,
              "attempted": tally.attempted, "failed": tally.counts["fail"],
              "metrics": {name: {"value": val, "unit": unit}
                          for name, (val, unit) in metrics.items()}}
    artifact = workloads.WORK / args.workload / (
        f"result-seed{args.seed}-trace{args.trace}.json")
    artifact.write_text(json.dumps({"header": header, "notes": notes,
                                    **result}, indent=1) + "\n",
                        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
