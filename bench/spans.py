"""Traced pass: the CLI's dispatch recomposed from public calls, with a
span around each call into a layer.

Nothing here patches or instruments ``src/``. ``compose`` performs what
``tubescout.cli.main`` does for one command line, calling the same
public functions, and records a span around each call; the benchmark
then checks that the recomposed run writes a report with the same
SHA-256 as the untraced ``cli.main`` run. Probes (``probe.*`` spans)
are direct calls made after a run to time work the composition cannot
see inside: one explorer ``step``, one ``bfs_distances`` over the full
traversable mask, a ``simulate_sol`` and ``schedule_loads`` on the run's
loads, and replays of a mission's tubes and germination trial.

A span is (name, start ns, end ns, parent index or -1, run id). Its
layer is the name up to the first dot. Spans are kept in memory and
written out once, at the end, as JSON lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.run_id])
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.spans[index][1] = start
            self.spans[index][2] = end
            self._stack.pop()

    def self_times(self) -> list:
        """Each span's duration minus the time its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with path.open("w", encoding="utf-8") as fh:
            for (name, start, end, parent, run), self_ns in zip(self.spans, own):
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "run": run, "self_ns": self_ns}) + "\n")


def compose(argv: list, tr: Tracer) -> tuple:
    """Run one command line as ``cli.main`` would, span by span.

    Returns (exit code, context), where the context holds the objects the
    probes replay (config, grid, exploration result, report).
    """
    from tubescout import cli
    from tubescout.config import ConfigError

    with tr.span("cli.main"):
        with tr.span("cli.parse_args"):
            args = cli.build_parser().parse_args(argv)
        context: dict = {}
        try:
            return _dispatch(args, tr, context), context
        except ConfigError:
            return 2, context
        except (ValueError, OSError):
            return 2, context


def _dispatch(args, tr: Tracer, context: dict) -> int:
    from tubescout import __version__
    from tubescout import report as rp
    from tubescout import tube_explorer as te
    from tubescout.config import MissionConfig, load_config, to_echo_dict
    from tubescout.mission import run_mission
    from tubescout.rng import derive_seed

    if args.seed is not None and args.seed < 0:
        return 2
    if args.config:
        with tr.span("config.load_config"):
            config = load_config(args.config)
    else:
        config = MissionConfig()
    context["config"] = config
    seed = args.seed if args.seed is not None else config.mission.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tr.span("config.to_echo_dict"):
        echo = to_echo_dict(config)
    report: dict = {"version": __version__, "seed": seed, "config": echo}
    findings: list = []
    command = args.command

    if command == "balloon":
        with tr.span("aerostat.aerostat_section"):
            report["aerostat"], found = rp.aerostat_section(config.balloon,
                                                            config.env)
        findings += found
    elif command == "winch":
        with tr.span("report.winch_section"):
            report["energy"] = {"winch": rp.winch_section(config.winch,
                                                          config.env)}
    elif command == "thermal":
        with tr.span("thermal.thermal_section"):
            report["thermal"], found = rp.thermal_section(
                config.enclosure, config.avionics, config.env)
        findings += found
    elif command == "power":
        loads = tuple(t.load for t in config.loads)
        with tr.span("energy.power_section"):
            section, found, _ = rp.power_section(
                config.sources, loads, config.battery, config.env,
                config.timestep_s)
        report["energy"] = {"power": section}
        findings += found
    elif command == "explore":
        exp = config.exploration
        if exp.map_file is not None:
            with tr.span("tube_explorer.read_map_file"):
                grid = te.read_map_file(exp.map_file)
            tube_seed = None
        else:
            tube_seed = derive_seed(seed, 0)
            gen = exp.generator
            with tr.span("tube_explorer.generate_tube"):
                grid = te.generate_tube(tube_seed, gen.width, gen.height,
                                        gen.obstacle_density, gen.resolution_m)
        with tr.span("tube_explorer.make_fleet"):
            robots = te.make_fleet(grid, exp.robot_count, **exp.robot_overrides)
        with tr.span("tube_explorer.run_exploration"):
            result = te.run_exploration(grid, robots, station=exp.station,
                                        max_steps=exp.max_steps, env=config.env,
                                        sample_sites=exp.sample_sites)
        with tr.span("report.exploration_section"):
            section, found = rp.exploration_section(result, grid)
        section["tube_seed"] = tube_seed
        report["exploration"] = section
        findings += found
        context.update(grid=grid, result=result)
    elif command == "budget":
        prog = config.program
        with tr.span("program.budget_section"):
            section, found = rp.budget_section(prog.payloads, prog.limits)
        report["program"] = {"budget": section}
        findings += found
    elif command == "cost":
        with tr.span("program.cost_section"):
            report["program"] = {"cost": rp.cost_section(config.program.wbs)}
    elif command == "schedule":
        prog = config.program
        with tr.span("program.schedule_section"):
            section, found = rp.schedule_section(prog.phases, prog.launch_year,
                                                 prog.deadline_year)
        report["program"] = {"schedule": section}
        findings += found
    else:
        with tr.span("mission.run_mission"):
            body = run_mission(config, seed_override=args.seed)
        report.update(body)

    if command != "mission":
        report["findings"] = [f.to_dict() for f in findings]
    with tr.span("report.dump_json"):
        text = rp.dump_json(report)
    with tr.span("report.write_report"):
        (out_dir / "report.json").write_text(text, encoding="utf-8")
    context["report"] = report
    context["bytes"] = len(text.encode("utf-8"))
    return 0
