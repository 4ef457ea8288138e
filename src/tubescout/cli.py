"""Command-line interface: scenario configs in, deterministic reports out.

Every subcommand loads one scenario file (or the built-in baseline),
runs only its module chain, and writes ``report.json`` into the output
directory. Exit status: 0 on success, 1 when ``--strict`` is set and an
``infeasible`` finding was reported, 2 on configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from tubescout import __version__
from tubescout.config import (
    ConfigError,
    MissionConfig,
    load_config,
    parse_wbs_file,
    to_echo_dict,
)
from tubescout.energy import write_soc_csv
from tubescout.mission import explore_tube, run_mission
from tubescout.report import ANALYTIC_SECTIONS, dump_json, guard, place, power_section
from tubescout.tube_explorer import ExplorationReport

_SUBCOMMANDS = {
    "balloon": "evaluate aerostat buoyancy under both hull-area conventions",
    "winch": "winch motor power and per-descent regeneration",
    "thermal": "greenhouse heat loss and the avionics temperature envelope",
    "power": "simulate one sol of supply, demand and battery state",
    "explore": "run a multi-robot tube survey on a map",
    "budget": "roll up payload mass, volume and peak power against limits",
    "cost": "roll up the work-breakdown cost tree",
    "schedule": "check lifecycle phase ordering and the launch window",
    "mission": "run the full scripted multi-sol mission",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parser is a web
    of reference cycles, so a fresh one per ``main`` call would leave tens
    of kilobytes for the cycle collector. Callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="tubescout",
        description=("Desk-scale engineering models and simulators for a "
                     "telerobotic Mars lava-tube settlement mission"))
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="SUBCOMMAND")
    for name, help_text in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="scenario JSON file (default: built-in baseline)")
        p.add_argument("--out", metavar="DIR", default="out",
                       help="output directory (default: %(default)s)")
        p.add_argument("--seed", type=int, metavar="N",
                       help="override every seed in the config")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 if any 'infeasible' finding is reported")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="csv additionally writes trace CSV files where "
                            "the subcommand produces them")
        if name == "cost":
            p.add_argument("--wbs", metavar="PATH",
                           help="standalone WBS JSON file (overrides the "
                                "config's tree)")
    return parser


def _write_robot_csv(path: Path, result: ExplorationReport) -> None:
    lines = ["robot_id,distance_cells,samples_delivered,final_state,battery_s"]
    for s in result.per_robot_stats:
        lines.append(f"{s.robot_id},{s.distance_cells},{s.samples_delivered},"
                     f"{s.final_state},{s.battery_s}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _power(config: MissionConfig, seed: int):
    return power_section(config.sources, tuple(t.load for t in config.loads),
                         config.battery, config.env, config.timestep_s)


def _analytic(build):
    return lambda config, seed: (*build(config), None)


#: Every subcommand but ``mission``: its report path, a run from (config,
#: seed) to (section, findings, CSV source), and the CSV file name and
#: writer that ``--format csv`` adds, if any.
_RUNS = {name: (path, _analytic(build), None, None)
         for name, (path, build) in ANALYTIC_SECTIONS.items()}
_RUNS["power"] = (("energy", "power"), _power, "soc_trace.csv", write_soc_csv)
_RUNS["explore"] = (("exploration",),
                    lambda config, seed: explore_tube(config, seed, 0),
                    "exploration_robots.csv", _write_robot_csv)


def _dispatch(args: argparse.Namespace) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    config = load_config(args.config) if args.config else MissionConfig()
    seed = args.seed if args.seed is not None else config.mission.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    report: dict = {"version": __version__, "seed": seed,
                    "config": to_echo_dict(config)}
    csv_name = None
    if args.command == "mission":
        report.update(guard(("mission",), run_mission)(config, args.seed))
    else:
        if getattr(args, "wbs", None):
            # The echo above keeps the config file's own tree.
            config = dataclasses.replace(config, program=dataclasses.replace(
                config.program, wbs=parse_wbs_file(args.wbs)))
        path, run, csv_name, write_csv = _RUNS[args.command]
        section, findings, source = guard(path, run)(config, seed)
        place(report, path, section)
        report["findings"] = [f.to_dict() for f in findings]

    # dump_json may refuse the report: serialize it before writing any file.
    text = dump_json(report)
    if csv_name and args.format == "csv":
        write_csv(out_dir / csv_name, source)
    report_path = out_dir / "report.json"
    report_path.write_text(text, encoding="utf-8")
    print(f"wrote {report_path}")
    for found in report["findings"]:
        print(f"finding[{found['kind']}] {found['module']}: {found['message']}")
    if args.strict and any(f["kind"] == "infeasible" for f in report["findings"]):
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        for path, message in exc.errors:
            print(f"error: {path}: {message}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
