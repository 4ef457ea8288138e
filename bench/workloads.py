"""Seeded input generators for the four benchmark workloads.

Every input is one *case*: the command lines passed to
``tubescout.cli.main`` plus the config files they read. A case is fully
determined by its workload and its index in that workload's pool, and
``bench/golden.json`` pins the outcome of every pool case at the commit
that defined the benchmark. The workload seed only decides which pool
cases a run uses and in what order, so any seed can be checked against
the golden digests.

A workload list is built in *rounds*: each round holds one case from
every stratum of the workload (a map size, a load count, a scenario, or
four valid design variants and one invalid one). A timed phase that
stops part-way through the list has therefore still seen every stratum
about equally, which keeps the medians steady from seed to seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

#: Work directory, relative to the checkout root; inputs and reports go here.
WORK = Path(".bench_run")
SCENARIOS = Path("scenarios")
SHIPPED = ("paper_baseline", "cold_extreme", "two_tube_mission")
SUBCOMMANDS = ("balloon", "winch", "thermal", "power", "explore", "budget",
               "cost", "schedule", "mission")
DESIGN_SUBCOMMANDS = ("balloon", "winch", "thermal", "budget", "cost",
                      "schedule")

SOL_S = 88775.0
TICK_S = 1.0 / 1.7  # default robot: 1 m cells at 1.7 m/s


@dataclass
class Case:
    """One benchmark input: command lines (without ``--out``) and files."""

    name: str
    argvs: list
    files: dict = field(default_factory=dict)
    size: int = 0
    #: For a deliberately invalid design variant: what was mutated, and
    #: the config path a correct rejection must name.
    mutation: str | None = None
    error_path: str | None = None

    @property
    def key(self) -> str:
        """Content hash that indexes ``golden.json``."""
        blob = json.dumps([self.argvs, sorted(self.files.items())],
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def inputs_dir(workload: str) -> Path:
    return WORK / workload / "inputs"


def _dump(config: dict) -> str:
    return json.dumps(config, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------- survey_sweep

SURVEY_SIZES = (16, 20, 24, 28)
SURVEY_ROBOTS = (1, 2, 3, 4)
SURVEY_PER_PAIR = 1  # pool cases per (size, robot count)


def survey_case(index: int) -> Case:
    """Explore one generated square tube.

    The pool index fixes the map size, the robot count and whether the
    fleet has short batteries; the rest is drawn from the index. The tube
    comes from ``explore --seed``, so the case computes the same map the
    CLI will (public ``generate_tube``) to put sample sites on reachable
    cells and to size the short batteries.
    """
    from tubescout.rng import derive_seed
    from tubescout.tube_explorer import bfs_distances, generate_tube

    n_sizes, n_robots = len(SURVEY_SIZES), len(SURVEY_ROBOTS)
    size_i, robots_i = index % n_sizes, index // n_sizes % n_robots
    size, robots = SURVEY_SIZES[size_i], SURVEY_ROBOTS[robots_i]
    rng = random.Random(f"survey_sweep:{index}")
    density = round(rng.uniform(0.15, 0.30), 3)
    explore_seed = rng.randrange(1 << 31)
    grid = generate_tube(derive_seed(explore_seed, 0), size, size, density)
    dist = bfs_distances(grid.traversable(), grid.entrance)
    reach = [(int(r), int(c)) for r, c in zip(*(dist > 0).nonzero())]
    robot_block: dict = {"count": robots}
    station = {"descents": 1, "use_winch": True}
    if (size_i + robots_i) % 2 and reach:
        # Enough charge to reach the farthest cell and come back with the
        # 1.2x reserve, but far less than a whole survey: return and
        # charge trips happen on every such tube.
        robot_block["battery_full_s"] = round(
            TICK_S * (2.5 * int(dist.max()) + 20), 2)
        station["charge_time_s"] = 60.0
    sites = []
    if reach:
        for cell in rng.sample(reach, min(len(reach), rng.randint(1, 3))):
            sites.append({"cell": list(cell),
                          "mass_kg": round(rng.uniform(0.5, 5.0), 2)})
    config = {"exploration": {
        "generator": {"width": size, "height": size,
                      "obstacle_density": density},
        "robots": robot_block,
        "station": station,
        "sample_sites": sites,
    }}
    name = f"s{index:03d}.json"
    path = str(inputs_dir("survey_sweep") / name)
    # Largest = most cells, then most robots (the quickest of the largest).
    return Case(name=name, size=size * size * 8 + robots,
                argvs=[["explore", "--config", path,
                        "--seed", str(explore_seed)]],
                files={name: _dump(config)})


def _survey_indexes(rng: random.Random) -> list:
    """Four rounds; round r pairs size i with robot count (i + r) mod 4,
    a Latin square, so every round has every size and every robot count
    and the whole list has every (size, robots) pair once."""
    n_sizes, n_robots = len(SURVEY_SIZES), len(SURVEY_ROBOTS)
    rounds = []
    for r in range(n_robots):
        round_ = [s + n_sizes * ((s + r) % n_robots)
                  + n_sizes * n_robots * rng.randrange(SURVEY_PER_PAIR)
                  for s in range(n_sizes)]
        rng.shuffle(round_)
        rounds.append(round_)
    rng.shuffle(rounds)
    return [i for round_ in rounds for i in round_]


# ----------------------------------------------------------------- power_sweep

POWER_LOADS = tuple(range(4, 25, 2))
POWER_POOL = 3  # cases per (load count, over-subscribed or not)
POWER_ROUNDS = 3  # all of them: the seed only orders the pool


def power_case(index: int) -> Case:
    """One sol of ``power`` with seeded loads.

    Even strata are over-subscribed (supply well below mean demand), odd
    ones generously supplied, so the shed path and the surplus-only path
    both run.
    """
    stratum = index % (2 * len(POWER_LOADS))
    n_loads = POWER_LOADS[stratum // 2]
    over = stratum % 2 == 0
    rng = random.Random(f"power_sweep:{index}")
    loads = []
    energy_wh = 0.0
    for i in range(n_loads):
        power_w = round(rng.uniform(20.0, 300.0), 1)
        load = {"name": f"load_{i:02d}", "power_w": power_w,
                "priority": rng.randint(0, 9),
                "sheddable": rng.random() < 0.4}
        if rng.random() < 0.2:
            load["window_s"] = None
            duration = SOL_S
        else:
            start = round(rng.uniform(0.0, SOL_S - 2000.0), 1)
            end = round(min(SOL_S, start + rng.uniform(2000.0, 40000.0)), 1)
            load["window_s"] = [start, end]
            duration = end - start
        energy_wh += power_w * duration / 3600.0
        loads.append(load)
    mean_w = energy_wh * 3600.0 / SOL_S
    supply_w = mean_w * (rng.uniform(0.5, 0.8) if over else rng.uniform(1.3, 1.6))
    sources = [{"name": "rtg", "kind": "constant",
                "rating_w": round(supply_w * 0.6, 1)},
               {"name": "balloon_turbine", "kind": "wind_turbine",
                "rating_w": round(supply_w * 0.4, 1)}]
    capacity = round(mean_w * rng.uniform(6.0, 12.0), 1)
    config = {"power": {
        "battery": {"capacity_wh": capacity,
                    "initial_soc_wh": round(capacity * 0.8, 1)},
        "timestep_s": 25.0,
        "sources": sources,
        "loads": loads,
    }}
    name = f"p{index:03d}.json"
    path = str(inputs_dir("power_sweep") / name)
    return Case(name=name, size=n_loads,
                argvs=[["power", "--config", path]], files={name: _dump(config)})


# ------------------------------------------------------------ mission_campaign

MISSION_POOL = 12  # seeds per shipped scenario
MISSION_ROUNDS = 12  # all of them: the seed only orders the pool
#: Explored cells per mission: one 20x20 map, one 16x16 tube, two 16x16 tubes.
MISSION_SIZES = {"paper_baseline": 400, "cold_extreme": 256,
                 "two_tube_mission": 512}


def _scenario_files(scenario: str) -> dict:
    files = {f"{scenario}.json":
             (SCENARIOS / f"{scenario}.json").read_text(encoding="utf-8")}
    raw = json.loads(files[f"{scenario}.json"])
    map_file = raw.get("exploration", {}).get("map_file")
    if map_file:
        files[map_file] = (SCENARIOS / map_file).read_text(encoding="utf-8")
    return files


def mission_case(index: int) -> Case:
    """The full ``mission`` chain on a shipped scenario with a seed variant."""
    scenario = SHIPPED[index % len(SHIPPED)]
    seed = random.Random(f"mission_campaign:{index}").randrange(1 << 31)
    path = str(inputs_dir("mission_campaign") / f"{scenario}.json")
    return Case(name=f"m{index:03d}", size=MISSION_SIZES[scenario],
                argvs=[["mission", "--config", path, "--seed", str(seed)]],
                files=_scenario_files(scenario))


# ---------------------------------------------------------------- design_sweep

DESIGN_VALID_POOL = 192
DESIGN_INVALID_PER_MUTATION = 8
DESIGN_ROUNDS = 12
DESIGN_VALID_PER_ROUND = 4

_WINDOW = "config.power.loads[0].window_s"
#: (kind, config path, value). Each invalid variant carries exactly one.
#: The list pairs two sites with every kind named by ROADMAP item 4.
MUTATIONS = (
    ("negative", "config.winch.payload_mass_kg", -500.0),
    ("negative", "config.program.payloads[3].mass_kg", -35.0),
    ("nan", "config.winch.payload_mass_kg", float("nan")),
    ("nan", "config.program.payloads[3].mass_kg", float("nan")),
    ("infinity", "config.enclosure.glazed_area_m2", float("inf")),
    ("infinity", "config.balloon.tether_length_m", float("inf")),
    ("unknown_key", "config.winch.spool_diameter_m", 0.3),
    ("unknown_key", "config.balloon.geometry.wall_thickness_m", 0.001),
    ("wrong_type", "config.balloon.geometry.inner_radius_m", "3.0"),
    ("wrong_type", "config.program.launch_year", 2033.5),
    ("window_past_sol", _WINDOW, [44375.0, SOL_S + 3600.0]),
    ("window_past_sol", _WINDOW, [SOL_S + 100.0, SOL_S + 7200.0]),
)


def _scale_leaves(node: dict, rng: random.Random) -> None:
    if "children" in node:
        for child in node["children"]:
            _scale_leaves(child, rng)
    elif "cost_usd" in node:
        node["cost_usd"] = max(0, round(node["cost_usd"] * rng.uniform(0.5, 1.5)))


def _design_config(base: dict, variant: int) -> dict:
    """A seeded variant of ``paper_baseline``: balloon geometry, enclosure,
    payload masses, WBS leaf costs and phase years change."""
    rng = random.Random(f"design_sweep:{variant}")
    cfg = copy.deepcopy(base)
    outer = round(rng.uniform(5.0, 9.0), 3)
    cfg["balloon"]["geometry"] = {
        "outer_radius_m": outer,
        "inner_radius_m": round(rng.uniform(1.5, outer - 1.0), 3),
        "tube_length_m": round(rng.uniform(4.0, 8.0), 3)}
    cfg["enclosure"] = {"glazed_area_m2": round(rng.uniform(3.0, 8.0), 3),
                        "u_value_w_m2k": round(rng.uniform(0.8, 1.5), 3),
                        "target_temp_c": round(rng.uniform(15.0, 25.0), 2)}
    for payload in cfg["program"]["payloads"]:
        payload["mass_kg"] = round(payload["mass_kg"] * rng.uniform(0.7, 1.3), 2)
    _scale_leaves(cfg["program"]["wbs"], rng)
    shift = rng.randint(-2, 2)
    phases = cfg["program"]["phases"]
    for phase in phases:
        phase["start_year"] += shift
    if rng.random() < 0.25:  # an out-of-order schedule is valid input
        i = rng.randrange(len(phases) - 1)
        phases[i]["start_year"], phases[i + 1]["start_year"] = (
            phases[i + 1]["start_year"], phases[i]["start_year"])
    cfg["program"]["launch_year"] += shift + rng.randint(-1, 1)
    cfg["program"]["deadline_year"] += shift
    return cfg


def _set_path(cfg: dict, path: str, value) -> None:
    """Set ``config.a.b[2].c`` style paths, creating the last key."""
    parts = []
    for token in path.split(".")[1:]:
        name, _, rest = token.partition("[")
        parts.append(name)
        if rest:
            parts.append(int(rest.rstrip("]")))
    node = cfg
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = value


def design_case(index: int) -> Case:
    """Six analytic subcommands on one design variant.

    Indexes past the valid pool are invalid variants: a valid variant
    plus one entry of ``MUTATIONS``.
    """
    base = json.loads((SCENARIOS / "paper_baseline.json").read_text(encoding="utf-8"))
    mutation = error_path = None
    if index < DESIGN_VALID_POOL:
        cfg = _design_config(base, index)
    else:
        m, j = divmod(index - DESIGN_VALID_POOL, DESIGN_INVALID_PER_MUTATION)
        kind, error_path, value = MUTATIONS[m]
        cfg = _design_config(base, DESIGN_VALID_POOL + 1000 * m + j)
        _set_path(cfg, error_path, value)
        mutation = f"{kind} {value!r} at {error_path}"
    name = f"d{index:03d}.json"
    files = {name: _dump(cfg)}
    map_file = cfg["exploration"]["map_file"]
    files[map_file] = (SCENARIOS / map_file).read_text(encoding="utf-8")
    path = str(inputs_dir("design_sweep") / name)
    return Case(name=name, size=1 if mutation else 2, files=files,
                mutation=mutation,
                error_path=error_path,
                argvs=[[cmd, "--config", path] for cmd in DESIGN_SUBCOMMANDS])


# ------------------------------------------------------------------- workloads

def _rounds(rng: random.Random, strata: int, pool: int, rounds: int) -> list:
    """Pool indexes, one per stratum per round, each stratum's draws
    distinct; the stratum order is shuffled within every round."""
    draws = [rng.sample(range(pool), rounds) for _ in range(strata)]
    order = []
    for r in range(rounds):
        strata_order = list(range(strata))
        rng.shuffle(strata_order)
        order += [s + strata * draws[s][r] for s in strata_order]
    return order


def _design_indexes(rng: random.Random) -> list:
    valid = rng.sample(range(DESIGN_VALID_POOL),
                       DESIGN_ROUNDS * DESIGN_VALID_PER_ROUND)
    order = []
    for r in range(DESIGN_ROUNDS):
        m = r % len(MUTATIONS)
        j = rng.randrange(DESIGN_INVALID_PER_MUTATION)
        round_ = valid[r * DESIGN_VALID_PER_ROUND:(r + 1) * DESIGN_VALID_PER_ROUND]
        round_.append(DESIGN_VALID_POOL + m * DESIGN_INVALID_PER_MUTATION + j)
        rng.shuffle(round_)
        order += round_
    return order


#: name -> (case factory, pool size, seed -> pool indexes, traced cases)
WORKLOADS = {
    "survey_sweep": (
        survey_case, len(SURVEY_SIZES) * len(SURVEY_ROBOTS) * SURVEY_PER_PAIR,
        _survey_indexes, len(SURVEY_SIZES)),
    "power_sweep": (
        power_case, 2 * len(POWER_LOADS) * POWER_POOL,
        lambda rng: _rounds(rng, 2 * len(POWER_LOADS), POWER_POOL, POWER_ROUNDS),
        2 * len(POWER_LOADS)),
    "mission_campaign": (
        mission_case, len(SHIPPED) * MISSION_POOL,
        lambda rng: _rounds(rng, len(SHIPPED), MISSION_POOL, MISSION_ROUNDS),
        2 * len(SHIPPED)),
    "design_sweep": (
        design_case,
        DESIGN_VALID_POOL + len(MUTATIONS) * DESIGN_INVALID_PER_MUTATION,
        _design_indexes,
        DESIGN_ROUNDS * (DESIGN_VALID_PER_ROUND + 1)),
}


def workload_cases(workload: str, seed: int) -> list:
    """The ordered case list for one workload seed."""
    factory, _, choose, _ = WORKLOADS[workload]
    return [factory(i) for i in choose(random.Random(seed))]


def pool_cases(workload: str) -> list:
    factory, pool, _, _ = WORKLOADS[workload]
    return [factory(i) for i in range(pool)]


def largest_case(workload: str) -> Case:
    """The pool's largest case (first of equals), the same for every seed."""
    return max(pool_cases(workload), key=lambda c: c.size)


def matrix_cases() -> list:
    """Every subcommand on every shipped scenario, plus ``explore --seed 7``
    on the built-in baseline."""
    cases = [Case(name=f"{scenario}:{cmd}",
                  argvs=[[cmd, "--config", str(SCENARIOS / f"{scenario}.json")]])
             for scenario in SHIPPED for cmd in SUBCOMMANDS]
    cases.append(Case(name="builtin:explore-seed-7",
                      argvs=[["explore", "--seed", "7"]]))
    return cases


def write_inputs(workload: str, cases: list) -> str:
    """Write every case's files before timing starts; return a SHA-256
    over the whole input set (command lines and file contents)."""
    directory = inputs_dir(workload)
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.iterdir():
        stale.unlink()
    digest = hashlib.sha256()
    for case in cases:
        write_case(workload, case)
        digest.update(case.key.encode())
    return digest.hexdigest()


def write_case(workload: str, case: Case) -> None:
    for name, text in case.files.items():
        (inputs_dir(workload) / name).write_text(text, encoding="utf-8")
