"""The flat-index explorer kernel against a transcription of the explorer
it replaced, plus property tests on generated maps.

``reference_step`` is the earlier tick, kept here only as an oracle: it
runs a full BFS from home, from every exploring robot and from its
target on every tick, scans every frontier cell, and steps toward the
target by the first N/W/E/S neighbour one hop closer to it. It reads
the frontier from ``frontier_mask``, a neighbour test over whole
arrays, and seals a pickup with ``collect_sample``, which takes the
lowest free slot and raises where the mass or the slots refuse it;
neither shares code with the kernel. ``reference_nearest`` is the
kernel's earlier target search, with one level list and a first move
stored per cell, and ``reference_path`` the
search back from the target that once laid a kept route; together they
are the oracle of ``_Kernel.nearest`` and the route it answers.
"""

import hashlib
import random
from collections import Counter, deque
from itertools import chain
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubescout.tube_explorer import (
    ENTRANCE,
    OBSTACLE,
    RobotState,
    Sample,
    SampleSite,
    ScoutRobot,
    Station,
    TubeWorld,
    _Kernel,
    bfs_distances,
    coverage_fraction,
    fresh_map,
    generate_tube,
    grid_from_text,
    make_fleet,
    reachable_cells,
    run_exploration,
    step,
)
from tubescout.rng import derive_seed

_DIRECTIONS = ((-1, 0), (0, -1), (0, 1), (1, 0))


def reference_bfs(mask, start):
    h, w = mask.shape
    dist = np.full((h, w), -1, dtype=np.int32)
    if not mask[start]:
        return dist
    dist[start] = 0
    queue = deque([start])
    while queue:
        r, c = queue.popleft()
        d = dist[r, c] + 1
        for dr, dc in _DIRECTIONS:
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and dist[nr, nc] < 0:
                dist[nr, nc] = d
                queue.append((nr, nc))
    return dist


def reference_step_toward(mask, start, dist_to_goal):
    d = dist_to_goal[start]
    if d <= 0:
        return None
    h, w = mask.shape
    for dr, dc in _DIRECTIONS:
        nr, nc = start[0] + dr, start[1] + dc
        if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and dist_to_goal[nr, nc] == d - 1:
            return nr, nc
    return None


def reference_sense(explored, cells, position):
    explored[position] = True
    h, w = cells.shape
    for dr, dc in _DIRECTIONS:
        nr, nc = position[0] + dr, position[1] + dc
        if 0 <= nr < h and 0 <= nc < w and cells[nr, nc] != OBSTACLE:
            explored[nr, nc] = True


def frontier_mask(grid):
    """Explored traversable cells with >= 1 unexplored traversable neighbor."""
    traversable, explored = grid.traversable(), grid.explored
    open_unexplored = traversable & ~explored
    h, w = open_unexplored.shape
    has_unexplored_neighbor = np.zeros((h, w), dtype=bool)
    has_unexplored_neighbor[1:, :] |= open_unexplored[:-1, :]
    has_unexplored_neighbor[:-1, :] |= open_unexplored[1:, :]
    has_unexplored_neighbor[:, 1:] |= open_unexplored[:, :-1]
    has_unexplored_neighbor[:, :-1] |= open_unexplored[:, 1:]
    return traversable & explored & has_unexplored_neighbor


class CapacityExhausted(ValueError):
    """All aux module slots already hold a sample."""


class OverMass(ValueError):
    """Sample mass exceeds the per-module payload limit."""


def collect_sample(robot, mass_kg, origin=None):
    """Seal a sample into the lowest free aux slot.

    Raises:
        OverMass: if the sample exceeds the per-module mass limit.
        CapacityExhausted: if every aux slot already holds a sample.
    """
    if mass_kg > robot.aux_capacity_kg:
        raise OverMass(
            f"sample mass {mass_kg} kg exceeds the {robot.aux_capacity_kg} kg "
            f"module limit")
    used = {s.module_slot for s in robot.samples}
    free = [slot for slot in range(1, robot.aux_slots + 1) if slot not in used]
    if not free:
        raise CapacityExhausted(
            f"robot {robot.id} has no free aux slot ({robot.aux_slots} in use)")
    sample = Sample(mass_kg=mass_kg, origin=robot.position if origin is None else origin,
                    module_slot=free[0])
    return replace(robot, samples=robot.samples + (sample,))


def reference_collect(robot, sites):
    """Take the first site on the robot's cell that it can carry."""
    for i, site in enumerate(sites):
        if site.cell == robot.position:
            try:
                robot = collect_sample(robot, site.mass_kg, origin=site.cell)
            except OverMass:
                continue
            except CapacityExhausted:
                return robot, sites
            return robot, sites[:i] + sites[i + 1:]
    return robot, sites


def reference_step(world, robots):
    """The tick as it was before the flat-index kernel."""
    grid = world.grid.copy()
    cells, explored = grid.cells, grid.explored
    for robot in robots:
        if robot.state is not RobotState.STUCK:
            reference_sense(explored, cells, robot.position)
    entrance = grid.entrance
    known = grid.traversable() & explored
    dist_home = reference_bfs(known, entrance)
    frontiers = frontier_mask(grid)
    sites = list(world.sample_sites)
    delivered = list(world.delivered)
    claimed = set()
    updated = {}
    for robot in sorted(robots, key=lambda rb: rb.id):
        tick_s = grid.resolution_m / robot.speed_mps
        if robot.state is RobotState.STUCK:
            updated[robot.id] = robot
            continue
        if robot.state is RobotState.CHARGING:
            if world.station.charge_time_s == 0:
                battery = robot.battery_full_s
            else:
                rate = robot.battery_full_s / world.station.charge_time_s
                battery = min(robot.battery_full_s, robot.battery_s + rate * tick_s)
            state = (RobotState.EXPLORING if battery >= robot.battery_full_s
                     else RobotState.CHARGING)
            updated[robot.id] = replace(robot, battery_s=battery, state=state)
            continue
        state = robot.state
        if state is RobotState.EXPLORING:
            d_home = int(dist_home[robot.position])
            if d_home < 0:
                updated[robot.id] = replace(robot, state=RobotState.STUCK, target=None)
                continue
            threshold = robot.reserve_factor * (d_home + 1) * tick_s + tick_s
            if robot.battery_s <= threshold:
                state = RobotState.RETURNING
        target = None
        move_to = None
        if state is RobotState.EXPLORING:
            dist_robot = reference_bfs(known, robot.position)
            best = None
            for r, c in np.argwhere(frontiers):
                cell = (int(r), int(c))
                if cell in claimed or cell == robot.position:
                    continue
                d = int(dist_robot[cell])
                if d < 0:
                    continue
                if best is None or (d, *cell) < best[0]:
                    best = ((d, *cell), cell)
            if len(robot.samples) < robot.aux_slots:
                for site in sites:
                    cell = site.cell
                    if cell in claimed or cell == robot.position:
                        continue
                    if site.mass_kg > robot.aux_capacity_kg or not known[cell]:
                        continue
                    d = int(dist_robot[cell])
                    if d < 0:
                        continue
                    if best is None or (d, *cell) < best[0]:
                        best = ((d, *cell), cell)
            if best is not None:
                target = best[1]
                claimed.add(target)
                dist_target = reference_bfs(known, target)
                move_to = reference_step_toward(known, robot.position, dist_target)
            elif not (len(robot.samples) < robot.aux_slots and any(
                    site.cell == robot.position and site.mass_kg <= robot.aux_capacity_kg
                    for site in sites)):
                state = RobotState.RETURNING
        if state is RobotState.RETURNING and move_to is None:
            if dist_home[robot.position] < 0:
                updated[robot.id] = replace(robot, state=RobotState.STUCK, target=None)
                continue
            move_to = reference_step_toward(known, robot.position, dist_home)
        position = move_to if move_to is not None else robot.position
        battery = max(0.0, robot.battery_s - tick_s)
        moved = replace(robot, position=position, battery_s=battery,
                        state=state, target=target)
        if move_to is not None:
            reference_sense(explored, cells, position)
        if moved.state is RobotState.EXPLORING:
            moved, sites = reference_collect(moved, sites)
        if moved.state is RobotState.RETURNING and moved.position == entrance:
            delivered.extend(moved.samples)
            moved = replace(moved, samples=(), state=RobotState.CHARGING, target=None)
        updated[moved.id] = moved
    next_world = TubeWorld(grid=grid, station=world.station,
                           sample_sites=tuple(sites), delivered=tuple(delivered),
                           ticks=world.ticks + 1)
    return next_world, [updated[r.id] for r in robots]


def robot_view(robots):
    return [(r.id, r.position, r.state, r.target, r.battery_s, r.samples)
            for r in robots]


def world_view(world):
    return (world.grid.explored.tobytes(), world.sample_sites, world.delivered,
            world.ticks)


def unpad(kernel, flat, dtype):
    padded = np.frombuffer(flat, dtype=dtype).reshape(-1, kernel.stride)
    return padded[1:-1, 1:-1]


def as_bits(mask):
    """A boolean map as an int with bit i set for cell i of the map
    padded with a one-cell border, the layout of the kernel's bit sets."""
    packed = np.packbits(np.pad(mask, 1), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def as_flags(kernel, bits):
    """A kernel bit set as a bytearray with one flag per padded cell."""
    size = len(kernel.open)
    packed = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return bytearray(np.unpackbits(packed, count=size, bitorder="little").tobytes())


def random_case(index):
    """A seeded tube, fleet, station and sample sites. Sizes 1-24,
    densities 0-0.4, 1-4 robots, batteries of 6-60 ticks on most cases;
    every fifth fleet has one robot dropped on a random open cell, which
    may be cut off from the entrance."""
    rng = random.Random(f"kernel:{index}")
    width, height = rng.randint(1, 24), rng.randint(1, 24)
    grid = generate_tube(rng.randrange(1 << 30), width, height,
                         round(rng.uniform(0.0, 0.4), 3))
    tick_s = 1.0 / 1.7
    overrides = {"module_count": rng.randint(2, 4)}
    if rng.random() < 0.8:
        overrides["battery_full_s"] = rng.randint(6, 60) * tick_s
    fleet = make_fleet(grid, rng.randint(1, 4), **overrides)
    open_cells = [tuple(map(int, rc)) for rc in np.argwhere(grid.cells != OBSTACLE)]
    if index % 5 == 0:
        fleet[-1] = replace(fleet[-1], position=rng.choice(open_cells))
    sites = tuple(SampleSite(rng.choice(open_cells), round(rng.uniform(0.5, 8.0), 1))
                  for _ in range(rng.randint(0, 4)))
    station = Station(charge_time_s=rng.choice([0.0, 1.0, 5.0, 30.0]))
    for robot in fleet:
        reference_sense(grid.explored, grid.cells, robot.position)
    return TubeWorld(grid=grid, station=station, sample_sites=sites), fleet


@pytest.mark.parametrize("block", range(10))
def test_kernel_matches_reference_step(block):
    """20 maps per block, 200 in all, up to 80 ticks each: the public
    ``step`` and a kernel kept across ticks both match the reference on
    every robot and the whole world after every tick, and the kernel's
    incrementally kept home distances, and its known and frontier bit
    sets, equal fresh ones."""
    for index in range(block * 20, block * 20 + 20):
        ref_world, ref_fleet = random_case(index)
        world, fleet = ref_world, ref_fleet
        kernel = _Kernel(ref_world.grid, ref_fleet, ref_world.station,
                         ref_world.sample_sites)
        entrance = ref_world.grid.entrance
        reach = reachable_cells(ref_world.grid)
        for tick in range(80):
            ref_world, ref_fleet = reference_step(ref_world, ref_fleet)
            world, fleet = step(world, fleet)
            kernel.tick()
            where = f"case {index}, tick {tick}"
            assert robot_view(fleet) == robot_view(ref_fleet), where
            assert world_view(world) == world_view(ref_world), where
            assert robot_view(kernel.robots()) == robot_view(ref_fleet), where
            explored = kernel.explored_mask()
            assert np.array_equal(explored, ref_world.grid.explored), where
            assert tuple(kernel.sites) == ref_world.sample_sites, where
            assert tuple(kernel.delivered) == ref_world.delivered, where
            known = ref_world.grid.traversable() & explored
            assert np.array_equal(unpad(kernel, kernel.dist_home, np.intc),
                                  bfs_distances(known, entrance)), where
            assert kernel.known_bits == as_bits(known), where
            assert kernel.frontier_bits == as_bits(frontier_mask(ref_world.grid)), where
            if (explored[reach].all()
                    and all(r.state is not RobotState.EXPLORING for r in ref_fleet)):
                break


def serpentine(height, width):
    """One-cell corridors joined at alternate ends: a single path through
    every open cell, so each BFS level holds one cell."""
    mask = np.zeros((height, width), dtype=bool)
    mask[::2, :] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def bfs_cases():
    """(mask, start) pairs: drawn masks up to 64x64 at open shares of
    0.3-1.0, serpentines, 1xN and Nx1 strips with and without gaps, and
    starts on obstacles."""
    rng = random.Random(7)
    for _ in range(80):
        h, w = rng.randint(1, 64), rng.randint(1, 64)
        mask = np.array([[rng.random() < rng.choice([0.3, 0.6, 0.7, 0.9, 1.0])
                          for _ in range(w)] for _ in range(h)])
        yield mask, (rng.randrange(h), rng.randrange(w))
    for h, w in ((1, 1), (3, 5), (9, 9), (21, 40), (64, 64), (63, 7)):
        mask = serpentine(h, w)
        yield mask, (0, 0)
        yield mask, (h - 1, rng.randrange(w))
    for n in (1, 2, 17, 64, 1000):
        strip = np.ones(n, dtype=bool)
        if n > 2:
            strip[n // 3] = False
        for start in {0, n // 2, n - 1}:
            yield strip[None, :], (0, start)
            yield strip[:, None], (start, 0)
    mask = serpentine(9, 9)
    yield mask, (1, 3)  # an obstacle inside the serpentine
    yield np.zeros((4, 6), dtype=bool), (2, 2)


def test_bfs_distances_matches_reference():
    """The level-by-level flat BFS gives the reference's hop counts."""
    for mask, start in bfs_cases():
        got = bfs_distances(mask, start)
        assert got.dtype == np.int32
        assert np.array_equal(got, reference_bfs(mask, start)), (mask.shape, start)
        if not mask[start]:
            assert (got == -1).all()


def flood_fill(cells):
    """Reachable non-obstacle cells from the entrance, 4-connected."""
    (start,) = [tuple(map(int, rc)) for rc in np.argwhere(cells == ENTRANCE)]
    h, w = cells.shape
    seen, queue = {start}, deque([start])
    while queue:
        r, c = queue.popleft()
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (0 <= nr < h and 0 <= nc < w and cells[nr, nc] != OBSTACLE
                    and (nr, nc) not in seen):
                seen.add((nr, nc))
                queue.append((nr, nc))
    return seen


maps = st.tuples(st.integers(0, 2**30), st.integers(1, 14), st.integers(1, 14),
                 st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.45]))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(maps, st.integers(1, 4))
def test_survey_covers_exactly_the_flood_fill_with_exclusive_claims(tube, robots):
    grid = generate_tube(*tube)
    oracle = flood_fill(grid.cells)
    world = TubeWorld(grid=fresh_map(grid.cells))
    fleet = make_fleet(grid, robots, battery_full_s=36000.0)
    for _ in range(2000):
        world, fleet = step(world, fleet)
        targets = [r.target for r in fleet if r.target is not None]
        assert len(targets) == len(set(targets))
        if coverage_fraction(world.grid) == 1.0:
            break
    explored = {tuple(map(int, rc)) for rc in np.argwhere(world.grid.explored)}
    assert explored == oracle


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(maps, st.integers(1, 3), st.integers(4, 40))
def test_no_battery_runs_flat_off_the_entrance(tube, robots, battery_ticks):
    grid = generate_tube(*tube)
    fleet = make_fleet(grid, robots, battery_full_s=battery_ticks / 1.7)
    world = TubeWorld(grid=fresh_map(grid.cells), station=Station(charge_time_s=5.0))
    for _ in range(400):
        world, fleet = step(world, fleet)
        for robot in fleet:
            if robot.position != grid.entrance and robot.state is not RobotState.STUCK:
                assert robot.battery_s > 0.0
        if coverage_fraction(world.grid) == 1.0:
            break


def survey_case(index):
    """A seeded 8-20 cell tube with 1-4 short-battery robots, a charging
    station and five sample sites."""
    rng = random.Random(f"survey:{index}")
    grid = generate_tube(rng.randrange(1 << 30), rng.randint(8, 20),
                         rng.randint(8, 20), 0.2)
    fleet = make_fleet(grid, rng.randint(1, 4), module_count=3,
                       battery_full_s=rng.randint(12, 40) / 1.7)
    open_cells = [tuple(map(int, rc)) for rc in np.argwhere(grid.cells != OBSTACLE)]
    sites = tuple(SampleSite(rng.choice(open_cells), round(rng.uniform(0.5, 8.0), 1))
                  for _ in range(5))
    return grid, fleet, Station(charge_time_s=5.0), sites


def test_survey_counters_match_a_step_replay():
    """``run_exploration`` counts moves and handed-over samples in the
    kernel; replaying ``step`` for as many ticks and diffing each robot
    before and after every tick gives the same per-robot stats."""
    handed_total = 0
    for index in range(12):
        grid, fleet, station, sites = survey_case(index)
        report = run_exploration(grid, fleet, station=station, max_steps=400,
                                 sample_sites=sites)
        world = TubeWorld(grid=fresh_map(grid.cells), station=station,
                          sample_sites=sites)
        moves, handed = Counter(), Counter()
        for _ in range(report.steps):
            world, after = step(world, fleet)
            for prev, robot in zip(fleet, after):
                moves[robot.id] += robot.position != prev.position
                handed[robot.id] += max(0, len(prev.samples) - len(robot.samples))
            fleet = after
        expected = [(r.id, moves[r.id], handed[r.id], r.state.value, r.battery_s)
                    for r in sorted(fleet, key=lambda r: r.id)]
        got = [(s.robot_id, s.distance_cells, s.samples_delivered, s.final_state,
                s.battery_s) for s in report.per_robot_stats]
        assert got == expected, f"case {index}"
        assert report.samples_delivered == len(world.delivered), f"case {index}"
        handed_total += report.samples_delivered
    assert handed_total > 0


def test_no_robot_is_rebuilt_per_tick(monkeypatch):
    """A survey builds no ``ScoutRobot`` per tick: at most one per sample
    it collects, which builds one ``Sample``."""
    built = Counter()
    for cls in (ScoutRobot, Sample):
        def counted(self, post_init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    grid = generate_tube(42, 20, 20, 0.2)
    fleet = make_fleet(grid, 3, battery_full_s=40 / 1.7)
    sites = (SampleSite((5, 5), 1.0), SampleSite((12, 8), 2.0),
             SampleSite((17, 15), 3.0))
    built.clear()
    report = run_exploration(grid, fleet, station=Station(charge_time_s=5.0),
                             sample_sites=sites)
    assert report.steps > 100 and report.samples_delivered > 0
    assert built["ScoutRobot"] <= built["Sample"]


def test_kept_kernel_searches_again_beside_the_goal_it_left():
    """The left-cell condition of ``_Kernel.reuse``, pinned. A search
    never tests its own start cell, so scout_1, starting on a 4.9 kg site
    at (0, 2), heads for the frontier (0, 4), two cells away. One step
    on, the cell it left is the nearest goal at distance 1, and it turns
    back to take the site."""
    grid = grid_from_text("E.....\n")
    grid.explored[0, :5] = True
    fleet = [ScoutRobot(id="scout_1", module_count=2, position=(0, 2))]
    sites = (SampleSite((0, 2), 4.9),)
    world = TubeWorld(grid=grid, sample_sites=sites)
    kernel = _Kernel(grid, fleet, world.station, sites)
    targets = []
    for tick in range(2):
        world, fleet = reference_step(world, fleet)
        kernel.tick()
        assert robot_view(kernel.robots()) == robot_view(fleet), f"tick {tick}"
        targets.append(fleet[0].target)
    assert targets == [(0, 4), (0, 2)]
    assert kernel.sites == [] and fleet[0].samples[0].origin == (0, 2)


def test_robot_takes_the_light_site_listed_after_a_heavy_one():
    """A 7.5 kg site listed before a 4.9 kg one on the same cell: the
    robot's 6 kg modules take the light one on its first visit and leave
    the heavy one, and the survey ends once it is delivered."""
    grid = grid_from_text("E....\n")
    sites = (SampleSite((0, 2), 7.5), SampleSite((0, 2), 4.9))
    fleet = [ScoutRobot(id="scout_1", module_count=2, position=grid.entrance)]
    world = TubeWorld(grid=fresh_map(grid.cells), sample_sites=sites)
    for _ in range(2):
        world, fleet = step(world, fleet)
    assert fleet[0].position == (0, 2)
    assert fleet[0].samples == (Sample(4.9, (0, 2), 1),)
    assert world.sample_sites == sites[:1]
    report = run_exploration(grid, make_fleet(grid, 1, module_count=2),
                             max_steps=1000, sample_sites=sites)
    assert report.samples_delivered == 1 and report.steps < 20


def mixed_capacity_case(index):
    """A seeded tube with 2-4 robots whose modules alternate between 2 kg
    and 6 kg, and 3-8 sites of 1, 4 or 7 kg: a 1 kg pickup changes the
    sites both capacities can lift, a 4 kg one only the 6 kg robots'."""
    rng = random.Random(f"goals:{index}")
    grid = generate_tube(rng.randrange(1 << 30), rng.randint(6, 20), rng.randint(6, 20),
                         rng.choice([0.0, 0.1, 0.2]))
    fleet = [replace(robot, aux_capacity_kg=(2.0, 6.0)[i % 2])
             for i, robot in enumerate(make_fleet(grid, rng.randint(2, 4),
                                                  module_count=rng.randint(2, 4),
                                                  battery_full_s=40 / 1.7))]
    open_cells = [tuple(map(int, rc)) for rc in np.argwhere(grid.cells != OBSTACLE)]
    sites = tuple(SampleSite(rng.choice(open_cells), rng.choice([1.0, 4.0, 7.0]))
                  for _ in range(rng.randint(3, 8)))
    for robot in fleet:
        reference_sense(grid.explored, grid.cells, robot.position)
    return TubeWorld(grid=grid, station=Station(charge_time_s=5.0), sample_sites=sites), fleet


def test_goals_kept_per_capacity_follow_every_pickup():
    """Side by side with the reference tick on a kernel kept across
    ticks: robots of 2 kg and 6 kg modules keep their goals per capacity
    while no site is taken. After every tick each kept set is the sites a
    robot of its capacity can lift, and the robots and sites match the
    reference, through pickups that change the goals of one capacity and
    of both."""
    pickups = Counter()
    for index in range(24):
        world, fleet = mixed_capacity_case(index)
        kernel = _Kernel(world.grid, fleet, world.station, world.sample_sites)
        for tick in range(120):
            before = world.sample_sites
            world, fleet = reference_step(world, fleet)
            kernel.tick()
            where = f"case {index}, tick {tick}"
            assert robot_view(kernel.robots()) == robot_view(fleet), where
            assert tuple(kernel.sites) == world.sample_sites, where
            for capacity, goals in kernel.goals.items():
                assert goals == {c for site, c in zip(kernel.sites, kernel.site_cells)
                                 if site.mass_kg <= capacity}, where
            taken = Counter(before) - Counter(world.sample_sites)
            pickups.update("one" if site.mass_kg > 2.0 else "both" for site in taken)
    assert pickups["one"] >= 20 and pickups["both"] >= 20, pickups


def test_a_robot_takes_the_site_on_the_entrance_where_it_stands():
    """``nearest`` never tests its start cell. A robot standing on a site
    it can carry, with nothing else to claim, takes it there instead of
    heading home: on the one-cell map it picks the site up in the first
    tick and hands it over in the second, and the survey ends."""
    grid = grid_from_text("E\n")
    sites = (SampleSite((0, 0), 1.0),)
    fleet = make_fleet(grid, 1)
    world = TubeWorld(grid=fresh_map(grid.cells), sample_sites=sites)
    world, fleet = step(world, fleet)
    assert fleet[0].state is RobotState.EXPLORING
    assert fleet[0].samples == (Sample(1.0, (0, 0), 1),)
    report = run_exploration(grid, make_fleet(grid, 1), max_steps=1000,
                             sample_sites=sites)
    assert (report.steps, report.samples_delivered) == (2, 1)


@pytest.mark.parametrize("seed", [25, 51])
@pytest.mark.parametrize("robots", [1, 2, 3])
def test_a_survey_with_a_site_on_the_entrance_delivers_it(seed, robots):
    """On these 6x6 tubes the robot that would take the entrance site
    comes to stand on it with nothing else to claim; the survey still
    delivers it and ends well within its step cap."""
    grid = generate_tube(seed, 6, 6, 0.2)
    report = run_exploration(grid, make_fleet(grid, robots, battery_full_s=60.0),
                             station=Station(charge_time_s=5.0), max_steps=3000,
                             sample_sites=(SampleSite(grid.entrance, 1.0),))
    assert report.samples_delivered == 1 and report.steps < 3000


def scale_case(index):
    """A seeded tube of 8-64 cells square with 1-6 robots of 10-80 tick
    batteries, a charging station and up to 8 sample sites."""
    rng = random.Random(f"scale:{index}")
    grid = generate_tube(rng.randrange(1 << 30), rng.randint(8, 64),
                         rng.randint(8, 64), rng.choice([0.0, 0.1, 0.2, 0.3]))
    fleet = make_fleet(grid, rng.randint(1, 6), module_count=rng.randint(2, 4),
                       battery_full_s=rng.randint(10, 80) / 1.7)
    open_cells = [tuple(map(int, rc)) for rc in np.argwhere(grid.cells != OBSTACLE)]
    sites = tuple(SampleSite(rng.choice(open_cells), round(rng.uniform(0.5, 8.0), 1))
                  for _ in range(rng.randint(0, 8)))
    return grid, fleet, Station(charge_time_s=rng.choice([0.0, 5.0, 30.0])), sites


def survey_ticks(kernel, grid, limit):
    """Tick ``kernel``, built on ``grid``, until every cell of
    ``reachable_cells(grid)`` is explored and no robot holds a target, at
    most ``limit`` times, yielding after every tick."""
    reach = reachable_cells(grid)
    for _ in range(limit):
        kernel.tick()
        yield
        if (all(sc.target is None for sc in kernel.scouts)
                and kernel.explored_mask()[reach].all()):
            return


def test_reused_choices_match_a_search(monkeypatch):
    """Side by side on large maps with many robots and sample sites:
    wherever ``_Kernel.reuse`` keeps a target, ``nearest`` from the same
    cell under the same claims and goals lays the same route as the rest
    of the kept one, cell for cell: the same target, step and distance."""
    reuse, where = _Kernel.reuse, {}

    def checking(kernel, scout, claimed, goals):
        found = reuse(kernel, scout, claimed, goals)
        if found is not None:
            assert found == kernel.nearest(scout.v, claimed, goals), (
                f"case {where['case']}, tick {kernel.ticks}")
        return found

    monkeypatch.setattr(_Kernel, "reuse", checking)
    reused = 0
    for index in range(16):
        where["case"] = index
        case = scale_case(index)
        kernel = _Kernel(*case)
        for _ in survey_ticks(kernel, case[0], 1500):
            pass
        reused += kernel.reused
    assert reused > 10_000


def test_a_reuse_follows_a_pickup_that_leaves_the_goals_equal(monkeypatch):
    """Two sites on X = (0, 3), claimed by scout_1 from three cells down
    the side shaft. scout_2 passes over X toward its own site at (0, 6)
    and takes one of the two; X still holds the other, so its goals are
    unchanged and the next tick keeps its target without a search, as
    ``nearest`` would choose, along the rest of the route it kept."""
    reuse, kept = _Kernel.reuse, []

    def checking(kernel, scout, claimed, goals):
        found = reuse(kernel, scout, claimed, goals)
        if found is not None:
            assert found == kernel.nearest(scout.v, claimed, goals)
            kept.append((kernel.ticks, scout.robot.id, len(scout.samples), found[:]))
        return found

    monkeypatch.setattr(_Kernel, "reuse", checking)
    grid = grid_from_text("E......\n###.###\n###.###\n###.###\n")
    grid.explored[:] = True
    fleet = [ScoutRobot(id="scout_1", position=(3, 3)),
             ScoutRobot(id="scout_2", position=(0, 2))]
    sites = (SampleSite((0, 3), 1.0), SampleSite((0, 3), 2.0), SampleSite((0, 6), 3.0))
    kernel = _Kernel(grid, fleet, Station(), sites)
    kernel.tick()
    scout_2 = kernel.by_id[1]
    assert scout_2.target == kernel.index((0, 6)) and scout_2.v == kernel.index((0, 3))
    assert len(scout_2.samples) == 1
    kernel.tick()
    x, t = kernel.index((0, 3)), kernel.index((0, 6))
    assert kept == [(1, "scout_1", 0, [x, kernel.index((1, 3))]),
                    (1, "scout_2", 1, [t, kernel.index((0, 5)), kernel.index((0, 4))])]


scale_maps = st.tuples(st.integers(0, 2**30), st.integers(1, 64), st.integers(1, 64),
                       st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.45]))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(scale_maps, st.integers(1, 6), st.integers(4, 80))
def test_kept_kernel_keeps_claims_exclusive_and_batteries_up_at_scale(
        tube, robots, battery_ticks):
    """Surveys on a kept kernel, which keep targets across ticks: no two
    robots hold one target, and no battery reaches 0 off the entrance
    unless its robot is stuck."""
    grid = generate_tube(*tube)
    fleet = make_fleet(grid, robots, battery_full_s=battery_ticks / 1.7)
    kernel = _Kernel(grid, fleet, Station(charge_time_s=5.0), ())
    for _ in survey_ticks(kernel, grid, 1000):
        targets = [r.target for r in kernel.robots() if r.target is not None]
        assert len(targets) == len(set(targets))
        for sc in kernel.scouts:
            if sc.v != kernel.entrance and sc.state is not RobotState.STUCK:
                assert sc.battery_s > 0.0


def test_survey_counts_searches_and_reuses():
    """One fixed 28x28 survey with three robots pins how many target
    choices ``nearest`` made and how many were kept from the tick before,
    so that a change which stops the reuse shows here."""
    grid = generate_tube(42, 28, 28, 0.2)
    fleet = make_fleet(grid, 3, battery_full_s=120 / 1.7)
    sites = (SampleSite((5, 5), 1.0), SampleSite((12, 8), 2.0),
             SampleSite((17, 15), 3.0))
    kernel = _Kernel(grid, fleet, Station(charge_time_s=5.0), sites)
    for _ in survey_ticks(kernel, grid, 2000):
        pass
    assert kernel.explored_mask()[reachable_cells(grid)].all()
    assert len(kernel.delivered) == 2
    assert (kernel.ticks, kernel.searched, kernel.reused) == (514, 512, 454)


def reference_nearest(kernel, start, claimed, goals):
    """``_Kernel.nearest`` as it was: one list per level, expanded in list
    order, and each reached cell's first move + 1 in a per-cell array."""
    known = as_flags(kernel, kernel.known_bits)
    frontier = as_flags(kernel, kernel.frontier_bits)
    offsets = (-kernel.stride, -1, 1, kernel.stride)
    move = bytearray(len(known))  # first move + 1; 0 while unreached
    move[start] = 1
    level = []
    for k, off in enumerate(offsets, 1):
        if known[start + off]:
            move[start + off] = k
            level.append(start + off)
    depth = 1
    while level:
        hits = [v for v in level
                if (frontier[v] or v in goals) and v not in claimed]
        if hits:
            target = min(hits)
            return target, start + offsets[move[target] - 1], depth
        nxt = []
        for v in level:
            k = move[v]
            for off in offsets:
                n = v + off
                if known[n] and not move[n]:
                    move[n] = k
                    nxt.append(n)
        level = nxt
        depth += 1
    return None


def reference_path(kernel, start, target, length):
    """The cells after ``start`` on its way to ``target``, ``length``
    hops away over ``known``: each is the first N, W, E, S neighbour of
    the one before that is a level closer to ``target`` in a search back
    from it."""
    known, s = as_flags(kernel, kernel.known_bits), kernel.stride
    offsets = (-s, -1, 1, s)
    r0, c0 = divmod(start, s)
    dist, level = {target: 0}, [target]
    for d in range(1, length):
        nxt = []
        for v in level:
            for off in offsets:
                n = v + off
                if known[n] and n not in dist:
                    r, c = divmod(n, s)
                    # only a cell no further from start than the hops left
                    # can lie on a shortest path; -1 marks the rest
                    if abs(r - r0) + abs(c - c0) <= length - d:
                        dist[n] = d
                        nxt.append(n)
                    else:
                        dist[n] = -1
        level = nxt
    cells, v = [], start
    for d in range(length - 1, -1, -1):
        v = next(v + off for off in offsets if dist.get(v + off) == d)
        cells.append(v)
    return cells


def crowd_case(index):
    """A seeded tube of 6-40 cells square with 1-30 robots, long or short
    batteries, a charging station and up to 8 sample sites; every third
    case drops one robot on a random open cell, which may be cut off."""
    rng = random.Random(f"crowd:{index}")
    grid = generate_tube(rng.randrange(1 << 30), rng.randint(6, 40),
                         rng.randint(6, 40), rng.choice([0.1, 0.2, 0.3]))
    battery = rng.choice([1e9, rng.randint(10, 80) / 1.7])
    fleet = make_fleet(grid, rng.randint(1, 30), module_count=rng.randint(2, 4),
                       battery_full_s=battery)
    open_cells = [tuple(map(int, rc)) for rc in np.argwhere(grid.cells != OBSTACLE)]
    if index % 3 == 0:
        fleet[-1] = replace(fleet[-1], position=rng.choice(open_cells))
    sites = tuple(SampleSite(rng.choice(open_cells), round(rng.uniform(0.5, 8.0), 1))
                  for _ in range(rng.randint(0, 8)))
    return grid, fleet, Station(charge_time_s=rng.choice([0.0, 5.0, 30.0])), sites


def check_nearest(monkeypatch, where, far=2048):
    """Wrap ``_Kernel.nearest`` so that every answer is checked against
    ``reference_nearest``, and every route of two or more hops against
    ``reference_path``. Returns the counts of the answers, and in ``far``
    of the searches that start past cell index ``far``."""
    nearest, seen = _Kernel.nearest, Counter()

    def checking(kernel, start, claimed, goals):
        route = nearest(kernel, start, claimed, goals)
        found = None if route is None else (route[0], route[-1], len(route))
        assert found == reference_nearest(kernel, start, claimed, goals), (
            f"case {where['case']}, tick {kernel.ticks}")
        if found is not None and found[2] > 1:
            target, first, depth = found
            assert route[-2::-1] == reference_path(kernel, first, target, depth - 1), (
                f"case {where['case']}, tick {kernel.ticks}")
            seen["deep"] += 1
        seen["searches"] += 1
        seen["claimed"] += bool(claimed)
        seen["goals"] += bool(goals)
        seen["none"] += found is None
        seen["far"] += start > far
        return route

    monkeypatch.setattr(_Kernel, "nearest", checking)
    return seen


def test_nearest_matches_the_reference_search(monkeypatch):
    """Side by side on seeded surveys with 1-30 robots, sample sites and
    the claims of the robots before: every ``nearest`` answer names the
    target, first step and distance of the earlier search's, the "nothing"
    answers given without a search included, and every route of two or
    more hops is the one a search back from the target lays."""
    where = {}
    seen = check_nearest(monkeypatch, where)
    for index in range(24):
        where["case"] = index
        case = crowd_case(index)
        kernel = _Kernel(*case)
        for _ in survey_ticks(kernel, case[0], 600):
            pass
    assert seen["searches"] > 20_000
    assert min(seen["claimed"], seen["goals"], seen["none"], seen["deep"]) > 5000, seen


def tall_case(index, width, height, robots, battery_ticks):
    """A seeded ``width`` x ``height`` tube with ``robots`` robots of
    ``battery_ticks`` tick batteries, a charging station and up to 6
    sample sites."""
    rng = random.Random(f"tall:{index}")
    grid = generate_tube(rng.randrange(1 << 30), width, height, 0.2)
    fleet = make_fleet(grid, robots, battery_full_s=battery_ticks / 1.7)
    open_cells = [tuple(map(int, rc)) for rc in np.argwhere(grid.cells != OBSTACLE)]
    sites = tuple(SampleSite(rng.choice(open_cells), round(rng.uniform(0.5, 8.0), 1))
                  for _ in range(rng.randint(0, 6)))
    return grid, fleet, Station(charge_time_s=rng.choice([0.0, 5.0])), sites


@pytest.mark.parametrize("cells", [2048, 64])
def test_nearest_matches_the_reference_search_as_its_window_grows(monkeypatch, cells):
    """``nearest`` searches bit sets that span the whole padded map; it
    once searched a window of whole rows, first 2048 cells (``cells`` as
    shipped, and 64 as cut to test its growth), and grew it where a level
    reached an edge row. Side by side, as above, on 80x20, 20x80 and
    20x150 strips (width x height), a 64x64 tube with 30 robots and a
    20x300 strip with 3 robots that never run flat, the bit sets running
    to about 6600 cells: every answer and route is the reference's, and
    thousands of searches start past cell index ``cells``, outside a first
    window of that size laid from the top of the map."""
    where = {}
    seen = check_nearest(monkeypatch, where, cells)
    for index, (width, height, robots, battery, ticks) in enumerate(
            [(80, 20, 4, 150, 400), (20, 80, 3, 1e9, 400), (20, 150, 3, 1e9, 1000),
             (64, 64, 30, 1e9, 240), (20, 300, 3, 1e9, 1000)]):
        where["case"] = index
        case = tall_case(index, width, height, robots, battery)
        kernel = _Kernel(*case)
        for _ in survey_ticks(kernel, case[0], ticks):
            pass
    assert seen["deep"] > 3000 and seen["none"] > 250, seen
    assert seen["far"] > 2000, seen


def pocket_case():
    """A 7x9 tube with two open pockets walled off from the entrance:
    scout_2 is placed in the right one, which holds a sample site, and
    nobody enters the left one. The explored mask given as input marks
    the wall row under the entrance, obstacles included, and a cell of
    the right pocket."""
    grid = grid_from_text("...E.....\n"
                          ".........\n"
                          "######.##\n"
                          "..#......\n"
                          "..#.####.\n"
                          "..#.#..#.\n"
                          "..#.####.\n")
    explored = np.zeros(grid.cells.shape, dtype=bool)
    explored[2, :] = explored[5, 6] = True
    grid = replace(grid, explored=explored)
    fleet = make_fleet(grid, 2, battery_full_s=1e9)
    fleet[-1] = replace(fleet[-1], position=(5, 5))
    return grid, fleet, Station(), (SampleSite((5, 6), 1.0), SampleSite((3, 4), 1.0))


def test_snapshot_and_coverage_match_the_flood_fill_oracle():
    """After construction and after every tick of seeded surveys, the
    kernel's bit sets match masks built from its explored mask:
    ``known_bits`` is the explored open cells and ``frontier_bits`` the
    frontier mask, with ``frontier_count`` its size. The ``unseen`` flags
    are the open cells not yet explored, so no cell is learned twice, and
    ``dist_home`` is the BFS over the known cells from the entrance, built
    whole at construction and kept since. ``run_exploration`` cut at
    ticks along the same survey reports the share of the flood fill from
    the entrance explored by then, and lists as undeliverable the sites
    off the flood fill or heavier than every module limit.
    The surveys include robots placed off the entrance, cut-off pockets
    and an input explored mask that marks obstacle cells."""
    cases = [pocket_case()] + [crowd_case(index) for index in range(12)]
    for index, (grid, fleet, station, sites) in enumerate(cases):
        reach = flood_fill(grid.cells)
        oracle = np.zeros(grid.cells.shape, dtype=bool)
        oracle[tuple(np.array(sorted(reach)).T)] = True
        kernel = _Kernel(grid, fleet, station, sites)
        covered = {}  # by tick: the explored cells of the flood fill
        for _ in chain([None], survey_ticks(kernel, grid, 300)):  # construction, then each tick
            where = f"case {index}, tick {kernel.ticks}"
            explored = kernel.explored_mask()
            sensed = replace(grid, explored=explored)
            covered[kernel.ticks] = np.count_nonzero(oracle & explored)
            assert kernel.known_bits == as_bits(grid.traversable() & explored), where
            assert kernel.frontier_bits == as_bits(frontier_mask(sensed)), where
            assert kernel.frontier_count == kernel.frontier_bits.bit_count(), where
            assert np.array_equal(unpad(kernel, kernel.unseen, bool),
                                  grid.traversable() & ~explored), where
            assert np.array_equal(unpad(kernel, kernel.dist_home, np.intc),
                                  bfs_distances(grid.traversable() & explored,
                                                grid.entrance)), where
            assert len(set(kernel.fresh)) == len(kernel.fresh), where
        capacity = max(robot.aux_capacity_kg for robot in fleet)
        for cap in sorted({1, 3, 10, 30, kernel.ticks} & set(covered)):
            report = run_exploration(grid, fleet, station, cap, sample_sites=sites)
            where = f"case {index}, max_steps {cap}"
            assert report.coverage_fraction == covered[report.steps] / len(reach), where
            assert [i for i, _ in report.undeliverable_sites] == [
                i for i, site in enumerate(sites)
                if site.cell not in reach or site.mass_kg > capacity], where
        if index == 0:  # the pocket case covers all it can reach, less the pockets
            assert covered[kernel.ticks] == len(reach) == 31
            assert kernel.by_id[1].state is RobotState.STUCK
            assert report.coverage_fraction == 1.0
            assert report.undeliverable_sites == ((0, "cell [5, 6] is not connected "
                                                      "to the entrance"),)


@pytest.mark.parametrize("density", [0.0, 0.3])
def test_a_kernel_built_on_a_fully_explored_map_knows_every_open_cell(density):
    """Built on a fully explored map, open or with obstacles, a kernel's
    ``known_bits`` is every open cell, taken in one OR of the
    ``pending_bits`` it was seeded with, its home distances are the BFS
    over them. A survey counts only the cells the flood fill from the
    entrance reaches: explored over those alone, it has nothing to do."""
    grid = generate_tube(5, 30, 20, density)
    grid.explored[:] = True
    kernel = _Kernel(grid, make_fleet(grid, 2), Station(), ())
    assert kernel.known_bits == as_bits(grid.traversable() & grid.explored)
    assert np.array_equal(unpad(kernel, kernel.dist_home, np.intc),
                          bfs_distances(grid.traversable(), grid.entrance))
    assert kernel.pending_bits == 0
    reach = flood_fill(grid.cells)
    grid.explored[:] = False
    grid.explored[tuple(np.array(sorted(reach)).T)] = True
    report = run_exploration(grid, make_fleet(grid, 2))
    assert (report.steps, report.coverage_fraction) == (0, 1.0)
    if density:
        assert len(reach) < np.count_nonzero(grid.traversable())


def test_a_site_on_an_obstacle_beside_a_robot_is_never_a_target():
    """The site at (0, 1) lies on an obstacle east of the entrance, ahead
    of the frontier cell (1, 0) in N, W, E, S order. ``nearest`` takes a
    goal only on a known cell, so the robot never aims at the site or
    steps into the wall: it covers the open cells, and the site is
    reported undeliverable."""
    grid = grid_from_text("E#.\n...\n")
    sites = (SampleSite((0, 1), 1.0),)
    kernel = _Kernel(grid, make_fleet(grid, 1), Station(), sites)
    for _ in survey_ticks(kernel, grid, 50):
        (scout,) = kernel.scouts
        assert kernel.open[scout.v] and scout.target != kernel.index((0, 1)), kernel.ticks
        assert kernel.robots()[0].target != (0, 1), kernel.ticks
    assert np.count_nonzero(kernel.explored_mask() & grid.traversable()) == 5
    report = run_exploration(grid, make_fleet(grid, 1), sample_sites=sites)
    assert report.coverage_fraction == 1.0
    assert report.undeliverable_sites == ((0, "cell [0, 1] is an obstacle"),)


def test_nothing_left_to_claim_is_answered_without_a_search(monkeypatch):
    """On a 1x3 tube both robots start at the entrance, and (0, 1) is the
    only frontier. scout_1 claims it; scout_2 then gets None from
    ``nearest`` without a search, as the reference search answers, and
    heads home, where it parks to charge. A search would show in
    ``_Kernel.levels``, the count of the levels searches expanded: from
    the entrance here it expands two, (0, 1) and an empty one."""
    nearest, answers = _Kernel.nearest, []

    def recording(kernel, start, claimed, goals):
        before = kernel.levels
        route = nearest(kernel, start, claimed, goals)
        found = None if route is None else (route[0], route[-1], len(route))
        assert found == reference_nearest(kernel, start, claimed, goals)
        answers.append((set(claimed), found, kernel.levels - before))
        return route

    monkeypatch.setattr(_Kernel, "nearest", recording)
    grid = grid_from_text("E..\n")
    kernel = _Kernel(grid, make_fleet(grid, 2), Station(), ())
    x = kernel.index((0, 1))
    assert kernel.frontier_count == 1 and kernel.frontier_bits == 1 << x
    kernel.tick()
    assert answers == [(set(), (x, x, 1), 0), ({x}, None, 0)]
    scout_1, scout_2 = kernel.by_id
    assert scout_1.target == x and scout_1.v == x
    assert [r.target for r in kernel.robots()] == [(0, 1), None]
    assert scout_2.state is RobotState.CHARGING and scout_2.target is None


def pinned_survey(name):
    """The outcome of one pinned survey as text: the ``repr`` of its
    ``ExplorationReport``, or for ``steps`` the robots and world after
    each of 200 ``step`` calls. The 28x28 tubes are the ones
    ``explore --seed 7`` generates."""
    tube = generate_tube(derive_seed(7, 0), 28, 28)
    if name == "stall":  # stops at coverage 0.347 after 3000 steps
        fleet = make_fleet(tube, 3, battery_full_s=23.5)
        return repr(run_exploration(tube, fleet, Station(charge_time_s=5.0), 3000))
    if name == "short":
        fleet = make_fleet(tube, 3, battery_full_s=60.0)
        sites = (SampleSite((5, 5), 1.0), SampleSite((20, 14), 2.0))
        return repr(run_exploration(tube, fleet, Station(charge_time_s=5.0), 4000,
                                    sample_sites=sites))
    if name == "crowd":
        grid = generate_tube(derive_seed(7, 0), 48, 48)
        return repr(run_exploration(grid, make_fleet(grid, 30, battery_full_s=1e9),
                                    max_steps=2000))
    if name == "stuck":
        grid, fleet, station, sites = pocket_case()
        return repr(run_exploration(grid, fleet, station, sample_sites=sites))
    grid = generate_tube(11, 20, 20)
    open_cells = [tuple(map(int, rc)) for rc in np.argwhere(grid.cells != OBSTACLE)]
    sites = (SampleSite(open_cells[40], 1.0), SampleSite(open_cells[200], 2.5),
             SampleSite(open_cells[-1], 9.0))
    world = TubeWorld(grid=grid, station=Station(charge_time_s=5.0), sample_sites=sites)
    robots = make_fleet(grid, 3, battery_full_s=30 / 1.7)
    views = []
    for _ in range(200):
        world, robots = step(world, robots)
        views.append(repr((robot_view(robots), world_view(world))))
    return "\n".join(views)


#: SHA-256 of ``pinned_survey(name)``, computed before the tick was last
#: rewritten: every state, route, float and count of these surveys stays.
#: ``stuck`` was pinned again when a site off ``reach`` stopped counting as
#: work left (see the test after this one); its survey now ends at step 40.
PINNED_SURVEYS = {
    "crowd": "5af377129a4286dfdff92516cdd50adbc237d9468b880b6a140e0a9b8d3e4449",
    "short": "a0979c9bedc9ed0ee045b7bd1545e39f56c8f5c63403052ee22358a3d8e4c5c6",
    "stall": "b276c0353735300af22b744fa7088bbf3bc6e25611ac827a7f4ce59d31bd5e54",
    "steps": "f542f4febd0c90704bbba80924d972ebb3982a703abe23b1af2b7d1227ad8cb7",
    "stuck": "f9a32b7ce8411ec094ab371c19e402bfedc6ae82a360cbca8d975cf18729329e",
}


@pytest.mark.parametrize("name", sorted(PINNED_SURVEYS))
def test_pinned_surveys_keep_every_outcome(name):
    """Five surveys keep their outcome byte for byte: a 28x28 stall whose
    robots shuttle to charge, a short-battery 28x28 survey with two
    sample sites, 30 robots on a 48x48 tube, a robot placed in a pocket
    cut off from the entrance, which goes STUCK, and 200 ``step`` calls
    on a 20x20 tube with sites."""
    digest = hashlib.sha256(pinned_survey(name).encode()).hexdigest()
    assert digest == PINNED_SURVEYS[name]


def test_a_site_sensed_in_a_cut_off_pocket_keeps_no_survey_running():
    """In ``pocket_case`` the STUCK robot placed in the walled-off pocket
    has sensed the site there, which no robot can bring home. The other
    robot covers every reachable cell and delivers the reachable site by
    step 40, and the survey ends then rather than at ``max_steps``."""
    grid, fleet, station, sites = pocket_case()
    report = run_exploration(grid, fleet, station, max_steps=10_000, sample_sites=sites)
    assert report.steps == 40
    assert report.coverage_fraction == 1.0
    assert report.samples_delivered == 1
    assert [s.samples_delivered for s in report.per_robot_stats] == [1, 0]
    assert [s.final_state for s in report.per_robot_stats] == ["charging", "stuck"]
