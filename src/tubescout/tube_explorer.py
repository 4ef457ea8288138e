"""Multi-robot frontier exploration of a gridded lava tube.

The tube is a 2D occupancy grid with a single entrance on the top edge
(the skylight access point). Modular scout robots spread out from the
entrance, claim frontier cells (explored free cells bordering unexplored
ones) without overlap, sense as they move, collect capped-mass samples
into per-module slots, and return to the entrance station to recharge
and hand samples over. Battery reserve logic forces a robot home before
it can strand itself.

Everything is deterministic: maps come from the seeded project PRNG and
every tie in targeting, pathing and processing order is broken by fixed
lexicographic rules.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import WinchSpec, winch_regen_energy
from .env import MarsEnvironment
from .rng import TUBE_STREAM, Rng

FREE = 0
OBSTACLE = 1
ENTRANCE = 2

_CELL_CHARS = {FREE: ".", OBSTACLE: "#", ENTRANCE: "E"}
_CHAR_CELLS = {v: k for k, v in _CELL_CHARS.items()}

#: Neighbor visit order (N, W, E, S): scans lower rows and columns first
#: so path and target ties resolve toward the lowest (row, col).
_DIRECTIONS = ((-1, 0), (0, -1), (0, 1), (1, 0))


class MapError(ValueError):
    """Raised for malformed map text or degenerate map parameters."""


@dataclass
class GridMap:
    """Occupancy grid plus the shared explored mask.

    ``cells`` is int8 with FREE/OBSTACLE/ENTRANCE values and never
    changes after construction; ``explored`` marks traversable cells the
    fleet has sensed. The entrance is always explored.
    """

    cells: np.ndarray
    explored: np.ndarray
    resolution_m: float = 1.0

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int8)
        if self.cells.ndim != 2 or self.cells.shape[0] < 1 or self.cells.shape[1] < 1:
            raise MapError(f"cells must be a 2D grid, got shape {self.cells.shape}")
        if self.resolution_m <= 0:
            raise MapError(f"resolution_m must be positive, got {self.resolution_m}")
        entrances = np.argwhere(self.cells == ENTRANCE)
        if len(entrances) != 1:
            raise MapError(f"map must have exactly one entrance, found {len(entrances)}")
        self.explored = np.array(self.explored, dtype=bool)
        if self.explored.shape != self.cells.shape:
            raise MapError("explored mask shape must match cells")
        self.explored[tuple(entrances[0])] = True

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def entrance(self) -> tuple[int, int]:
        r, c = np.argwhere(self.cells == ENTRANCE)[0]
        return int(r), int(c)

    def traversable(self) -> np.ndarray:
        return self.cells != OBSTACLE

    def copy(self) -> "GridMap":
        return GridMap(cells=self.cells, explored=self.explored.copy(),
                       resolution_m=self.resolution_m)


def fresh_map(cells: np.ndarray, resolution_m: float = 1.0) -> GridMap:
    """Wrap an occupancy array into a GridMap with nothing explored yet."""
    cells = np.asarray(cells, dtype=np.int8)
    return GridMap(cells=cells, explored=np.zeros(cells.shape, dtype=bool),
                   resolution_m=resolution_m)


def generate_tube(seed: int, width: int, height: int,
                  obstacle_density: float = 0.2, resolution_m: float = 1.0) -> GridMap:
    """Procedural tube map: entrance on the top edge, seeded obstacles.

    The same seed always yields the bit-identical map. The entrance
    column is drawn first, then one obstacle draw per cell in row-major
    order, so maps of equal size share a prefix of the random stream.
    """
    if width < 1 or height < 1:
        raise MapError(f"degenerate map dimensions {width}x{height}")
    if not 0.0 <= obstacle_density < 1.0:
        raise MapError(
            f"obstacle_density must be in [0, 1), got {obstacle_density}")
    rng = Rng(seed, stream=TUBE_STREAM)
    entrance_col = rng.below(width)
    cells = np.zeros((height, width), dtype=np.int8)
    for r in range(height):
        for c in range(width):
            if rng.chance(obstacle_density):
                cells[r, c] = OBSTACLE
    cells[0, entrance_col] = ENTRANCE
    return fresh_map(cells, resolution_m)


def grid_to_text(grid: GridMap) -> str:
    """Render the occupancy grid as '.'/'#'/'E' rows."""
    return "\n".join(
        "".join(_CELL_CHARS[int(v)] for v in row) for row in grid.cells) + "\n"


def grid_from_text(text: str, resolution_m: float = 1.0) -> GridMap:
    """Parse a '.'/'#'/'E' map; rows must be equal length, exactly one E."""
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise MapError("map text is empty")
    width = len(rows[0])
    cells = np.zeros((len(rows), width), dtype=np.int8)
    for r, line in enumerate(rows):
        if len(line) != width:
            raise MapError(
                f"ragged map: row {r} has length {len(line)}, expected {width}")
        for c, ch in enumerate(line):
            if ch not in _CHAR_CELLS:
                raise MapError(f"unknown map character {ch!r} at row {r}, col {c}")
            cells[r, c] = _CHAR_CELLS[ch]
    return fresh_map(cells, resolution_m)


def read_map_file(path, resolution_m: float = 1.0) -> GridMap:
    with open(path, "r", encoding="utf-8") as fh:
        return grid_from_text(fh.read(), resolution_m)


def write_map_file(path, grid: GridMap) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(grid_to_text(grid))


def bfs_distances(mask: np.ndarray, start: tuple[int, int]) -> np.ndarray:
    """4-connected BFS hop counts over True cells; -1 where unreachable."""
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


def reachable_cells(grid: GridMap) -> np.ndarray:
    """Mask of traversable cells connected to the entrance."""
    return bfs_distances(grid.traversable(), grid.entrance) >= 0


def coverage_fraction(grid: GridMap) -> float:
    """Explored share of the entrance-connected traversable component."""
    reachable = reachable_cells(grid)
    total = int(np.count_nonzero(reachable))
    done = int(np.count_nonzero(reachable & grid.explored))
    return done / total


def frontier_mask(grid: GridMap) -> np.ndarray:
    """Explored traversable cells with >= 1 unexplored traversable neighbor."""
    open_unexplored = grid.traversable() & ~grid.explored
    h, w = open_unexplored.shape
    has_unexplored_neighbor = np.zeros((h, w), dtype=bool)
    has_unexplored_neighbor[1:, :] |= open_unexplored[:-1, :]
    has_unexplored_neighbor[:-1, :] |= open_unexplored[1:, :]
    has_unexplored_neighbor[:, 1:] |= open_unexplored[:, :-1]
    has_unexplored_neighbor[:, :-1] |= open_unexplored[:, 1:]
    return grid.traversable() & grid.explored & has_unexplored_neighbor


class RobotState(enum.Enum):
    EXPLORING = "exploring"
    RETURNING = "returning"
    CHARGING = "charging"
    STUCK = "stuck"


class CapacityExhausted(ValueError):
    """All aux module slots already hold a sample."""


class OverMass(ValueError):
    """Sample mass exceeds the per-module payload limit."""


@dataclass(frozen=True)
class Sample:
    """One sealed sample: one aux module slot each, no cross-contamination."""

    mass_kg: float
    origin: tuple[int, int]
    module_slot: int

    def __post_init__(self):
        if self.mass_kg < 0:
            raise ValueError(f"mass_kg must be nonnegative, got {self.mass_kg}")
        if self.module_slot < 1:
            raise ValueError(f"module_slot must be >= 1, got {self.module_slot}")


#: Battery run times for the single and double battery fits.
SINGLE_BATTERY_S = 5.0 * 3600.0
DOUBLE_BATTERY_S = 10.0 * 3600.0


@dataclass(frozen=True)
class ScoutRobot:
    """A modular scout. One module is the head; each of the other
    ``module_count - 1`` aux modules can hold one sample of up to
    ``aux_capacity_kg``. Drop tolerance is capability metadata checked
    against the station's final drop, not simulated physics."""

    id: str
    module_count: int = 3
    position: tuple[int, int] = (0, 0)
    state: RobotState = RobotState.EXPLORING
    samples: tuple[Sample, ...] = ()
    battery_full_s: float = SINGLE_BATTERY_S
    battery_s: float | None = None
    speed_mps: float = 1.7
    aux_capacity_kg: float = 6.0
    reserve_factor: float = 1.2
    drop_tolerance_m: float = 1.5
    target: tuple[int, int] | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("robot id must be nonempty")
        if not 2 <= self.module_count <= 5:
            raise ValueError(
                f"module_count must be in 2..5, got {self.module_count}")
        if self.battery_full_s <= 0:
            raise ValueError(
                f"battery_full_s must be positive, got {self.battery_full_s}")
        if self.battery_s is None:
            object.__setattr__(self, "battery_s", self.battery_full_s)
        if not 0.0 <= self.battery_s <= self.battery_full_s:
            raise ValueError(
                f"battery_s must be in [0, {self.battery_full_s}], got {self.battery_s}")
        if self.speed_mps <= 0:
            raise ValueError(f"speed_mps must be positive, got {self.speed_mps}")
        if self.aux_capacity_kg <= 0:
            raise ValueError(
                f"aux_capacity_kg must be positive, got {self.aux_capacity_kg}")
        if self.reserve_factor < 1.0:
            raise ValueError(
                f"reserve_factor must be >= 1, got {self.reserve_factor}")
        if len(self.samples) > self.aux_slots:
            raise ValueError(
                f"{len(self.samples)} samples exceed {self.aux_slots} aux slots")
        slots = [s.module_slot for s in self.samples]
        if len(set(slots)) != len(slots):
            raise ValueError("duplicate sample module_slot")
        for s in self.samples:
            if s.module_slot > self.aux_slots:
                raise ValueError(
                    f"module_slot {s.module_slot} exceeds aux slot count {self.aux_slots}")
            if s.mass_kg > self.aux_capacity_kg:
                raise ValueError(
                    f"sample mass {s.mass_kg} exceeds {self.aux_capacity_kg} kg slot limit")

    @property
    def aux_slots(self) -> int:
        return self.module_count - 1

    @property
    def payload_mass_kg(self) -> float:
        return sum(s.mass_kg for s in self.samples)


def make_fleet(grid: GridMap, count: int, **overrides) -> list[ScoutRobot]:
    """``count`` scouts parked at the entrance, ids scout_1..scout_n."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return [ScoutRobot(id=f"scout_{i + 1}", position=grid.entrance, **overrides)
            for i in range(count)]


def collect_sample(robot: ScoutRobot, mass_kg: float,
                   origin: tuple[int, int] | None = None) -> ScoutRobot:
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
    sample = Sample(mass_kg=mass_kg,
                    origin=robot.position if origin is None else origin,
                    module_slot=free[0])
    return replace(robot, samples=robot.samples + (sample,))


@dataclass(frozen=True)
class SampleSite:
    """A collectable sample lying at a map cell."""

    cell: tuple[int, int]
    mass_kg: float

    def __post_init__(self):
        if self.mass_kg < 0:
            raise ValueError(f"mass_kg must be nonnegative, got {self.mass_kg}")


@dataclass(frozen=True)
class Station:
    """Entrance-side charge and sample-handling station. ``descents``
    counts winch lowerings credited with regenerated energy."""

    charge_time_s: float = 3600.0
    winch: WinchSpec | None = None
    descents: int = 1

    def __post_init__(self):
        if self.charge_time_s < 0:
            raise ValueError(
                f"charge_time_s must be nonnegative, got {self.charge_time_s}")
        if self.descents < 0:
            raise ValueError(f"descents must be nonnegative, got {self.descents}")


@dataclass(frozen=True)
class TubeWorld:
    """One tube scenario: map, station, uncollected sites, deliveries."""

    grid: GridMap
    station: Station = Station()
    sample_sites: tuple[SampleSite, ...] = ()
    delivered: tuple[Sample, ...] = ()
    ticks: int = 0


def _tick_seconds(robot: ScoutRobot, grid: GridMap) -> float:
    return grid.resolution_m / robot.speed_mps


def _return_threshold_s(distance_cells: int, tick_s: float, factor: float) -> float:
    """Battery level at or below which a robot must head home.

    Looks one tick ahead: after one more exploring move the robot may be
    ``distance_cells + 1`` cells out, and must still hold the scaled
    return reserve, so the trigger keeps batteries strictly positive
    anywhere off the entrance.
    """
    return factor * (distance_cells + 1) * tick_s + tick_s


def _step_toward(mask: np.ndarray, start: tuple[int, int],
                 dist_to_goal: np.ndarray) -> tuple[int, int] | None:
    """One cell along a shortest path, given hop counts to the goal."""
    d = dist_to_goal[start]
    if d <= 0:
        return None
    h, w = mask.shape
    for dr, dc in _DIRECTIONS:
        nr, nc = start[0] + dr, start[1] + dc
        if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and dist_to_goal[nr, nc] == d - 1:
            return nr, nc
    return None


def _sense(grid: GridMap, position: tuple[int, int]) -> None:
    """Mark the cell and its traversable 4-neighbors explored in place."""
    grid.explored[position] = True
    h, w = grid.cells.shape
    for dr, dc in _DIRECTIONS:
        nr, nc = position[0] + dr, position[1] + dc
        if 0 <= nr < h and 0 <= nc < w and grid.cells[nr, nc] != OBSTACLE:
            grid.explored[nr, nc] = True


def _try_collect(robot: ScoutRobot, sites: list[SampleSite]) -> tuple[ScoutRobot, list[SampleSite]]:
    """Pick up a sample if the robot stands on an uncollected site."""
    for i, site in enumerate(sites):
        if site.cell == robot.position:
            try:
                robot = collect_sample(robot, site.mass_kg, origin=site.cell)
            except (CapacityExhausted, OverMass):
                return robot, sites  # leave the site for a later visit
            return robot, sites[:i] + sites[i + 1:]
    return robot, sites


def step(world: TubeWorld, robots: list[ScoutRobot]) -> tuple[TubeWorld, list[ScoutRobot]]:
    """Advance the simulation one tick; pure, returns new values.

    Per tick: every robot senses its surroundings; exploring robots are
    processed in id order, each claiming the nearest unclaimed frontier
    or known sample site (ties toward the lowest (row, col)) and moving
    one cell along a shortest known path; robots with nothing to claim
    head home; returning robots move one cell toward the entrance and
    hand samples over on arrival; charging robots refill. Battery drains
    one tick of time per tick whether moving or waiting.

    Raises:
        ValueError: if any robot sits on an obstacle cell.
    """
    grid = world.grid.copy()
    ids = [r.id for r in robots]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate robot ids in {ids}")
    for robot in robots:
        r, c = robot.position
        if not (0 <= r < grid.height and 0 <= c < grid.width):
            raise ValueError(f"robot {robot.id} is off the map at {robot.position}")
        if grid.cells[r, c] == OBSTACLE:
            raise ValueError(f"robot {robot.id} is on an obstacle at {robot.position}")

    for robot in robots:
        if robot.state is not RobotState.STUCK:
            _sense(grid, robot.position)

    entrance = grid.entrance
    known = grid.traversable() & grid.explored
    dist_home = bfs_distances(known, entrance)
    frontiers = frontier_mask(grid)

    sites = list(world.sample_sites)
    delivered = list(world.delivered)
    claimed: set[tuple[int, int]] = set()
    updated: dict[str, ScoutRobot] = {}

    for robot in sorted(robots, key=lambda rb: rb.id):
        tick_s = _tick_seconds(robot, grid)

        if robot.state is RobotState.STUCK:
            updated[robot.id] = robot
            continue

        if robot.state is RobotState.CHARGING:
            if world.station.charge_time_s == 0:
                battery = robot.battery_full_s
            else:
                rate = robot.battery_full_s / world.station.charge_time_s
                battery = min(robot.battery_full_s, robot.battery_s + rate * tick_s)
            state = RobotState.EXPLORING if battery >= robot.battery_full_s else RobotState.CHARGING
            updated[robot.id] = replace(robot, battery_s=battery, state=state)
            continue

        state = robot.state
        if state is RobotState.EXPLORING:
            d_home = int(dist_home[robot.position])
            if d_home < 0:
                updated[robot.id] = replace(robot, state=RobotState.STUCK, target=None)
                continue
            if robot.battery_s <= _return_threshold_s(d_home, tick_s, robot.reserve_factor):
                state = RobotState.RETURNING

        target = None
        move_to = None
        if state is RobotState.EXPLORING:
            dist_robot = bfs_distances(known, robot.position)
            best = None
            for r, c in np.argwhere(frontiers):
                cell = (int(r), int(c))
                if cell in claimed or cell == robot.position:
                    continue
                d = int(dist_robot[cell])
                if d < 0:
                    continue
                key = (d, cell[0], cell[1])
                if best is None or key < best[0]:
                    best = (key, cell)
            # known uncollected sample sites compete with frontiers
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
                    key = (d, cell[0], cell[1])
                    if best is None or key < best[0]:
                        best = (key, cell)
            if best is not None:
                target = best[1]
                claimed.add(target)
                dist_target = bfs_distances(known, target)
                move_to = _step_toward(known, robot.position, dist_target)
            else:
                # nothing left to claim: head home to deliver and park
                state = RobotState.RETURNING
        if state is RobotState.RETURNING and move_to is None:
            if dist_home[robot.position] < 0:
                updated[robot.id] = replace(robot, state=RobotState.STUCK, target=None)
                continue
            move_to = _step_toward(known, robot.position, dist_home)

        position = move_to if move_to is not None else robot.position
        battery = max(0.0, robot.battery_s - tick_s)
        moved = replace(robot, position=position, battery_s=battery,
                        state=state, target=target)
        if move_to is not None:
            _sense(grid, position)
        if moved.state is RobotState.EXPLORING:
            moved, sites = _try_collect(moved, sites)
        if moved.state is RobotState.RETURNING and moved.position == entrance:
            delivered.extend(moved.samples)
            moved = replace(moved, samples=(), state=RobotState.CHARGING, target=None)
        updated[moved.id] = moved

    next_world = TubeWorld(
        grid=grid,
        station=world.station,
        sample_sites=tuple(sites),
        delivered=tuple(delivered),
        ticks=world.ticks + 1,
    )
    return next_world, [updated[r.id] for r in robots]


@dataclass(frozen=True)
class RobotStats:
    robot_id: str
    distance_cells: int
    samples_delivered: int
    final_state: str
    battery_s: float


@dataclass(frozen=True)
class ExplorationReport:
    steps: int
    coverage_fraction: float
    samples_delivered: int
    energy_regen_wh: float
    per_robot_stats: tuple[RobotStats, ...]


def run_exploration(grid: GridMap, robots: list[ScoutRobot],
                    station: Station = Station(), max_steps: int = 10_000,
                    env: MarsEnvironment = MarsEnvironment(),
                    sample_sites: tuple[SampleSite, ...] = ()) -> ExplorationReport:
    """Run ticks until the reachable component is fully explored or
    ``max_steps`` is hit (a report outcome, not an error). When robots
    still carry samples at full coverage, the run continues until they
    deliver, under the same step cap.

    The station's winch descents are credited with regenerated energy.
    """
    if max_steps <= 0:
        raise ValueError(f"max_steps must be positive, got {max_steps}")
    world = TubeWorld(grid=grid.copy(), station=station, sample_sites=sample_sites)
    for robot in robots:
        _sense(world.grid, robot.position)

    fleet = list(robots)
    distance = {r.id: 0 for r in fleet}
    delivered_by = {r.id: 0 for r in fleet}
    steps = 0

    def work_remaining() -> bool:
        if coverage_fraction(world.grid) < 1.0:
            return True
        active = [r for r in fleet if r.state is not RobotState.STUCK]
        if not active:
            return False
        if any(r.samples for r in active):
            return True
        max_capacity = max(r.aux_capacity_kg for r in active)
        return any(
            world.grid.explored[site.cell] and site.mass_kg <= max_capacity
            for site in world.sample_sites)

    while work_remaining() and steps < max_steps:
        before = {r.id: r for r in fleet}
        world, fleet = step(world, fleet)
        steps += 1
        for robot in fleet:
            prev = before[robot.id]
            if robot.position != prev.position:
                distance[robot.id] += 1
            dropped = len(prev.samples) - len(robot.samples)
            if dropped > 0:
                delivered_by[robot.id] += dropped

    regen = 0.0
    if station.winch is not None:
        regen = station.descents * winch_regen_energy(station.winch, env)

    stats = tuple(
        RobotStats(
            robot_id=r.id,
            distance_cells=distance[r.id],
            samples_delivered=delivered_by[r.id],
            final_state=r.state.value,
            battery_s=r.battery_s,
        )
        for r in sorted(fleet, key=lambda rb: rb.id)
    )
    return ExplorationReport(
        steps=steps,
        coverage_fraction=coverage_fraction(world.grid),
        samples_delivered=len(world.delivered),
        energy_regen_wh=regen,
        per_robot_stats=stats,
    )
