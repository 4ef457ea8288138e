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
import heapq
import math
from array import array
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .energy import WinchSpec, winch_regen_energy
from .env import MarsEnvironment
from .numeric import require_nonnegative, require_positive
from .rng import TUBE_STREAM, Rng, chance_blocks

# numpy is imported inside the functions that build or read arrays, so
# that the analytic subcommands, which import this module, never load it.
if TYPE_CHECKING:
    import numpy as np

FREE = 0
OBSTACLE = 1
ENTRANCE = 2

_CELL_CHARS = {FREE: ".", OBSTACLE: "#", ENTRANCE: "E"}
_CHAR_CELLS = {v: k for k, v in _CELL_CHARS.items()}

class MapError(ValueError):
    """Raised for malformed map text or degenerate map parameters."""


@dataclass
class GridMap:
    """Occupancy grid plus the shared explored mask.

    ``cells`` is int8 with FREE/OBSTACLE/ENTRANCE values and never
    changes after construction; ``explored`` marks traversable cells the
    fleet has sensed. The entrance, found once at construction, is
    always explored.
    """

    cells: np.ndarray
    explored: np.ndarray
    resolution_m: float = 1.0
    entrance: tuple[int, int] = field(init=False)

    def __post_init__(self):
        import numpy as np
        cells = np.asarray(self.cells)
        if cells.ndim != 2 or cells.shape[0] < 1 or cells.shape[1] < 1:
            raise MapError(f"cells must be a 2D grid, got shape {cells.shape}")
        unknown = (cells != FREE) & (cells != OBSTACLE) & (cells != ENTRANCE)
        if unknown.any():
            r, c = np.argwhere(unknown)[0]
            raise MapError(
                f"unknown cell code {cells[r, c].item()!r} at row {r}, col {c}")
        self.cells = np.asarray(cells, dtype=np.int8)
        check_resolution(self.resolution_m)
        entrances = np.argwhere(self.cells == ENTRANCE)
        if len(entrances) != 1:
            raise MapError(f"map must have exactly one entrance, found {len(entrances)}")
        self.explored = np.array(self.explored, dtype=bool)
        if self.explored.shape != self.cells.shape:
            raise MapError("explored mask shape must match cells")
        r, c = entrances[0]
        self.entrance = (int(r), int(c))
        self.explored[self.entrance] = True

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    def traversable(self) -> np.ndarray:
        return self.cells != OBSTACLE

    def copy(self) -> "GridMap":
        return GridMap(cells=self.cells, explored=self.explored.copy(),
                       resolution_m=self.resolution_m)


def check_resolution(resolution_m: float) -> None:
    if resolution_m <= 0:
        raise MapError(f"resolution_m must be positive, got {resolution_m}")


#: Upper bound on the cells of a tube map, drawn or read: a 1000x1000
#: map takes 0.05 to 0.06 s to draw at obstacle densities 0 to 0.5
#: (CPython 3.11, numpy 2.4, 2 x86 CPUs).
MAX_TUBE_CELLS = 1_000_000


def check_tube_size(width: int, height: int) -> None:
    """Raise MapError unless a ``width`` x ``height`` map is allowed."""
    if width < 1 or height < 1:
        raise MapError(
            f"map dimensions must be at least 1x1, got {width}x{height}")
    if width * height > MAX_TUBE_CELLS:
        raise MapError(f"map dimensions {width}x{height} exceed "
                       f"{MAX_TUBE_CELLS} cells")


def check_tube_parameters(width: int, height: int, obstacle_density: float,
                          resolution_m: float) -> None:
    """Raise MapError unless ``generate_tube`` accepts these parameters."""
    check_tube_size(width, height)
    if not 0.0 <= obstacle_density < 1.0:
        raise MapError(
            f"obstacle_density must be in [0, 1), got {obstacle_density}")
    check_resolution(resolution_m)


#: Upper bound on the work of one survey, counted per robot tick as the
#: map's cells plus ``SURVEY_TICK_CELLS``. A stalled survey runs all of
#: its ``max_steps``; a robot tick then costs about 2.5-4 us (a search
#: that finds nothing on a 3x3 map, timed per tick) plus about
#: 0.3 us per map cell (a target search over the whole known map that
#: finds nothing: from a corner of an open map 0.03-0.06, 0.05-0.10 and
#: 0.18-0.32 us a cell at 100x100, 300x300 and 1000x1000, its bit sets
#: spanning the padded map), so a survey at the bound on open maps takes
#: at most about 80 s (CPython 3.11, 2 x86 CPUs). Once a tick, ``learn``
#: reads the whole map for the frontier and ``run_exploration`` for its
#: coverage count: 110 us on an open 1000x1000 map.
#: Where a level is one cell a search costs about 2-3 us a level: on a
#: 150x100 serpentine of one-cell corridors, 2 robots and a sample site
#: cut off from the entrance cover the map in 7396 of the 8300 ticks the
#: bound allows, taking 20-22 s. A site that a robot placed on cut-off
#: cells senses there is no work left, so such a robot no longer keeps
#: a survey from ending once ``reach`` is covered.
#: ``SURVEY_TICK_CELLS`` covers the fixed cost four to seven times over.
#: Keeping a target (``_Kernel.reuse``) and the "nothing" answer of
#: ``_Kernel.nearest`` do not lower the bound: in the worst case a target
#: is left unclaimed out of reach, the search finds nothing, and no
#: choice is kept.
MAX_SURVEY_WORK = 250_000_000
SURVEY_TICK_CELLS = 60


def check_survey_work(robot_count: int, max_steps: int, cells: int) -> None:
    """Raise ValueError if ``robot_count`` robots surveying a map of
    ``cells`` cells for ``max_steps`` ticks exceed ``MAX_SURVEY_WORK``."""
    work = robot_count * max_steps * (cells + SURVEY_TICK_CELLS)
    if work > MAX_SURVEY_WORK:
        raise ValueError(
            f"survey work robots.count x max_steps x (map cells + "
            f"{SURVEY_TICK_CELLS}) = {robot_count} x {max_steps} x "
            f"({cells} + {SURVEY_TICK_CELLS}) = {work} exceeds {MAX_SURVEY_WORK}")


def fresh_map(cells: np.ndarray, resolution_m: float = 1.0) -> GridMap:
    """Wrap an occupancy array into a GridMap with nothing explored yet."""
    import numpy as np
    cells = np.asarray(cells)
    return GridMap(cells=cells, explored=np.zeros(cells.shape, dtype=bool),
                   resolution_m=resolution_m)


def generate_tube(seed: int, width: int, height: int,
                  obstacle_density: float = 0.2, resolution_m: float = 1.0) -> GridMap:
    """Procedural tube map: entrance on the top edge, seeded obstacles.

    The same seed always yields the bit-identical map. The entrance
    column is drawn first, then one obstacle draw per cell in row-major
    order (``rng.chance_blocks``), so maps of equal size share a prefix
    of the random stream.
    """
    import numpy as np
    check_tube_parameters(width, height, obstacle_density, resolution_m)
    rng = Rng(seed, stream=TUBE_STREAM)
    entrance_col = rng.below(width)
    obstacles = np.concatenate([*chance_blocks(rng, width * height, obstacle_density)])
    cells = np.where(obstacles, np.int8(OBSTACLE), np.int8(FREE)).reshape(height, width)
    cells[0, entrance_col] = ENTRANCE
    return fresh_map(cells, resolution_m)


def grid_to_text(grid: GridMap) -> str:
    """Render the occupancy grid as '.'/'#'/'E' rows."""
    return "\n".join(
        "".join(_CELL_CHARS[int(v)] for v in row) for row in grid.cells) + "\n"


def grid_from_text(text: str, resolution_m: float = 1.0) -> GridMap:
    """Parse a '.'/'#'/'E' map; rows must be contiguous and of equal
    length, with exactly one E and at most ``MAX_TUBE_CELLS`` cells.
    Blank lines may only come before the first row or after the last."""
    import numpy as np
    lines = text.splitlines()
    filled = [r for r, line in enumerate(lines) if line.strip()]
    if not filled:
        raise MapError("map text is empty")
    rows = lines[filled[0]:filled[-1] + 1]
    width = len(rows[0])
    check_tube_size(width, len(rows))
    cells = np.zeros((len(rows), width), dtype=np.int8)
    for r, line in enumerate(rows):
        if not line.strip():
            raise MapError(f"blank line at row {r}: map rows must be contiguous")
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


def _padded(mask: np.ndarray) -> np.ndarray:
    """A grid as a boolean array inside a one-cell clear border."""
    import numpy as np
    return np.pad(np.asarray(mask, dtype=bool), 1)


def _packed(padded: np.ndarray) -> int:
    """A padded boolean array as an int with bit i set for its flat cell i."""
    import numpy as np
    return int.from_bytes(np.packbits(padded, bitorder="little"), "little")


def _neighbours(cells: int, stride: int) -> int:
    """N, W, E, S neighbours of a cell bit set: shifted by ``stride`` plus each move."""
    cells |= cells << stride - 1
    return (cells | cells << stride + 1) >> stride


def _flat_bfs(mask: bytearray, start: int, stride: int) -> array:
    """Hop counts from ``start`` over the set cells of a flat mask padded
    with a clear border, rows ``stride`` apart; -1 where unreachable.

    It expands level by level with no bounds checks; ``left``, a copy of
    the mask cleared as cells are reached, is the one flag it tests."""
    dist = array("i", [-1]) * len(mask)
    if not mask[start]:
        return dist
    left = bytearray(mask)
    left[start] = dist[start] = 0
    level, d = [start], 0
    while level:
        d += 1
        reached = []
        for v in level:
            for n in (v - stride, v - 1, v + 1, v + stride):
                if left[n]:
                    left[n] = 0
                    dist[n] = d
                    reached.append(n)
        level = reached
    return dist


def bfs_distances(mask: np.ndarray, start: tuple[int, int]) -> np.ndarray:
    """4-connected BFS hop counts over True cells; -1 where unreachable."""
    import numpy as np
    h, w = mask.shape
    if not (0 <= start[0] < h and 0 <= start[1] < w):
        raise IndexError(f"start {start} is outside the {h}x{w} mask")
    stride = w + 2
    flat = _flat_bfs(bytearray(_padded(mask)), (start[0] + 1) * stride + start[1] + 1,
                     stride)
    return np.frombuffer(flat, dtype=np.intc).reshape(h + 2, stride)[
        1:-1, 1:-1].astype(np.int32)


def reachable_cells(grid: GridMap) -> np.ndarray:
    """Mask of traversable cells connected to the entrance."""
    return bfs_distances(grid.traversable(), grid.entrance) >= 0


def coverage_fraction(grid: GridMap) -> float:
    """Explored share of the entrance-connected traversable component."""
    import numpy as np
    reachable = reachable_cells(grid)
    total = int(np.count_nonzero(reachable))
    done = int(np.count_nonzero(reachable & grid.explored))
    return done / total


class RobotState(enum.Enum):
    EXPLORING = "exploring"
    RETURNING = "returning"
    CHARGING = "charging"
    STUCK = "stuck"


# The tick reads the states as globals: each ``RobotState.X`` read is an
# enum descriptor call, about 13 times a global read on CPython 3.11.
_EXPLORING, _RETURNING = RobotState.EXPLORING, RobotState.RETURNING
_CHARGING, _STUCK = RobotState.CHARGING, RobotState.STUCK
_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True)
class Sample:
    """One sealed sample: one aux module slot each, no cross-contamination."""

    mass_kg: float
    origin: tuple[int, int]
    module_slot: int

    def __post_init__(self):
        require_nonnegative(self, "mass_kg")
        if self.module_slot < 1:
            raise ValueError(f"module_slot must be >= 1, got {self.module_slot}")


#: Battery run time of the single battery fit.
SINGLE_BATTERY_S = 5.0 * 3600.0


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
        require_positive(self, "battery_full_s")
        if self.battery_s is None:
            object.__setattr__(self, "battery_s", self.battery_full_s)
        if not 0.0 <= self.battery_s <= self.battery_full_s:
            raise ValueError(
                f"battery_s must be in [0, {self.battery_full_s}], got {self.battery_s}")
        require_positive(self, "speed_mps", "aux_capacity_kg")
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


def make_fleet(grid: GridMap, count: int, **overrides) -> list[ScoutRobot]:
    """``count`` scouts parked at the entrance, ids scout_1..scout_n."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return [ScoutRobot(id=f"scout_{i + 1}", position=grid.entrance, **overrides)
            for i in range(count)]


@dataclass(frozen=True)
class SampleSite:
    """A collectable sample lying at a map cell."""

    cell: tuple[int, int]
    mass_kg: float

    def __post_init__(self):
        require_nonnegative(self, "mass_kg")


@dataclass(frozen=True)
class Station:
    """Entrance-side charge and sample-handling station. ``descents``
    counts winch lowerings credited with regenerated energy."""

    charge_time_s: float = 3600.0
    winch: WinchSpec | None = None
    descents: int = 1

    def __post_init__(self):
        require_nonnegative(self, "charge_time_s", "descents")


@dataclass(frozen=True)
class TubeWorld:
    """One tube scenario: map, station, uncollected sites, deliveries."""

    grid: GridMap
    station: Station = Station()
    sample_sites: tuple[SampleSite, ...] = ()
    delivered: tuple[Sample, ...] = ()
    ticks: int = 0


def _return_threshold_s(distance_cells: int, tick_s: float, factor: float) -> float:
    """Battery level at or below which a robot must head home.

    Looks one tick ahead: after one more exploring move the robot may be
    ``distance_cells + 1`` cells out, and must still hold the scaled
    return reserve, so the trigger keeps batteries strictly positive
    anywhere off the entrance.
    """
    return factor * (distance_cells + 1) * tick_s + tick_s


class _Scout:
    """A robot's changing state in a survey; ``robot`` keeps the rest.

    ``tick_s`` is the time a tick takes it and ``charge_s`` the battery
    one charging tick adds (infinite for an instant charge); ``aux_slots``
    is read from ``robot`` once. ``target`` is the index of the cell it
    chose last, or the target it was handed in with until a tick sets
    one; ``_Kernel.robots`` turns an index back into ``(row, col)``. ``plan``
    records its last choice of target, as (tick, the route still to walk
    to it, the cell it left, the claims and goals it chose under); the
    route is the stack ``_Kernel.nearest`` answered, target first, less
    the cell it stepped onto, and ``_Kernel.reuse`` keeps it.
    """

    __slots__ = ("robot", "v", "aux_slots", "tick_s", "charge_s", "state",
                 "battery_s", "samples", "target", "moves", "handed", "plan")

    def __init__(self, robot: ScoutRobot, v: int, resolution_m: float,
                 station: Station):
        self.robot, self.v, self.aux_slots = robot, v, robot.aux_slots
        self.tick_s = tick_s = resolution_m / robot.speed_mps
        if station.charge_time_s == 0:
            self.charge_s = math.inf
        else:
            self.charge_s = robot.battery_full_s / station.charge_time_s * tick_s
        self.state, self.battery_s = robot.state, robot.battery_s
        self.samples, self.target = robot.samples, robot.target
        self.moves = self.handed = 0
        self.plan = None


class _Kernel:
    """Flat-index state of one survey: the tick of ``step`` and
    ``run_exploration`` alike.

    Cells are indices into row-major bytearrays padded with a one-cell
    border that is never open, so cell ``(r, c)`` is ``(r + 1) * W + c + 1``
    for the row stride ``W = width + 2``, its N, W, E, S neighbours sit
    at ``(-W, -1, +1, +W)`` with no bounds checks, and ordering indices
    orders ``(row, col)``. A cell off the map is index 0, a border cell.

    Construction pads the open map and the explored mask once each, and
    takes every other map from those two arrays. ``open``, the live
    sensed mask ``explored`` and ``unseen`` (the open cells not yet
    explored, the one flag ``sense`` tests) are flag bytearrays; the cell
    sets are ints with bit i for cell i: ``open_bits`` is fixed, and
    ``known_bits`` (the explored open cells), ``frontier_bits`` with its
    size ``frontier_count`` and ``dist_home`` (hops from the entrance
    over the known cells, -1 where unreachable) are the snapshot every
    robot plans on within a tick. Construction takes ``dist_home`` from a
    BFS over the known cells and seeds ``pending_bits`` with them; ``learn``
    adds the cells sensed since its last call, the list ``pending`` and
    the bit set ``pending_bits``, and keeps the list as ``fresh``.
    ``ticks`` counts ticks, ``searched`` and ``reused`` the target choices
    made by a search and kept from the tick before, and ``levels`` the
    levels the searches expanded.

    It holds all a survey changes: a ``_Scout`` per robot (``scouts``, in
    input order), the uncollected ``sites`` with the index of each one's
    cell in ``site_cells``, and the ``delivered`` samples. ``goals`` maps
    a module capacity to the cells of the sites a robot of that capacity
    can lift; it is built as robots ask and emptied when a site is taken.
    It checks the robots' ids and cells as ``step`` describes: each robot
    senses its cell at construction, and afterwards only the cells it
    moves to. It holds only what a tick reads: the entrance component,
    coverage and undeliverable sites are ``run_exploration``'s.
    """

    def __init__(self, grid: GridMap, robots: list[ScoutRobot], station: Station,
                 sites: tuple[SampleSite, ...], delivered: tuple[Sample, ...] = ()):
        self.height, self.width = grid.cells.shape
        self.stride = self.width + 2
        self.sites = list(sites)
        self.site_cells = [self.index(site.cell) for site in self.sites]
        self.delivered = list(delivered)
        self.entrance = self.index(grid.entrance)
        open_ = _padded(grid.cells != OBSTACLE)
        explored = _padded(grid.explored)  # GridMap keeps the entrance explored
        known = open_ & explored
        self.open, self.explored = bytearray(open_), bytearray(explored)
        self.unseen = bytearray(open_ & ~explored)
        self.open_bits, self.pending_bits = _packed(open_), _packed(known)
        self.pending = []
        self.known_bits = self.frontier_bits = self.frontier_count = 0
        self.dist_home = _flat_bfs(bytearray(known), self.entrance, self.stride)
        self.goals: dict[float, set[int]] = {}
        self.ticks = self.searched = self.reused = self.levels = 0
        ids = [r.id for r in robots]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate robot ids in {ids}")
        self.scouts = []
        for robot in robots:
            v = self.index(robot.position)
            if not v:
                raise ValueError(f"robot {robot.id} is off the map at {robot.position}")
            if not self.open[v]:
                raise ValueError(f"robot {robot.id} is on an obstacle at {robot.position}")
            self.sense(v)
            self.scouts.append(_Scout(robot, v, grid.resolution_m, station))
        self.by_id = sorted(self.scouts, key=lambda sc: sc.robot.id)
        self.learn()

    def index(self, cell: tuple[int, int]) -> int:
        r, c = cell
        if 0 <= r < self.height and 0 <= c < self.width:
            return (r + 1) * self.stride + c + 1
        return 0

    def cell(self, v: int) -> tuple[int, int]:
        r, c = divmod(v, self.stride)
        return r - 1, c - 1

    def explored_mask(self) -> np.ndarray:
        import numpy as np
        padded = np.frombuffer(self.explored, dtype=bool).reshape(-1, self.stride)
        return padded[1:-1, 1:-1].copy()

    def robots(self) -> list[ScoutRobot]:
        """The fleet as it stands, in input order. A target chosen in a
        tick is a cell index; one handed in with a robot is kept as given."""
        return [replace(sc.robot, position=self.cell(sc.v), state=sc.state,
                        battery_s=sc.battery_s, samples=sc.samples,
                        target=self.cell(sc.target) if isinstance(sc.target, int)
                        else sc.target)
                for sc in self.scouts]

    def sense(self, v: int) -> None:
        """Mark cell ``v`` and its open neighbours explored.

        One flag per cell, ``unseen``, tells an open cell not yet explored;
        it is cleared as the cell is marked, so each cell is sensed once."""
        s, unseen = self.stride, self.unseen
        for x in (v, v - s, v - 1, v + 1, v + s):
            if unseen[x]:
                unseen[x] = 0
                self.explored[x] = 1
                self.pending.append(x)
                self.pending_bits |= 1 << x

    def learn(self) -> None:
        """Add the cells sensed since the last call to the snapshot.

        The added cells join ``known_bits`` as one OR of ``pending_bits``.
        The frontier is the known cells next to an open cell not yet
        known, one bit-set expression over the whole map. The known map
        only grows, so home distances only shrink: the cells of ``pending``
        start one hop beyond their nearest neighbour known before the call,
        and a Dijkstra pass from them lowers the rest (incremental shortest
        paths, Ramalingam and Reps 1996). It takes an open explored cell
        as known, as every one has been added by then, and skips the pass
        when none touches a cell with a home distance, since it would lower
        nothing. At construction ``pending`` holds only the cells the robots
        sensed, as the BFS gave the others their distances, so the call
        tests ``pending_bits`` for cells to add.
        """
        fresh = self.fresh = self.pending
        self.pending = []
        if not self.pending_bits:
            return
        s, open_, explored, dist = self.stride, self.open, self.explored, self.dist_home
        known = self.known_bits = self.known_bits | self.pending_bits
        self.pending_bits = 0
        self.frontier_bits = known & _neighbours(self.open_bits & ~known, s)
        self.frontier_count = self.frontier_bits.bit_count()
        heap = []
        for v in fresh:
            if dist[v] < 0:
                near = -1  # the least known distance around v
                for d in (dist[v - s], dist[v - 1], dist[v + 1], dist[v + s]):
                    if d >= 0 and (near < 0 or d < near):
                        near = d
                if near >= 0:
                    heap.append((near + 1, v))
        if not heap:
            return
        for d, v in heap:
            dist[v] = d
        heapq.heapify(heap)
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            d += 1
            for n in (v - s, v - 1, v + 1, v + s):
                if open_[n] and explored[n] and not 0 <= dist[n] <= d:
                    dist[n] = d
                    heapq.heappush(heap, (d, n))

    def nearest(self, start: int, claimed: set[int],
                goals: set[int]) -> list[int] | None:
        """The way to the nearest unclaimed frontier or known goal cell
        over the known cells (the lowest index among equals), as a stack
        of the cells to walk: the target first and the next step last, so
        its length is the target's distance.

        When every frontier cell and goal is claimed it answers None at
        once: a search can only find an unclaimed one, and the frontier
        changes only in ``learn``, so ``frontier_count`` holds all tick.
        Otherwise, past the first level, read from one shift of
        ``frontier_bits``, the search goes level by level over the whole
        padded map on bit sets: each level is
        ``((cur >> W) | (cur >> 1) | (cur << 1) | (cur << W)) & unseen``,
        where ``unseen`` starts as ``known_bits`` less the start, and it
        stops at the first level that holds an unclaimed target (a
        frontier cell or goal other than the start), taking the lowest set
        bit, the lowest index. An int op costs time in proportion to the
        highest bit it holds, so a level costs up to the map's cells.

        The search keeps the cells it reached in three sets, by depth mod
        3, so it holds three map-sized ints however deep it goes, and
        ``_route`` lays the route from them: at each hop the first N, W, E, S
        neighbour that lies on a shortest way to the target, the least
        move sequence among the shortest ways, which is the route a search
        back from the target lays. ``levels`` counts the levels searches
        expand.
        """
        frontier, s = self.frontier_bits, self.stride
        near = frontier >> start - s & ~(-1 << 2 * s + 1)  # bit k is cell start - s + k
        # N, W, E, S, which is also index order: the first hit is the lowest
        for n in (start - s, start - 1, start + 1, start + s):
            if ((near >> n - start + s & 1 or n in goals and self.known_bits >> n & 1)
                    and n not in claimed):
                return [n]
        if len(claimed) >= self.frontier_count:
            targets = self.frontier_count + sum(not frontier >> v & 1 for v in goals)
            if sum(1 for v in claimed if frontier >> v & 1 or v in goals) == targets:
                return None
        cur = here = 1 << start  # here: reached at depths of depth mod 3
        back = prev = 0  # reached at depths of depth - 2 and depth - 1 mod 3
        unseen = self.known_bits & ~cur
        targets = frontier
        for v in goals:
            targets |= 1 << v
        targets &= ~cur
        depth = 0
        while cur:
            hits = cur & targets
            while hits:
                bit = hits & -hits
                if bit.bit_length() - 1 not in claimed:
                    self.levels += depth
                    return self._route(start, bit, depth, (here, prev, back))
                hits ^= bit
            depth += 1
            cur |= cur << s - 1  # the neighbours, as _neighbours finds them
            cur = (cur | cur << s + 1) >> s & unseen
            unseen ^= cur
            back, prev, here = prev, here, back | cur
        self.levels += depth
        return None

    def _route(self, start: int, bit: int, depth: int,
               seen: tuple[int, int, int]) -> list[int]:
        """The stack ``nearest`` answers for the target ``bit`` found at
        ``depth`` from ``start``, where ``seen[j % 3]`` holds the cells
        reached at depths of ``depth - j`` mod 3.

        Stepping back from the target, the neighbours of the cells on a
        shortest way ``j - 1`` hops from it that were reached at ``depth -
        j`` are those ``j`` hops from it (a neighbour is at most one level
        away, so the mod 3 sets keep the levels apart). The walk from
        ``start`` then takes at each hop the first N, W, E, S neighbour on
        those ways."""
        s = self.stride
        ways, cells = [0, 0, 0], bit  # ways[j % 3]: on a way, j hops from the target mod 3
        for j in range(1, depth):
            cells = _neighbours(cells, s) & seen[j % 3]
            ways[j % 3] |= cells
        route, v, around = [], start, ~(-1 << 2 * s + 1)
        for j in range(depth - 1, 0, -1):
            near = ways[j % 3] >> v - s & around  # bit k is cell v - s + k
            if near & 1:
                v -= s
            elif near >> s - 1 & 1:
                v -= 1
            elif near >> s + 1 & 1:
                v += 1
            else:
                v += s
            route.append(v)
        route.append(bit.bit_length() - 1)
        route.reverse()
        return route

    def reuse(self, scout: _Scout, claimed: set[int],
              goals: set[int]) -> list[int] | None:
        """What ``nearest`` would answer for ``scout``, without a search,
        when its last answer still holds: the rest of its route; else None.

        A robot that chose target T at distance d >= 2 last tick and
        stepped toward it is d - 1 from T now. Distances over the known
        cells only shrink, and only through cells learned since, and a
        cell joins the frontier only when it is learned, so the answer
        stays T when: its goals are unchanged; T is still an unclaimed
        frontier or goal; every fresh cell is more than d cells away in
        Manhattan distance, which bounds the distance over the known
        cells from below; every cell claimed at the choice and unclaimed
        now is more than d - 1 away; and the cell it left, which a search
        skips as its start, is no unclaimed frontier or goal. No fresh
        cell then lies on a way of d - 1 hops from the robot, so the route
        a search would lay now is the rest of the kept one. ``scout``'s
        plan is live: made last tick, with a route left to walk.
        """
        _, route, left, was_claimed, was_goals = scout.plan
        target, d = route[0], len(route) + 1
        frontier = self.frontier_bits
        if (goals != was_goals or target in claimed
                or not (frontier >> target & 1 or target in goals)
                or ((frontier >> left & 1 or left in goals) and left not in claimed)):
            return None
        s = self.stride
        r, c = divmod(scout.v, s)
        for v in self.fresh:
            vr, vc = divmod(v, s)
            if abs(vr - r) + abs(vc - c) <= d:
                return None
        for v in was_claimed - claimed:
            vr, vc = divmod(v, s)
            if abs(vr - r) + abs(vc - c) < d:
                return None
        return route

    def tick(self) -> None:
        """One tick, as ``step`` describes it."""
        claimed: set[int] = set()
        for scout in self.by_id:
            self._advance(scout, claimed)
        self.learn()
        self.ticks += 1

    def _advance(self, scout: _Scout, claimed: set[int]) -> None:
        robot, state, tick_s = scout.robot, scout.state, scout.tick_s
        if state is _STUCK:
            return
        if state is _CHARGING:
            battery = min(robot.battery_full_s, scout.battery_s + scout.charge_s)
            scout.battery_s = battery
            scout.state = _EXPLORING if battery >= robot.battery_full_s else state
            return

        v = scout.v
        dist_home = self.dist_home
        if dist_home[v] < 0:  # cut off from the entrance
            scout.state, scout.target = _STUCK, None
            return
        if state is _EXPLORING and scout.battery_s <= _return_threshold_s(
                dist_home[v], tick_s, robot.reserve_factor):
            state = _RETURNING

        target = move_to = None
        if state is _EXPLORING:
            # the uncollected sites it can take now compete with frontiers
            goals = _EMPTY
            if self.sites and len(scout.samples) < scout.aux_slots:
                capacity = robot.aux_capacity_kg
                goals = self.goals.get(capacity)
                if goals is None:  # kept per capacity until a site is taken
                    goals = self.goals[capacity] = {
                        c for site, c in zip(self.sites, self.site_cells)
                        if site.mass_kg <= capacity}
            plan = scout.plan
            route = None
            if plan is not None and plan[0] == self.ticks - 1 and plan[1]:
                route = self.reuse(scout, claimed, goals)
            if route is None:
                self.searched += 1
                route = self.nearest(v, claimed, goals)
            else:
                self.reused += 1
            if route is not None:
                goal = route[0]
                # a robot that finds a target always steps onto the next cell
                move_to = route.pop()
                scout.plan = (self.ticks, route, v,
                              frozenset(claimed) if claimed else _EMPTY, goals)
                claimed.add(goal)
                target = goal
            elif v not in goals:
                # nothing left to claim: head home to deliver and park. A
                # site on its own cell, which ``nearest`` never tests, keeps
                # it exploring, so the pickup below takes it this tick.
                state = _RETURNING
        if state is _RETURNING and move_to is None and dist_home[v] > 0:
            # the first N, W, E, S neighbour one hop closer to home
            closer, s = dist_home[v] - 1, self.stride
            if dist_home[v - s] == closer:
                move_to = v - s
            elif dist_home[v - 1] == closer:
                move_to = v - 1
            elif dist_home[v + 1] == closer:
                move_to = v + 1
            else:
                move_to = v + s

        battery = scout.battery_s - tick_s
        scout.battery_s = battery if battery > 0.0 else 0.0  # max(0.0, battery)
        scout.state, scout.target = state, target
        if move_to is not None:
            self.sense(move_to)
            scout.v = v = move_to
            scout.moves += 1
        if state is _EXPLORING:
            if v in goals:  # take the first listed site here it can carry
                i = next(i for i, (site, c) in enumerate(zip(self.sites, self.site_cells))
                         if c == v and site.mass_kg <= capacity)
                site = self.sites.pop(i)
                del self.site_cells[i]
                self.goals.clear()
                # sealed in its lowest free slot: goals hold only sites it
                # can lift, and only while it has a free slot
                used = {s.module_slot for s in scout.samples}
                slot = next(k for k in range(1, scout.aux_slots + 1) if k not in used)
                scout.samples += (Sample(mass_kg=site.mass_kg, origin=site.cell,
                                         module_slot=slot),)
        elif v == self.entrance:
            scout.handed += len(scout.samples)
            self.delivered.extend(scout.samples)
            scout.samples, scout.state, scout.target = (), _CHARGING, None


def step(world: TubeWorld, robots: list[ScoutRobot]) -> tuple[TubeWorld, list[ScoutRobot]]:
    """Advance the simulation one tick; pure, returns new values.

    Per tick: every robot senses its surroundings; exploring robots are
    processed in id order, each claiming the nearest unclaimed frontier
    or known sample site it can carry (ties toward the lowest (row, col)),
    moving one cell along a shortest known path and taking the first
    such site listed on the cell it reaches; robots with nothing to claim
    take such a site on their own cell where they stand, or else head
    home; returning robots move one cell toward the entrance and
    hand samples over on arrival; charging robots refill. Battery drains
    one tick of time per tick whether moving or waiting. Robots plan on
    the map as sensed at the start of the tick.

    Each call builds the tick kernel afresh from ``world``, with one BFS,
    over the known cells for the home distances; the entrance component
    and coverage, which no tick reads, are ``run_exploration``'s. On a
    48x48 tube 246 ticks into a 3-robot survey (39% explored) that is
    about 0.45-0.55 ms a call, where a tick of ``run_exploration`` takes
    tens of microseconds. It stays so:
    ``world`` is the whole state, a per-grid cache of the map-only parts
    would be a second one to keep in step with it, and
    ``run_exploration`` keeps one kernel for a whole survey. For the same
    reason no target is kept across calls (``_Kernel.reuse``).

    Raises:
        ValueError: for duplicate robot ids, or a robot off the map or on
            an obstacle cell.
    """
    kernel = _Kernel(world.grid, robots, world.station, world.sample_sites,
                     world.delivered)
    kernel.tick()
    grid = GridMap(cells=world.grid.cells, explored=kernel.explored_mask(),
                   resolution_m=world.grid.resolution_m)
    next_world = TubeWorld(grid=grid, station=world.station,
                           sample_sites=tuple(kernel.sites),
                           delivered=tuple(kernel.delivered), ticks=world.ticks + 1)
    return next_world, kernel.robots()


@dataclass(frozen=True)
class RobotStats:
    robot_id: str
    distance_cells: int
    samples_delivered: int
    final_state: str
    battery_s: float


@dataclass(frozen=True)
class ExplorationReport:
    """``undeliverable_sites`` holds (index, reason) for each sample site
    on an obstacle, off the entrance-connected component or heavier than
    every robot's module limit."""

    steps: int
    coverage_fraction: float
    samples_delivered: int
    energy_regen_wh: float
    per_robot_stats: tuple[RobotStats, ...]
    undeliverable_sites: tuple[tuple[int, str], ...] = ()


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
    import numpy as np
    kernel = _Kernel(grid, robots, station, sample_sites)
    hops = _flat_bfs(kernel.open, kernel.entrance, kernel.stride)
    reach = _packed(np.frombuffer(hops, dtype=np.intc) >= 0)
    reachable, covered = reach.bit_count(), (kernel.known_bits & reach).bit_count()
    steps = 0

    def work_remaining() -> bool:
        """At full coverage: samples still carried, or a site left in
        ``reach`` that a robot can lift. Every cell of ``reach`` is known
        by then, and a site off it can never be brought home."""
        active = [sc for sc in kernel.scouts if sc.state is not _STUCK]
        if not active:
            return False
        if any(sc.samples for sc in active):
            return True
        max_capacity = max(sc.robot.aux_capacity_kg for sc in active)
        return any(
            reach >> v & 1 and site.mass_kg <= max_capacity
            for site, v in zip(kernel.sites, kernel.site_cells))

    def undeliverable() -> tuple[tuple[int, str], ...]:
        """(index, reason) for each site that no robot can bring home."""
        capacity = max((sc.robot.aux_capacity_kg for sc in kernel.scouts), default=0.0)
        found = []
        for i, site in enumerate(sample_sites):
            v = kernel.index(site.cell)
            cell = list(site.cell)
            if not kernel.open[v]:
                reason = f"cell {cell} is {'an obstacle' if v else 'off the map'}"
            elif not reach >> v & 1:
                reason = f"cell {cell} is not connected to the entrance"
            elif site.mass_kg > capacity:
                reason = (f"its {site.mass_kg} kg exceed every robot's "
                          f"{capacity} kg module limit")
            else:
                continue
            found.append((i, reason))
        return tuple(found)

    while (covered < reachable or work_remaining()) and steps < max_steps:
        kernel.tick()
        steps += 1
        if kernel.fresh:  # the tick learned cells
            covered = (kernel.known_bits & reach).bit_count()

    regen = 0.0
    if station.winch is not None:
        regen = station.descents * winch_regen_energy(station.winch, env)

    stats = tuple(
        RobotStats(
            robot_id=sc.robot.id,
            distance_cells=sc.moves,
            samples_delivered=sc.handed,
            final_state=sc.state.value,
            battery_s=sc.battery_s,
        )
        for sc in kernel.by_id
    )
    return ExplorationReport(
        steps=steps,
        coverage_fraction=covered / reachable,
        samples_delivered=len(kernel.delivered),
        energy_regen_wh=regen,
        per_robot_stats=stats,
        undeliverable_sites=undeliverable(),
    )
