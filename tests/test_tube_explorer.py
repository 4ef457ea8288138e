"""Map generation, frontier coverage, battery safety and sample handling.

The reachability oracle used throughout is ``flood_fill`` from
``test_explorer_kernel``, an independent deque-based flood fill,
deliberately separate from the library implementation.
"""

import random

import numpy as np
import pytest

from tubescout.energy import WinchSpec, winch_regen_energy
from tubescout.env import MarsEnvironment
from tubescout.rng import _HEAD, _WINDOW, TUBE_STREAM, Rng
from tubescout.tube_explorer import (
    ENTRANCE,
    FREE,
    OBSTACLE,
    ExplorationReport,
    GridMap,
    MapError,
    RobotState,
    RobotStats,
    Sample,
    SampleSite,
    ScoutRobot,
    Station,
    TubeWorld,
    bfs_distances,
    check_resolution,
    check_survey_work,
    coverage_fraction,
    fresh_map,
    generate_tube,
    grid_from_text,
    grid_to_text,
    make_fleet,
    reachable_cells,
    read_map_file,
    run_exploration,
    step,
    write_map_file,
)

from peak_memory import peak_bytes
from test_explorer_kernel import CapacityExhausted, OverMass, collect_sample, flood_fill


def explored_set(grid: GridMap) -> set[tuple[int, int]]:
    return {(int(r), int(c)) for r, c in np.argwhere(grid.explored)}


def open_map(size: int = 5) -> GridMap:
    cells = np.zeros((size, size), dtype=np.int8)
    cells[0, 0] = ENTRANCE
    return fresh_map(cells)


def per_cell_tube(seed: int, width: int, height: int,
                  obstacle_density: float) -> np.ndarray:
    """The cells of ``generate_tube`` drawn one ``Rng.chance`` per cell:
    the entrance column, then the cells in row-major order."""
    rng = Rng(seed, stream=TUBE_STREAM)
    entrance_col = rng.below(width)
    cells = np.zeros((height, width), dtype=np.int8)
    for r in range(height):
        for c in range(width):
            if rng.chance(obstacle_density):
                cells[r, c] = OBSTACLE
    cells[0, entrance_col] = ENTRANCE
    return cells


def assert_per_cell_map(seed, width, height, obstacle_density):
    cells = generate_tube(seed, width, height, obstacle_density).cells
    expect = per_cell_tube(seed, width, height, obstacle_density)
    assert cells.dtype == expect.dtype
    assert np.array_equal(cells, expect), (seed, width, height, obstacle_density)


#: Large and thin maps, and draw counts at and around ``_HEAD`` and past
#: the kernel's largest window of ``2 * _WINDOW - 255`` words.
EDGE_SIZES = [(200, 200), (1000, 3), (3, 1000), (45, 91),
              (_HEAD - 1, 1), (1, _HEAD), (_HEAD + 1, 1),
              (2 * _WINDOW - 255, 1), (1, 2 * _WINDOW - 254), (62, 62)]


class TestGenerateTube:
    @pytest.mark.parametrize("density", [0.0, 0.2, 0.999])
    @pytest.mark.parametrize("width, height", EDGE_SIZES)
    def test_edge_sizes_match_the_per_cell_draws(self, width, height, density):
        assert_per_cell_map(width * height, width, height, density)

    def test_random_maps_match_the_per_cell_draws(self):
        """300 seeded maps of 1-60 cells a side at densities 0-0.999."""
        cases = random.Random(2026)
        for _ in range(300):
            density = cases.choice([0.0, 0.999, cases.uniform(0.0, 0.999)])
            assert_per_cell_map(cases.randrange(1 << 64), cases.randint(1, 60),
                                cases.randint(1, 60), density)

    def test_a_28_by_28_tube_peaks_under_30_kb(self):
        """The draw holds its uint64 window, the pair sums and one scratch
        buffer, 6 KB each here: about 22 KB with the cells, against about
        36 KB when each jump kept a list of views per tap and the scramble
        made float64 temporaries."""
        _, peak = peak_bytes(lambda: generate_tube(42, 28, 28, 0.2))
        assert peak < 30 * 1024

    def test_same_seed_bit_identical(self):
        a = generate_tube(42, 20, 20, 0.2)
        b = generate_tube(42, 20, 20, 0.2)
        assert np.array_equal(a.cells, b.cells)
        assert grid_to_text(a) == grid_to_text(b)

    def test_different_seeds_differ(self):
        a = generate_tube(42, 20, 20, 0.2)
        b = generate_tube(43, 20, 20, 0.2)
        assert not np.array_equal(a.cells, b.cells)

    def test_zero_density_all_free(self):
        grid = generate_tube(7, 10, 10, 0.0)
        assert np.count_nonzero(grid.cells == OBSTACLE) == 0
        assert np.count_nonzero(grid.cells == ENTRANCE) == 1

    def test_entrance_on_top_edge(self):
        for seed in range(20):
            grid = generate_tube(seed, 12, 9, 0.3)
            assert grid.entrance[0] == 0

    def test_density_roughly_honored(self):
        grid = generate_tube(3, 50, 50, 0.3)
        frac = np.count_nonzero(grid.cells == OBSTACLE) / grid.cells.size
        assert 0.2 < frac < 0.4

    def test_entrance_component_nonempty(self):
        for seed in range(10):
            grid = generate_tube(seed, 8, 8, 0.6)
            assert grid.entrance in flood_fill(grid.cells)

    @pytest.mark.parametrize("kwargs", [
        dict(width=0, height=5),
        dict(width=5, height=0),
        dict(width=5, height=5, obstacle_density=1.0),
        dict(width=5, height=5, obstacle_density=-0.1),
        dict(width=1001, height=1000),
        dict(width=10**400, height=1),
    ])
    def test_degenerate_parameters(self, kwargs):
        args = dict(width=5, height=5, obstacle_density=0.2)
        args.update(kwargs)
        with pytest.raises(MapError):
            generate_tube(1, **args)

    @pytest.mark.parametrize("start", [(5, 0), (0, 5), (0, 6), (-1, 0)])
    def test_bfs_start_off_the_mask_rejected(self, start):
        with pytest.raises(IndexError, match="outside the 5x5 mask"):
            bfs_distances(open_map().traversable(), start)

    def test_survey_work_budget(self):
        # the largest shipped or benchmarked survey: 28x28 cells, 4 robots
        check_survey_work(4, 10_000, 28 * 28)
        with pytest.raises(ValueError, match="exceeds 250000000"):
            check_survey_work(100, 1_000_000, 3)

    def test_golden_map_matches_committed_fixture(self):
        golden = read_map_file("scenarios/tube_20x20_seed42.map")
        assert grid_to_text(generate_tube(42, 20, 20, 0.2)) == grid_to_text(golden)
        # reachable count pinned via the independent oracle at freeze time
        assert len(flood_fill(golden.cells)) == 319


class TestMapText:
    def test_round_trip(self):
        grid = generate_tube(5, 15, 10, 0.25)
        again = grid_from_text(grid_to_text(grid))
        assert np.array_equal(grid.cells, again.cells)

    def test_parse_simple(self):
        grid = grid_from_text("E..\n.#.\n...\n")
        assert grid.cells[0, 0] == ENTRANCE
        assert grid.cells[1, 1] == OBSTACLE
        assert grid.cells[2, 2] == FREE
        assert grid.explored[0, 0]

    def test_file_round_trip(self, tmp_path):
        grid = generate_tube(9, 6, 6, 0.2)
        path = tmp_path / "tube.map"
        write_map_file(path, grid)
        again = read_map_file(path)
        assert np.array_equal(grid.cells, again.cells)

    @pytest.mark.parametrize("text", [
        "",                # empty
        "...\n...\n",      # no entrance
        "E.E\n...\n",      # two entrances
        "E..\n..\n",       # ragged
        "E.x\n...\n",      # unknown char
        "E..\n\n...\n",    # blank line between rows
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(MapError):
            grid_from_text(text)

    @pytest.mark.parametrize("code", [7, -1, 300, 0.5])
    def test_unknown_cell_code_rejected(self, code):
        with pytest.raises(MapError,
                           match=rf"^unknown cell code {code} at row 1, col 0$"):
            fresh_map(np.array([[ENTRANCE, FREE], [code, OBSTACLE]]))

    def test_blank_lines_around_the_rows_accepted(self):
        grid = grid_from_text("\n \nE..\n.#.\n\n\t\n")
        assert grid.cells.shape == (2, 3)
        assert grid.entrance == (0, 0)

    def test_fleet_reads_the_entrance_found_at_construction(self, monkeypatch):
        grid = generate_tube(3, 20, 20, 0.2)
        calls = []
        argwhere = np.argwhere
        monkeypatch.setattr(np, "argwhere",
                            lambda *a: calls.append(a) or argwhere(*a))
        fleet = make_fleet(grid, 100)
        assert calls == []
        assert {robot.position for robot in fleet} == {grid.entrance}


class TestRobotAndSamples:
    def test_defaults(self):
        robot = ScoutRobot(id="s1")
        assert robot.module_count == 3
        assert robot.aux_slots == 2
        assert robot.battery_s == 5.0 * 3600.0
        assert robot.state is RobotState.EXPLORING

    def test_collect_fills_lowest_slot_then_rejects(self):
        robot = ScoutRobot(id="s1", module_count=3)
        robot = collect_sample(robot, 2.0)
        robot = collect_sample(robot, 3.0)
        assert [s.module_slot for s in robot.samples] == [1, 2]
        with pytest.raises(CapacityExhausted):
            collect_sample(robot, 1.0)

    def test_mass_boundary(self):
        robot = ScoutRobot(id="s1")
        robot = collect_sample(robot, 6.0)  # inclusive bound
        assert robot.samples[0].mass_kg == 6.0
        with pytest.raises(OverMass):
            collect_sample(robot, 6.1)

    def test_slot_reuse_after_delivery_starts_at_one(self):
        robot = ScoutRobot(id="s1", module_count=4)
        robot = collect_sample(robot, 1.0)
        robot = collect_sample(robot, 2.0)
        emptied = ScoutRobot(id="s1", module_count=4)
        refilled = collect_sample(emptied, 5.0)
        assert refilled.samples[0].module_slot == 1

    def test_payload_mass(self):
        robot = ScoutRobot(id="s1", module_count=5)
        for mass in (1.0, 2.0, 3.0):
            robot = collect_sample(robot, mass)
        assert [s.mass_kg for s in robot.samples] == [1.0, 2.0, 3.0]

    # The robot's first move is onto the site, so it passes over it either way.
    def test_survey_lifts_a_site_of_exactly_the_module_limit(self):
        grid = grid_from_text("E...\n")
        report = run_exploration(grid, make_fleet(grid, 1),
                                 sample_sites=(SampleSite((0, 1), 6.0),))
        assert report.samples_delivered == 1
        assert report.undeliverable_sites == ()

    def test_survey_reports_a_site_over_the_module_limit(self):
        grid = grid_from_text("E...\n")
        report = run_exploration(grid, make_fleet(grid, 1),
                                 sample_sites=(SampleSite((0, 1), 6.1),))
        assert report.samples_delivered == 0
        assert report.undeliverable_sites == (
            (0, "its 6.1 kg exceed every robot's 6.0 kg module limit"),)

    def test_full_robot_takes_no_site_until_it_has_delivered(self):
        """It explores over the site with its one slot full, and comes
        back for it after handing its sample over."""
        held = Sample(mass_kg=1.0, origin=(9, 9), module_slot=1)
        world = TubeWorld(grid=grid_from_text("E...\n"),
                          sample_sites=(SampleSite((0, 2), 1.0),))
        robots = [ScoutRobot(id="s1", module_count=2, position=(0, 0),
                             samples=(held,))]
        stood_full = False
        for _ in range(40):
            world, robots = step(world, robots)
            if held in robots[0].samples and robots[0].position == (0, 2):
                stood_full = True
                assert world.sample_sites
            if not world.sample_sites:
                assert held in world.delivered
        assert stood_full
        assert [s.origin for s in world.delivered] == [(9, 9), (0, 2)]

    def test_first_sample_after_a_delivery_gets_slot_one(self):
        held = Sample(mass_kg=1.0, origin=(0, 1), module_slot=1)
        world = TubeWorld(grid=grid_from_text("E..\n"),
                          sample_sites=(SampleSite((0, 1), 1.0),))
        robots = [ScoutRobot(id="s1", position=(0, 0), samples=(held,),
                             state=RobotState.RETURNING)]
        world, robots = step(world, robots)
        assert world.delivered == (held,) and robots[0].samples == ()
        for _ in range(40):
            world, robots = step(world, robots)
        assert world.sample_sites == ()
        assert [s.module_slot for s in world.delivered] == [1, 1]

    @pytest.mark.parametrize("kwargs", [
        dict(module_count=1),
        dict(module_count=6),
        dict(id=""),
        dict(speed_mps=0.0),
        dict(battery_full_s=-1.0),
        dict(reserve_factor=0.9),
    ])
    def test_invalid_robot(self, kwargs):
        args = dict(id="s1")
        args.update(kwargs)
        with pytest.raises(ValueError):
            ScoutRobot(**args)

    @pytest.mark.parametrize("build, error, message", [
        (lambda: GridMap(cells=np.zeros(3, dtype=np.int8), explored=np.zeros(3, dtype=bool)),
         MapError, "cells must be a 2D grid, got shape (3,)"),
        (lambda: GridMap(cells=open_map().cells, explored=np.zeros((2, 1), dtype=bool)),
         MapError, "explored mask shape must match cells"),
        (lambda: check_resolution(0.0), MapError, "resolution_m must be positive, got 0.0"),
        (lambda: Sample(1.0, (0, 0), module_slot=0), ValueError,
         "module_slot must be >= 1, got 0"),
        (lambda: ScoutRobot(id="s1", module_count=1), ValueError,
         "module_count must be in 2..5, got 1"),
        (lambda: ScoutRobot(id="s1", module_count=6), ValueError,
         "module_count must be in 2..5, got 6"),
        (lambda: ScoutRobot(id="s1", module_count=2, samples=(Sample(1.0, (0, 0), 2),)),
         ValueError, "module_slot 2 exceeds aux slot count 1"),
        (lambda: ScoutRobot(id="s1", samples=(Sample(7.0, (0, 0), 1),)), ValueError,
         "sample mass 7.0 exceeds 6.0 kg slot limit"),
        (lambda: make_fleet(open_map(), 0), ValueError, "count must be positive, got 0"),
    ])
    def test_model_refusals(self, build, error, message):
        with pytest.raises(error) as exc_info:
            build()
        assert str(exc_info.value) == message

    def test_too_many_samples_rejected(self):
        samples = (Sample(1.0, (0, 0), 1), Sample(1.0, (0, 0), 2))
        with pytest.raises(ValueError):
            ScoutRobot(id="s1", module_count=2, samples=samples)

    def test_duplicate_slot_rejected(self):
        samples = (Sample(1.0, (0, 0), 1), Sample(2.0, (0, 0), 1))
        with pytest.raises(ValueError):
            ScoutRobot(id="s1", module_count=4, samples=samples)


class TestStep:
    def test_robot_on_obstacle_rejected(self):
        grid = grid_from_text("E..\n.#.\n...\n")
        world = TubeWorld(grid=grid)
        robot = ScoutRobot(id="s1", position=(1, 1))
        with pytest.raises(ValueError):
            step(world, [robot])

    def test_duplicate_ids_rejected(self):
        world = TubeWorld(grid=open_map())
        robots = [ScoutRobot(id="s1"), ScoutRobot(id="s1")]
        with pytest.raises(ValueError):
            step(world, robots)

    @pytest.mark.parametrize("position", [(5, 0), (0, -1)])
    def test_robot_off_the_map_rejected(self, position):
        grid = open_map()
        robot = ScoutRobot(id="s1", position=position)
        with pytest.raises(ValueError, match="off the map"):
            step(TubeWorld(grid=grid), [robot])
        with pytest.raises(ValueError, match="off the map"):
            run_exploration(grid, [robot])

    def test_stuck_robot_senses_its_cell(self):
        world = TubeWorld(grid=open_map())
        robot = ScoutRobot(id="s1", position=(3, 3), state=RobotState.STUCK)
        world2, (robot2,) = step(world, [robot])
        assert robot2 == robot
        assert explored_set(world2.grid) == {
            (0, 0), (3, 3), (2, 3), (3, 2), (3, 4), (4, 3)}

    def test_single_tick_moves_one_cell(self):
        world = TubeWorld(grid=open_map())
        robot = ScoutRobot(id="s1", position=(0, 0))
        world2, robots2 = step(world, [robot])
        moved = robots2[0]
        assert moved.position != (0, 0)
        dr = abs(moved.position[0] - 0) + abs(moved.position[1] - 0)
        assert dr == 1
        assert moved.battery_s == pytest.approx(robot.battery_s - 1.0 / 1.7)

    def test_step_is_pure(self):
        world = TubeWorld(grid=open_map())
        robot = ScoutRobot(id="s1", position=(0, 0))
        before = world.grid.explored.copy()
        step(world, [robot])
        assert np.array_equal(world.grid.explored, before)
        assert world.ticks == 0

    def test_no_duplicate_claims_any_tick(self):
        world = TubeWorld(grid=open_map(5))
        robots = [ScoutRobot(id="s1"), ScoutRobot(id="s2")]
        for _ in range(30):
            world, robots = step(world, robots)
            targets = [r.target for r in robots if r.target is not None]
            assert len(targets) == len(set(targets))
            if coverage_fraction(world.grid) == 1.0:
                break

    def test_battery_at_threshold_triggers_return(self):
        world = TubeWorld(grid=open_map(5))
        tick = 1.0 / 1.7
        # at the entrance, distance home 0: threshold = 1.2*(0+1)*tick + tick
        robot = ScoutRobot(id="s1", position=(0, 0), battery_s=2.2 * tick)
        _, robots2 = step(world, [robot])
        assert robots2[0].state in (RobotState.RETURNING, RobotState.CHARGING)

    def test_battery_above_threshold_keeps_exploring(self):
        world = TubeWorld(grid=open_map(5))
        tick = 1.0 / 1.7
        robot = ScoutRobot(id="s1", position=(0, 0), battery_s=10.0 * tick)
        _, robots2 = step(world, [robot])
        assert robots2[0].state is RobotState.EXPLORING

    def test_returning_robot_delivers_and_charges(self):
        grid = open_map(3)
        world = TubeWorld(grid=grid, station=Station(charge_time_s=100.0))
        sample = Sample(mass_kg=2.0, origin=(2, 2), module_slot=1)
        robot = ScoutRobot(id="s1", position=(0, 1), samples=(sample,),
                           state=RobotState.RETURNING)
        world2, robots2 = step(world, [robot])
        back = robots2[0]
        assert back.position == (0, 0)
        assert back.state is RobotState.CHARGING
        assert back.samples == ()
        assert world2.delivered == (sample,)

    def test_charging_refills_and_releases(self):
        grid = open_map(3)
        # charge time = one tick: a single charging tick tops up
        tick = 1.0 / 1.7
        world = TubeWorld(grid=grid, station=Station(charge_time_s=tick))
        robot = ScoutRobot(id="s1", position=(0, 0), battery_s=10.0,
                           state=RobotState.CHARGING)
        _, robots2 = step(world, [robot])
        assert robots2[0].battery_s == robot.battery_full_s
        assert robots2[0].state is RobotState.EXPLORING

    def test_sample_site_collected_en_route(self):
        grid = grid_from_text("E..\n...\n...\n")
        site = SampleSite(cell=(0, 1), mass_kg=3.0)
        world = TubeWorld(grid=grid, sample_sites=(site,))
        robot = ScoutRobot(id="s1", position=(0, 0))
        for _ in range(4):
            world, [robot] = step(world, [robot])
            if robot.samples:
                break
        assert robot.samples and robot.samples[0].origin == (0, 1)
        assert world.sample_sites == ()


class TestRunExploration:
    def test_single_cell_map_done_at_step_zero(self):
        cells = np.array([[ENTRANCE]], dtype=np.int8)
        grid = fresh_map(cells)
        report = run_exploration(grid, [ScoutRobot(id="s1")])
        assert report.steps == 0
        assert report.coverage_fraction == 1.0

    def test_open_map_full_coverage_matches_oracle(self):
        grid = open_map(10)
        cells = grid.cells.copy()
        robots = [ScoutRobot(id="s1"), ScoutRobot(id="s2")]
        report = run_exploration(grid, robots, max_steps=2000)
        assert report.coverage_fraction == 1.0
        # re-run on a fresh copy to inspect the final explored set
        grid2 = fresh_map(cells)
        world = TubeWorld(grid=grid2.copy())
        fleet = [ScoutRobot(id="s1"), ScoutRobot(id="s2")]
        for robot in fleet:
            world.grid.explored[robot.position] = True
        while coverage_fraction(world.grid) < 1.0:
            world, fleet = step(world, fleet)
        assert explored_set(world.grid) == flood_fill(cells)

    def test_walled_off_region_excluded(self):
        text = ("E....\n"
                ".....\n"
                "#####\n"
                ".....\n"
                ".....\n")
        grid = grid_from_text(text)
        report = run_exploration(grid, [ScoutRobot(id="s1")], max_steps=500)
        assert report.coverage_fraction == 1.0
        # the far side of the wall is not reachable and never explored
        grid2 = grid_from_text(text)
        world = TubeWorld(grid=grid2)
        fleet = [ScoutRobot(id="s1")]
        for _ in range(500):
            world, fleet = step(world, fleet)
            if coverage_fraction(world.grid) == 1.0:
                break
        assert explored_set(world.grid) == flood_fill(grid2.cells)
        assert not world.grid.explored[3:, :].any()

    def test_a_fleet_cut_off_from_the_entrance_ends_the_survey(self):
        """The only robot starts in a pocket walled off from the explored
        entrance component, with a site left at (0, 0). It is stuck after
        one tick, and a survey with no robot left to move ends there. The
        site is not listed as undeliverable, although no robot can reach
        it: only the Python API can place a robot off the entrance."""
        grid = grid_from_text("...E..\n......\n####.#\n..#...\n..#...\n")
        grid.explored[:] = reachable_cells(grid)
        report = run_exploration(grid, [ScoutRobot(id="s1", position=(3, 0))],
                                 sample_sites=(SampleSite((0, 0), 1.0),))
        assert report == ExplorationReport(
            steps=1, coverage_fraction=1.0, samples_delivered=0,
            energy_regen_wh=0.0, per_robot_stats=(RobotStats(
                "s1", distance_cells=0, samples_delivered=0,
                final_state="stuck", battery_s=18000.0),),
            undeliverable_sites=())

    def test_max_steps_caps_run(self):
        grid = generate_tube(11, 15, 15, 0.1)
        report = run_exploration(grid, make_fleet(grid, 1), max_steps=1)
        assert report.steps == 1
        assert report.coverage_fraction < 1.0

    def test_invalid_max_steps(self):
        with pytest.raises(ValueError):
            run_exploration(open_map(), [ScoutRobot(id="s1")], max_steps=0)

    def test_regen_credit_per_descent(self):
        env = MarsEnvironment()
        winch = WinchSpec()
        station = Station(winch=winch, descents=3)
        report = run_exploration(open_map(3), [ScoutRobot(id="s1")],
                                 station=station, env=env)
        assert report.energy_regen_wh == pytest.approx(
            3.0 * winch_regen_energy(winch, env), rel=1e-12)

    def test_no_winch_no_regen(self):
        report = run_exploration(open_map(3), [ScoutRobot(id="s1")])
        assert report.energy_regen_wh == 0.0

    def test_deterministic_repeat(self):
        reports = []
        for _ in range(2):
            grid = generate_tube(42, 12, 12, 0.2)
            reports.append(run_exploration(grid, make_fleet(grid, 2), max_steps=3000))
        assert reports[0] == reports[1]

    def test_sample_pipeline_end_to_end(self):
        grid = open_map(4)
        sites = (SampleSite((3, 3), 2.0), SampleSite((0, 3), 1.0))
        # tiny battery forces return trips; charge fast to keep the run short
        robot = ScoutRobot(id="s1", battery_full_s=30.0)
        station = Station(charge_time_s=1.0)
        report = run_exploration(grid, [robot], station=station,
                                 max_steps=5000, sample_sites=sites)
        assert report.coverage_fraction == 1.0
        assert report.samples_delivered == 2
        stats = report.per_robot_stats[0]
        assert stats.samples_delivered == 2
        assert stats.distance_cells > 0

    def test_per_robot_stats_sorted_by_id(self):
        grid = open_map(6)
        robots = [ScoutRobot(id="zeta"), ScoutRobot(id="alpha")]
        report = run_exploration(grid, robots, max_steps=2000)
        assert [s.robot_id for s in report.per_robot_stats] == ["alpha", "zeta"]


class TestProperties:
    """Acceptance-level property checks over random instances."""

    def test_coverage_complete_and_oracle_exact_on_random_maps(self):
        for seed in range(100):
            grid = generate_tube(seed, 8, 8, 0.25)
            cells = grid.cells.copy()
            world = TubeWorld(grid=grid.copy())
            fleet = make_fleet(grid, 2, battery_full_s=36000.0)
            for robot in fleet:
                world.grid.explored[robot.position] = True
            previous = coverage_fraction(world.grid)
            oracle = flood_fill(cells)
            for _ in range(600):
                world, fleet = step(world, fleet)
                current = coverage_fraction(world.grid)
                assert current >= previous  # monotone
                assert explored_set(world.grid) <= oracle  # sound
                targets = [r.target for r in fleet if r.target is not None]
                assert len(targets) == len(set(targets))  # exclusive claims
                previous = current
                if current == 1.0:
                    break
            assert previous == 1.0
            assert explored_set(world.grid) == oracle  # complete and exact

    def test_battery_never_dies_off_entrance(self):
        for seed in range(40):
            grid = generate_tube(seed, 10, 10, 0.2)
            # small battery: force many return trips
            fleet = make_fleet(grid, 1, battery_full_s=25.0)
            world = TubeWorld(grid=grid.copy(), station=Station(charge_time_s=5.0))
            entrance = grid.entrance
            for _ in range(3000):
                world, fleet = step(world, fleet)
                for robot in fleet:
                    if robot.position != entrance and robot.state is not RobotState.STUCK:
                        assert robot.battery_s > 0.0
                if coverage_fraction(world.grid) == 1.0:
                    break
