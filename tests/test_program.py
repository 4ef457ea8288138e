"""Tests for payload budgets, WBS rollups, money parsing, and schedule checks."""

import pytest

from tubescout.program import (
    DEFAULT_DEADLINE_YEAR,
    DEFAULT_LAUNCH_YEAR,
    DEFAULT_PAYLOADS,
    DEFAULT_PHASES,
    DEFAULT_WBS,
    BudgetLimits,
    LifecyclePhase,
    PayloadSpec,
    PhaseCode,
    WbsNode,
    fte_estimate,
    parse_money,
    rollup_budget,
    rollup_cost,
    validate_schedule,
)
from tubescout.rng import Rng


def find_node(root, name):
    if root.name == name:
        return root
    for child in root.children:
        found = find_node(child, name)
        if found is not None:
            return found
    return None


class TestWbsRollup:
    def test_total_program_cost_exact(self):
        total = rollup_cost(DEFAULT_WBS)
        assert isinstance(total, int)
        assert total == 181_417_003

    @pytest.mark.parametrize("name, expected", [
        ("mastcam_z", 193_500),
        ("rimfax", 500_000),
        ("ground_penetrating_radar_camera", 693_500),
        ("lava_tube_exploration_robot", 174_200_000),
        ("wind_power_balloon", 2_107_350),
        ("mycotecture", 2_104_100),
        ("gas_chromatograph", 205_453),
        ("deployable_greenhouse", 2_106_600),
    ])
    def test_subsystem_totals_exact(self, name, expected):
        node = find_node(DEFAULT_WBS, name)
        assert node is not None, f"missing WBS node {name}"
        assert rollup_cost(node) == expected

    def test_subsystems_sum_to_program_total(self):
        assert sum(rollup_cost(c) for c in DEFAULT_WBS.children) == 181_417_003

    def test_child_permutation_invariance(self):
        rng = Rng(7)
        children = list(DEFAULT_WBS.children)
        for _ in range(20):
            shuffled = sorted(children, key=lambda _: rng.random())
            permuted = WbsNode("payloads", 2, children=tuple(shuffled))
            assert rollup_cost(permuted) == 181_417_003

    def test_regrouping_invariance(self):
        children = DEFAULT_WBS.children
        regrouped = WbsNode("payloads", 2, children=(
            WbsNode("group_a", 3, children=children[:3]),
            WbsNode("group_b", 3, children=children[3:]),
        ))
        assert rollup_cost(regrouped) == rollup_cost(DEFAULT_WBS)

    def test_leaf_rollup_is_its_cost(self):
        leaf = WbsNode("bolt", 5, cost_usd=7)
        assert rollup_cost(leaf) == 7

    def test_empty_node_contributes_zero(self):
        assert rollup_cost(WbsNode("placeholder", 3)) == 0
        parent = WbsNode("parent", 2, children=(
            WbsNode("placeholder", 3), WbsNode("real", 3, cost_usd=12)))
        assert rollup_cost(parent) == 12

    def test_negative_leaf_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            WbsNode("bad", 4, cost_usd=-1)

    def test_non_integer_cost_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            WbsNode("bad", 4, cost_usd=12.5)
        with pytest.raises(ValueError, match="integer"):
            WbsNode("bad", 4, cost_usd=True)

    def test_cost_and_children_rejected(self):
        with pytest.raises(ValueError, match="both"):
            WbsNode("bad", 3, cost_usd=5, children=(WbsNode("kid", 4, cost_usd=1),))

    def test_name_and_level_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            WbsNode("", 3)
        with pytest.raises(ValueError, match="level"):
            WbsNode("ok", -1)

    def test_levels_are_laid_out_top_down(self):
        assert DEFAULT_WBS.level == 2
        assert all(child.level == 3 for child in DEFAULT_WBS.children)


class TestParseMoney:
    @pytest.mark.parametrize("text, expected", [
        ("$181.417.003", 181_417_003),
        ("$2.107.350,00", 2_107_350),
        ("$2.104.100,00", 2_104_100),
        ("$2.106.600,00", 2_106_600),
        ("193,500", 193_500),
        ("$193,500", 193_500),
        ("205453", 205_453),
        ("$ 1,320,000", 1_320_000),
        ("1.000", 1_000),
        ("12.00", 12),
        ("12,00", 12),
        ("0", 0),
        ("$400", 400),
        ("174200000", 174_200_000),
        ("-500", -500),
    ])
    def test_accepted_formats(self, text, expected):
        assert parse_money(text) == expected

    @pytest.mark.parametrize("text", [
        "1,234.56",      # nonzero cents
        "12,34",         # nonzero cents
        "1..2",
        "1,23,456",      # malformed grouping
        "1.234,000",     # three-digit cents
        "",
        "$",
        "abc",
        "12 000",
    ])
    def test_rejected_formats(self, text):
        with pytest.raises(ValueError):
            parse_money(text)

    def test_round_trips_every_default_leaf(self):
        def walk(node):
            if node.cost_usd is not None:
                yield node.cost_usd
            for child in node.children:
                yield from walk(child)

        for cost in walk(DEFAULT_WBS):
            assert parse_money(f"{cost:,}") == cost


class TestPayloadBudget:
    def test_default_masses_sum_exactly(self):
        result = rollup_budget(DEFAULT_PAYLOADS)
        assert result.total_mass_kg == 277.0

    def test_default_budget_passes_under_one_tonne(self):
        result = rollup_budget(DEFAULT_PAYLOADS)
        assert result.passes
        assert result.margins["payload_mass_kg"] == pytest.approx(723.0)
        assert result.margins["volume_m3"] > 0

    def test_default_mass_near_chassis_class_estimate(self):
        result = rollup_budget(DEFAULT_PAYLOADS)
        assert abs(result.total_mass_kg - 270.0) / 270.0 <= 0.10

    def test_peak_power_is_simultaneous_sum(self):
        result = rollup_budget(DEFAULT_PAYLOADS)
        assert result.peak_power_w == pytest.approx(17.4 + 10 + 0 + 120 + 3 + 12 + 1700)

    def test_volume_totals(self):
        result = rollup_budget(DEFAULT_PAYLOADS)
        assert result.total_volume_m3 == pytest.approx(4.1028)

    def test_overweight_single_payload_fails_with_negative_margin(self):
        heavy = PayloadSpec("anvil", 1001.0, 0.1, 0.0, 0)
        result = rollup_budget([heavy])
        assert not result.passes
        assert result.margins["payload_mass_kg"] == pytest.approx(-1.0)

    def test_oversized_payload_fails_on_volume(self):
        bulky = PayloadSpec("foam", 1.0, 8.5, 0.0, 0)
        result = rollup_budget([bulky])
        assert not result.passes
        assert result.margins["volume_m3"] == pytest.approx(-0.5)

    def test_empty_registry_passes_trivially(self):
        result = rollup_budget([])
        assert result.passes
        assert result.total_mass_kg == 0.0
        assert result.peak_power_w == 0.0

    def test_custom_limits(self):
        tight = BudgetLimits(payload_mass_limit_kg=100.0)
        assert not rollup_budget(DEFAULT_PAYLOADS, tight).passes

    def test_invalid_payloads_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            PayloadSpec("", 1.0, 1.0, 1.0, 0)
        with pytest.raises(ValueError, match="mass_kg"):
            PayloadSpec("x", -1.0, 1.0, 1.0, 0)
        with pytest.raises(ValueError, match="integer"):
            PayloadSpec("x", 1.0, 1.0, 1.0, 9.5)
        with pytest.raises(ValueError, match="nonnegative"):
            PayloadSpec("x", 1.0, 1.0, 1.0, -3)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            BudgetLimits(volume_limit_m3=0.0)


class TestFteEstimate:
    def test_reference_staffing_volume(self):
        assert fte_estimate(600, 10, 220) == 1_320_000

    def test_exact_integer(self):
        assert isinstance(fte_estimate(600, 10, 220), int)

    def test_zero_people_is_zero(self):
        assert fte_estimate(0, 10) == 0

    def test_default_rate(self):
        assert fte_estimate(1, 1) == 220

    @pytest.mark.parametrize("people, years, rate", [
        (-1, 10, 220), (600, -1, 220), (600, 10, -1),
        (600.0, 10, 220), (600, 10.0, 220), (True, 10, 220),
    ])
    def test_invalid_inputs_rejected(self, people, years, rate):
        with pytest.raises(ValueError):
            fte_estimate(people, years, rate)


class TestSchedule:
    def test_default_timeline_validates(self):
        check = validate_schedule(DEFAULT_PHASES, DEFAULT_LAUNCH_YEAR,
                                  DEFAULT_DEADLINE_YEAR)
        assert check.ok
        assert check.findings == ()

    def test_default_phase_starts(self):
        starts = {p.code.value: p.start_year for p in DEFAULT_PHASES}
        assert starts == {"PreA": 2022, "A": 2023, "B": 2024, "C": 2025,
                          "D": 2026, "E": 2031, "F": 2036}

    def test_inverted_phases_rejected(self):
        phases = (LifecyclePhase(PhaseCode.PRE_A, 2024),
                  LifecyclePhase(PhaseCode.A, 2023),
                  LifecyclePhase(PhaseCode.D, 2026))
        check = validate_schedule(phases, 2030, 2033)
        assert not check.ok
        assert [f.rule for f in check.findings] == ["ordering"]

    def test_equal_start_years_count_as_inversion(self):
        phases = (LifecyclePhase(PhaseCode.B, 2024),
                  LifecyclePhase(PhaseCode.C, 2024),
                  LifecyclePhase(PhaseCode.D, 2026))
        check = validate_schedule(phases, 2030, 2033)
        assert [f.rule for f in check.findings] == ["ordering"]

    def test_late_launch_rejected(self):
        check = validate_schedule(DEFAULT_PHASES, 2034, 2033)
        assert not check.ok
        assert [f.rule for f in check.findings] == ["deadline"]

    def test_launch_before_integration_rejected(self):
        check = validate_schedule(DEFAULT_PHASES, 2025, 2033)
        assert not check.ok
        assert [f.rule for f in check.findings] == ["launch_window"]

    def test_missing_phase_d_flagged(self):
        phases = (LifecyclePhase(PhaseCode.PRE_A, 2022),
                  LifecyclePhase(PhaseCode.A, 2023))
        check = validate_schedule(phases, 2030, 2033)
        assert not check.ok
        assert "phase_d_missing" in [f.rule for f in check.findings]

    def test_findings_accumulate(self):
        phases = (LifecyclePhase(PhaseCode.A, 2025),
                  LifecyclePhase(PhaseCode.B, 2024))
        check = validate_schedule(phases, 2040, 2033)
        rules = {f.rule for f in check.findings}
        assert rules == {"ordering", "phase_d_missing", "deadline"}

    def test_duplicate_phase_codes_raise(self):
        phases = (LifecyclePhase(PhaseCode.D, 2026),
                  LifecyclePhase(PhaseCode.D, 2027))
        with pytest.raises(ValueError, match="duplicate"):
            validate_schedule(phases, 2030, 2033)

    def test_empty_phase_list_raises(self):
        with pytest.raises(ValueError, match="nonempty"):
            validate_schedule((), 2030, 2033)

    def test_phase_order_subset_only_checks_present_phases(self):
        phases = (LifecyclePhase(PhaseCode.PRE_A, 2022),
                  LifecyclePhase(PhaseCode.D, 2026))
        assert validate_schedule(phases, 2030, 2033).ok

    def test_launch_on_deadline_and_on_d_start_ok(self):
        assert validate_schedule(DEFAULT_PHASES, 2026, 2033).ok
        assert validate_schedule(DEFAULT_PHASES, 2033, 2033).ok

    def test_monotone_permutations_property(self):
        years = [2022, 2023, 2024, 2025, 2026, 2031, 2036]
        rng = Rng(11)
        for _ in range(50):
            shuffled = sorted(years, key=lambda _: rng.random())
            phases = tuple(LifecyclePhase(code, year)
                           for code, year in zip(PhaseCode, shuffled))
            check = validate_schedule(phases, max(shuffled), max(shuffled))
            expect_ok = all(a < b for a, b in zip(shuffled, shuffled[1:]))
            d_year = shuffled[list(PhaseCode).index(PhaseCode.D)]
            expect_ok = expect_ok and max(shuffled) >= d_year
            assert check.ok == expect_ok

    def test_start_year_must_be_integer(self):
        with pytest.raises(ValueError, match="integer"):
            LifecyclePhase(PhaseCode.A, 2023.5)
