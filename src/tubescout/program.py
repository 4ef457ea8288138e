"""Programmatics: payload budgets, WBS cost rollups, staffing, schedule.

Costs are integer dollars end to end. Source tables use both US-style
("193,500") and European-style ("2.107.350", sometimes with a ",00"
cents suffix) separators, so ``parse_money`` normalizes both; rollups
then stay exact under any regrouping, which floating point would not
guarantee.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import NewType

from .numeric import fold_sum, require_nonnegative, require_positive

#: Whole US dollars. A config file may give one as a money string too.
Money = NewType("Money", int)


@dataclass(frozen=True)
class PayloadSpec:
    """One payload line item in the mass/volume/power/cost registry."""

    name: str
    mass_kg: float
    volume_m3: float
    power_w: float
    wbs_cost_usd: Money

    def __post_init__(self):
        if not self.name:
            raise ValueError("payload name must be nonempty")
        require_nonnegative(self, "mass_kg", "volume_m3", "power_w")
        if not isinstance(self.wbs_cost_usd, int) or isinstance(self.wbs_cost_usd, bool):
            raise ValueError(
                f"wbs_cost_usd must be an integer dollar amount, got {self.wbs_cost_usd!r}")
        require_nonnegative(self, "wbs_cost_usd")


#: Baseline payload registry. Masses are the per-payload design values;
#: volumes are catalog/CAD estimates (the winch volume is its quoted
#: 391x126x128 mm envelope); the winch power rating treats the quoted
#: "1700" as 1.7 kW, consistent with a 12 V truck-class winch.
DEFAULT_PAYLOADS = (
    PayloadSpec("mastcam_z", mass_kg=4.0, volume_m3=0.0089, power_w=17.4,
                wbs_cost_usd=193_500),
    PayloadSpec("rimfax", mass_kg=3.0, volume_m3=0.0016, power_w=10.0,
                wbs_cost_usd=500_000),
    PayloadSpec("scout_robot", mass_kg=18.0, volume_m3=0.05, power_w=0.0,
                wbs_cost_usd=174_200_000),
    PayloadSpec("gas_chromatograph", mass_kg=35.0, volume_m3=0.036, power_w=120.0,
                wbs_cost_usd=205_453),
    PayloadSpec("mycotecture", mass_kg=50.0, volume_m3=1.0, power_w=3.0,
                wbs_cost_usd=2_104_100),
    PayloadSpec("greenhouse", mass_kg=150.0, volume_m3=3.0, power_w=12.0,
                wbs_cost_usd=2_106_600),
    PayloadSpec("winch", mass_kg=17.0, volume_m3=0.0063, power_w=1700.0,
                wbs_cost_usd=700),
)

@dataclass(frozen=True)
class BudgetLimits:
    payload_mass_limit_kg: float = 1000.0
    platform_mass_limit_kg: float = 9000.0
    volume_limit_m3: float = 8.0

    def __post_init__(self):
        require_positive(self, "payload_mass_limit_kg", "platform_mass_limit_kg",
                         "volume_limit_m3")


@dataclass(frozen=True)
class BudgetResult:
    total_mass_kg: float
    total_volume_m3: float
    peak_power_w: float
    passes: bool
    margins: dict[str, float]


def rollup_budget(payloads: list[PayloadSpec] | tuple[PayloadSpec, ...],
                  limits: BudgetLimits = BudgetLimits()) -> BudgetResult:
    """Sum the registry and check it against the lander allocation.

    Peak power assumes everything draws at once (worst case). The pass
    verdict covers the payload mass and volume limits; the platform
    allocation is reported as a margin only, since the platform itself
    is not a registry item.
    """
    total_mass = fold_sum(p.mass_kg for p in payloads)
    total_volume = fold_sum(p.volume_m3 for p in payloads)
    peak_power = fold_sum(p.power_w for p in payloads)
    margins = {
        "payload_mass_kg": limits.payload_mass_limit_kg - total_mass,
        "volume_m3": limits.volume_limit_m3 - total_volume,
        "platform_mass_kg": limits.platform_mass_limit_kg,
    }
    passes = margins["payload_mass_kg"] >= 0 and margins["volume_m3"] >= 0
    return BudgetResult(
        total_mass_kg=total_mass,
        total_volume_m3=total_volume,
        peak_power_w=peak_power,
        passes=passes,
        margins=margins,
    )


@dataclass(frozen=True)
class WbsNode:
    """Work-breakdown node. Leaves carry an exact integer cost; internal
    nodes carry none and roll their children up. A node with neither
    cost nor children contributes zero."""

    name: str
    level: int
    cost_usd: Money | None = None
    children: tuple[WbsNode, ...] = ()
    note: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("WBS node name must be nonempty")
        require_nonnegative(self, "level")
        if self.cost_usd is not None:
            if self.children:
                raise ValueError(
                    f"node {self.name!r} has both a cost and children; "
                    f"internal nodes carry no own cost")
            if not isinstance(self.cost_usd, int) or isinstance(self.cost_usd, bool):
                raise ValueError(
                    f"leaf cost must be an integer dollar amount, got {self.cost_usd!r}")
            if self.cost_usd < 0:
                raise ValueError(
                    f"leaf {self.name!r} has negative cost {self.cost_usd}")


def rollup_cost(root: WbsNode) -> int:
    """Post-order exact integer sum of every leaf cost under ``root``."""
    if root.cost_usd is not None:
        return root.cost_usd
    return sum(rollup_cost(child) for child in root.children)


def _leaves(level: int, items: list[tuple[str, int]]) -> tuple[WbsNode, ...]:
    return tuple(WbsNode(name, level, cost_usd=cost) for name, cost in items)


#: Baseline payload WBS: level 2 program rolls up six level-3 subsystems.
#: The gas chromatograph is a vendor-quote leaf (a component-level
#: estimate near $50k exists but the quote governs the rollup); the
#: scout robot enters as a single flagship-class development analogy.
DEFAULT_WBS = WbsNode(
    name="payloads", level=2, children=(
        WbsNode(name="ground_penetrating_radar_camera", level=3, children=(
            WbsNode(name="mastcam_z", level=4, children=_leaves(5, [
                ("optical_sensor", 3_500),
                ("lenses", 50_000),
                ("other_components", 40_000),
                ("development_and_integration", 100_000),
            ])),
            WbsNode(name="rimfax", level=4, children=_leaves(5, [
                ("processor", 300_000),
                ("ground_sensor", 50_000),
                ("other_components", 50_000),
                ("development_and_integration", 100_000),
            ])),
        )),
        WbsNode(name="lava_tube_exploration_robot", level=3, cost_usd=174_200_000,
                note="development cost taken comparable to a flagship-class rover"),
        WbsNode(name="wind_power_balloon", level=3, children=_leaves(4, [
            ("lifting_gas_tank", 350),
            ("surface_covering", 1_000),
            ("tether_system", 500),
            ("turbine_system", 500),
            ("scientific_payloads", 5_000),
            ("development", 2_000_000),
            ("integration", 100_000),
        ])),
        WbsNode(name="mycotecture", level=3, children=_leaves(4, [
            ("grow_volume", 1_500),
            ("resource_supplementation", 1_500),
            ("nutrients", 500),
            ("temperature_control", 100),
            ("redundancy", 500),
            ("development", 2_000_000),
            ("integration", 100_000),
        ])),
        WbsNode(name="gas_chromatograph", level=3, cost_usd=205_453,
                note="vendor quote; early component-level estimate was ~$50,000"),
        WbsNode(name="deployable_greenhouse", level=3, children=_leaves(4, [
            ("farmbot", 3_500),
            ("deployable_feature", 2_000),
            ("glass", 500),
            ("temperature_control", 100),
            ("redundancy", 500),
            ("development", 2_000_000),
            ("integration", 100_000),
        ])),
    ),
)


_MONEY_RE = re.compile(
    r"^\$?\s*(-)?(\d{1,3}(?:([.,])\d{3}(?:\3\d{3})*|\d*))(?:[.,](\d{2}))?$")


def parse_money(text: str) -> int:
    """Normalize a money string to integer dollars.

    Accepts plain digits, US-style thousands commas, European-style
    thousands periods, an optional leading dollar sign, and an optional
    ",00"/".00" zero-cents suffix. Anything with nonzero cents or
    inconsistent grouping is rejected.
    """
    match = _MONEY_RE.match(text.strip())
    if not match:
        raise ValueError(f"unparseable money amount {text!r}")
    sign, body, _, cents = match.groups()
    if cents is not None and cents != "00":
        raise ValueError(f"money amount {text!r} has fractional dollars")
    value = int(body.replace(",", "").replace(".", ""))
    return -value if sign else value


def fte_estimate(people: int, years: int, fte_per_person_year: int = 220) -> int:
    """Exact staffing volume: people * years * per-person-year rate."""
    for name, value in (("people", people), ("years", years),
                        ("fte_per_person_year", fte_per_person_year)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    return people * years * fte_per_person_year


class PhaseCode(enum.Enum):
    """Lifecycle phases in their fixed order; phases never repeat."""

    PRE_A = "PreA"
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"


@dataclass(frozen=True)
class LifecyclePhase:
    code: PhaseCode
    start_year: int

    def __post_init__(self):
        if not isinstance(self.start_year, int) or isinstance(self.start_year, bool):
            raise ValueError(f"start_year must be an integer, got {self.start_year!r}")


#: Baseline project timeline; launch falls late in assembly/integration.
DEFAULT_PHASES = (
    LifecyclePhase(PhaseCode.PRE_A, 2022),
    LifecyclePhase(PhaseCode.A, 2023),
    LifecyclePhase(PhaseCode.B, 2024),
    LifecyclePhase(PhaseCode.C, 2025),
    LifecyclePhase(PhaseCode.D, 2026),
    LifecyclePhase(PhaseCode.E, 2031),
    LifecyclePhase(PhaseCode.F, 2036),
)

DEFAULT_LAUNCH_YEAR = 2033
DEFAULT_DEADLINE_YEAR = 2033


@dataclass(frozen=True)
class ScheduleFinding:
    rule: str
    message: str


@dataclass(frozen=True)
class ScheduleCheck:
    ok: bool
    findings: tuple[ScheduleFinding, ...] = field(default=())


def check_phase_list(phases) -> None:
    """Raise ValueError on an empty phase list or duplicate phase codes."""
    if not phases:
        raise ValueError("phase list must be nonempty")
    codes = [p.code for p in phases]
    if len(set(codes)) != len(codes):
        raise ValueError(f"duplicate phase codes in {[c.value for c in codes]}")


def validate_schedule(phases: list[LifecyclePhase] | tuple[LifecyclePhase, ...],
                      launch_year: int = DEFAULT_LAUNCH_YEAR,
                      deadline: int = DEFAULT_DEADLINE_YEAR) -> ScheduleCheck:
    """Check lifecycle ordering and the launch window.

    Rules: phase start years must strictly increase along the fixed
    lifecycle order (finding ``ordering``); the launch must not precede
    the assembly/integration phase start (``launch_window``) and must
    not slip past the deadline (``deadline``). A missing D phase is
    flagged as ``phase_d_missing``.

    Raises:
        ValueError: on an empty phase list or duplicate phase codes.
    """
    check_phase_list(phases)
    findings: list[ScheduleFinding] = []
    order_index = {code: i for i, code in enumerate(PhaseCode)}
    ordered = sorted(phases, key=lambda p: order_index[p.code])
    for earlier, later in zip(ordered, ordered[1:]):
        if later.start_year <= earlier.start_year:
            findings.append(ScheduleFinding(
                rule="ordering",
                message=(f"phase {later.code.value} starts {later.start_year}, "
                         f"not after phase {earlier.code.value} "
                         f"({earlier.start_year})")))

    phase_d = next((p for p in phases if p.code is PhaseCode.D), None)
    if phase_d is None:
        findings.append(ScheduleFinding(
            rule="phase_d_missing",
            message="no assembly/integration (D) phase to anchor the launch"))
    elif launch_year < phase_d.start_year:
        findings.append(ScheduleFinding(
            rule="launch_window",
            message=(f"launch {launch_year} precedes the D phase start "
                     f"{phase_d.start_year}")))
    if launch_year > deadline:
        findings.append(ScheduleFinding(
            rule="deadline",
            message=f"launch {launch_year} misses the {deadline} deadline"))

    return ScheduleCheck(ok=not findings, findings=tuple(findings))
