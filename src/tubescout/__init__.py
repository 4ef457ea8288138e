"""Deterministic engineering models and simulators for a telerobotic
Mars lava-tube settlement mission: aerostat buoyancy, winch power and
regeneration, greenhouse thermal sizing, battery/power-budget sols,
radiation-dose mixing, multi-robot tube surveys, payload mass/volume
budgets, exact work-breakdown cost rollups, lifecycle schedule checks,
and a scripted multi-sol mission runner tying them together.
"""

__version__ = "0.1.0"

from tubescout.aerostat import (
    BETZ_LIMIT,
    REFERENCE_BALLOON,
    AreaModel,
    BalloonConfig,
    BalloonGeometry,
    BuoyancyResult,
    buoyancy_margin,
    gas_density_for,
    lift_gas_density,
    turbine_power,
)
from tubescout.config import (
    ConfigError,
    ExplorationSettings,
    GeneratorSettings,
    GerminationSettings,
    MissionConfig,
    MissionSettings,
    ProgramSettings,
    TaggedLoad,
    load_config,
    parse_wbs_file,
    to_echo_dict,
)
from tubescout.energy import (
    DEFAULT_TIMESTEP_S,
    REFERENCE_WINCH,
    Battery,
    PowerLoad,
    PowerSource,
    ScheduleResult,
    SocTrace,
    SourceKind,
    Violation,
    WinchPower,
    WinchSpec,
    schedule_loads,
    simulate_sol,
    winch_power,
    winch_regen_energy,
    write_soc_csv,
)
from tubescout.env import (
    PRESETS,
    MarsEnvironment,
    cumulative_dose,
    diurnal_temperature,
    make_environment,
)
from tubescout.mission import (
    GerminationTrial,
    IllegalTransition,
    MissionEvent,
    MissionPhase,
    MissionState,
    advance,
    germination_trial,
    run_mission,
)
from tubescout.program import (
    DEFAULT_DEADLINE_YEAR,
    DEFAULT_LAUNCH_YEAR,
    DEFAULT_PAYLOADS,
    DEFAULT_PHASES,
    DEFAULT_WBS,
    BudgetLimits,
    BudgetResult,
    LifecyclePhase,
    PayloadSpec,
    PhaseCode,
    ScheduleCheck,
    ScheduleFinding,
    WbsNode,
    fte_estimate,
    parse_money,
    rollup_budget,
    rollup_cost,
    validate_schedule,
)
from tubescout.report import Finding, dump_json
from tubescout.rng import GERMINATION_STREAM, TUBE_STREAM, Rng, derive_seed
from tubescout.thermal import (
    REFERENCE_GREENHOUSE,
    AvionicsEnvelope,
    EnvelopeCheck,
    GlazedEnclosure,
    avionics_envelope_check,
    greenhouse_night_load,
    heat_loss,
    night_heating_energy,
)
from tubescout.tube_explorer import (
    ENTRANCE,
    FREE,
    OBSTACLE,
    ExplorationReport,
    GridMap,
    MapError,
    RobotState,
    Sample,
    SampleSite,
    ScoutRobot,
    Station,
    TubeWorld,
    bfs_distances,
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
