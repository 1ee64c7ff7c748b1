"""Bipedal loco-manipulation control stack on a point-mass pendulum model.

Layers, bottom up: core_dynamics (pendulum with external manipulation
forces), reference_builder (footstep and hand-contact timelines),
pattern_generator (preview-control CoM/ZMP trajectories), stabilizer
(DCM feedback with frequency-separated force-error compensation and
foot wrench distribution), plant_sim (closed-loop point-mass plant),
scenario (configs, metrics, comparisons) and cli.
"""

from .core_dynamics import (
    ExternalContact,
    LipmCoefficients,
    RobotParams,
    compute_coefficients,
    dcm_of,
    dcm_rate,
    ext_zmp,
    lipm_accel,
    net_foot_wrench,
    wrench_zmp,
)
from .errors import (
    ConfigError,
    DegenerateScale,
    Infeasible,
    InvalidSchedule,
    NonPhysical,
    OutputError,
    RiccatiDivergence,
    SchemaMismatch,
)
from .pattern_generator import (
    DesiredTrajectory,
    PreviewGains,
    PreviewWeights,
    generate_trajectory,
    synthesize_gains,
)
from .plant_sim import (
    DisturbanceProfile,
    TraceLog,
    run_closed_loop,
    step_plant,
)
from .reference_builder import (
    ContactBreakpoint,
    ContactSchedule,
    Footstep,
    ReferenceTimeline,
    SoleRect,
    build_reference_frames,
    standing_reference,
    stepping_reference,
)
from .scenario import (
    ScenarioConfig,
    ScenarioResult,
    TraceSummary,
    build_scenario,
    bundled_scenario_path,
    compare_runs,
    list_bundled_scenarios,
    load_config,
    parse_config,
    run_scenario,
    scenario_metrics,
    trace_metrics,
    trace_summary,
)
from .stabilizer import (
    Stabilizer,
    StabilizerGains,
    Wrench,
    distribute_wrench,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContactBreakpoint",
    "ContactSchedule",
    "DegenerateScale",
    "DesiredTrajectory",
    "DisturbanceProfile",
    "ExternalContact",
    "Footstep",
    "Infeasible",
    "InvalidSchedule",
    "LipmCoefficients",
    "NonPhysical",
    "OutputError",
    "PreviewGains",
    "PreviewWeights",
    "ReferenceTimeline",
    "RiccatiDivergence",
    "RobotParams",
    "ScenarioConfig",
    "ScenarioResult",
    "SchemaMismatch",
    "SoleRect",
    "Stabilizer",
    "StabilizerGains",
    "TraceLog",
    "TraceSummary",
    "Wrench",
    "build_reference_frames",
    "build_scenario",
    "bundled_scenario_path",
    "compare_runs",
    "compute_coefficients",
    "dcm_of",
    "dcm_rate",
    "distribute_wrench",
    "ext_zmp",
    "generate_trajectory",
    "lipm_accel",
    "list_bundled_scenarios",
    "load_config",
    "net_foot_wrench",
    "parse_config",
    "run_closed_loop",
    "run_scenario",
    "scenario_metrics",
    "standing_reference",
    "step_plant",
    "stepping_reference",
    "synthesize_gains",
    "trace_metrics",
    "trace_summary",
    "wrench_zmp",
]
