"""Data-enabled predictive control with SVD dimension reduction.

Builds receding-horizon controllers directly from recorded input/output
trajectories (no parametric model), optionally condensing the data matrix
for fast online solves (without loss through a QR, or truncated by SVD),
and validates them in closed loop on a simulated cable-driven soft arm
with a geometric baseline for comparison.
"""

from .baseline import BaselineCommand, BaselineController, baseline_control
from .config import ExperimentConfig, default_config_path, load_config, parse_config_text
from .controller import (
    DeePCConfig,
    DeePCController,
    DeePCStepResult,
    DeePCTemplate,
    HistoryBuffer,
    assemble,
    step,
)
from .excitation import ExcitationSpec, generate_excitation
from .experiments import (
    build_controller,
    build_geometry,
    build_plant,
    circle_bending,
    circle_waypoints,
    collect_dataset,
    compare_controllers,
    run_circle,
    run_fixed_point,
)
from .hankel import (
    BlockHankel,
    HankelPartition,
    TrajectoryDataset,
    build_hankel,
    is_persistently_exciting,
    numerical_rank,
    partition_past_future,
    representability_residual,
)
from .kinematics import (
    ArmGeometry,
    CcInverse,
    bending_from_lengths,
    cable_lengths,
    cc_forward,
    cc_inverse,
)
from .plants import (
    ArmState,
    DisturbanceConfig,
    LtiPlant,
    SoftArmPlant,
    arm_sim_run,
)
from .qp import QpSolution, QpSolver
from .reduction import condense_lossless, factorize_and_condense, select_rank
from .runlog import (
    RunLog,
    StageSpec,
    compute_metrics,
    export_run,
    load_dataset,
    save_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "ArmGeometry",
    "ArmState",
    "BaselineCommand",
    "BaselineController",
    "BlockHankel",
    "CcInverse",
    "DeePCConfig",
    "DeePCController",
    "DeePCStepResult",
    "DeePCTemplate",
    "DisturbanceConfig",
    "ExcitationSpec",
    "ExperimentConfig",
    "HankelPartition",
    "HistoryBuffer",
    "LtiPlant",
    "QpSolution",
    "QpSolver",
    "RunLog",
    "SoftArmPlant",
    "StageSpec",
    "TrajectoryDataset",
    "arm_sim_run",
    "assemble",
    "baseline_control",
    "bending_from_lengths",
    "build_controller",
    "build_geometry",
    "build_hankel",
    "build_plant",
    "cable_lengths",
    "cc_forward",
    "cc_inverse",
    "circle_bending",
    "circle_waypoints",
    "collect_dataset",
    "compare_controllers",
    "compute_metrics",
    "condense_lossless",
    "default_config_path",
    "export_run",
    "factorize_and_condense",
    "generate_excitation",
    "is_persistently_exciting",
    "load_config",
    "load_dataset",
    "numerical_rank",
    "parse_config_text",
    "partition_past_future",
    "representability_residual",
    "run_circle",
    "run_fixed_point",
    "save_dataset",
    "select_rank",
    "step",
]
