"""Multi-cell pilot assignment with a learned swap policy.

The package models a hexagonal cluster of massive-MIMO cells whose users
share a small pilot set. Pilot reuse across cells contaminates channel
estimates; an angular-overlap cost model scores each assignment, and a
deep Q-network learns to swap pilots so the worst user's contamination
stays low. Baselines (random, exhaustive, reuse-splitting) and a
Monte-Carlo uplink rate benchmark make the learned policy comparable.
"""

from .config import (
    PACKAGE_VERSION,
    BudgetError,
    ConfigError,
    EnvOptions,
    NumericError,
    RateOptions,
    SystemConfig,
    TrainingSchedule,
    load_config_file,
    substream,
)
from .scenario import (
    AoAInterval,
    CellLayout,
    ScenarioBundle,
    UserDrop,
    aoa_interval,
    build_layout,
    drop_users,
    fresh_world,
    in_hexagon,
    large_scale,
)
from .channel import covariance, steering
from .contamination import (
    CostTable,
    cosine_support,
    dirichlet_magnitude,
    extended_user_costs,
    interference_integral,
    kernel_zeros,
    pair_cost,
    pairwise_cost_matrix,
    total_costs,
)
from .assignment import (
    OverheadReport,
    PilotAssignment,
    apply_swap,
    baseline_assignment,
    exhaustive_search,
    random_assignment,
    spr_like_assignment,
)
from .env import (
    PilotEnv,
    RewardThresholds,
    WorldStream,
    calibrate_thresholds,
    encode_state,
    make_env,
    reward_components,
)
from .qnn import (
    Learner,
    ReplayBuffer,
    act,
    backward,
    epsilon,
    forward,
    init_params,
    rmsprop_step,
    sync_target,
    td_targets,
    train,
)
from .rate import RateReport, min_rate, moving_average
from .harness import (
    ExperimentPreset,
    presets,
    run_experiment,
)

__version__ = PACKAGE_VERSION

__all__ = [
    "PACKAGE_VERSION",
    "__version__",
    "BudgetError",
    "ConfigError",
    "NumericError",
    "SystemConfig",
    "TrainingSchedule",
    "EnvOptions",
    "RateOptions",
    "load_config_file",
    "substream",
    "CellLayout",
    "UserDrop",
    "AoAInterval",
    "ScenarioBundle",
    "build_layout",
    "in_hexagon",
    "drop_users",
    "large_scale",
    "aoa_interval",
    "fresh_world",
    "steering",
    "covariance",
    "CostTable",
    "dirichlet_magnitude",
    "interference_integral",
    "cosine_support",
    "kernel_zeros",
    "pair_cost",
    "pairwise_cost_matrix",
    "total_costs",
    "extended_user_costs",
    "PilotAssignment",
    "OverheadReport",
    "random_assignment",
    "apply_swap",
    "exhaustive_search",
    "spr_like_assignment",
    "baseline_assignment",
    "RewardThresholds",
    "PilotEnv",
    "WorldStream",
    "calibrate_thresholds",
    "encode_state",
    "reward_components",
    "make_env",
    "ReplayBuffer",
    "Learner",
    "init_params",
    "forward",
    "backward",
    "td_targets",
    "sync_target",
    "rmsprop_step",
    "epsilon",
    "act",
    "train",
    "RateReport",
    "min_rate",
    "moving_average",
    "ExperimentPreset",
    "presets",
    "run_experiment",
]
