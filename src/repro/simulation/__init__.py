"""Monte-Carlo simulation framework: seeded RNG streams, statistics,
empirical mutual information, and an experiment runner."""

from .mutual_information import (
    joint_histogram,
    miller_madow_correction,
    per_position_mutual_information,
    plugin_mutual_information,
)
from .pool import (
    PoolExhaustedError,
    PoolTaskError,
    SupervisedPool,
    WorkerCrashedError,
    WorkerHungError,
)
from .rng import RngFactory, make_rng
from .runner import (
    ExperimentRunner,
    ReplicationFailure,
    RunResult,
    TrialSummary,
    sweep_checkpoint_label,
)
from .stats import ConfidenceInterval, mean_confidence_interval

__all__ = [
    "joint_histogram",
    "miller_madow_correction",
    "per_position_mutual_information",
    "plugin_mutual_information",
    "PoolTaskError",
    "WorkerCrashedError",
    "WorkerHungError",
    "PoolExhaustedError",
    "SupervisedPool",
    "RngFactory",
    "make_rng",
    "ExperimentRunner",
    "ReplicationFailure",
    "RunResult",
    "TrialSummary",
    "sweep_checkpoint_label",
    "ConfidenceInterval",
    "mean_confidence_interval",
]
