"""Core contribution of the paper: non-synchronous covert channels.

Deletion-insertion channel models (Definition 1 / Figure 2), the
matched erasure channels of Theorems 1 and 4, the closed-form capacity
bounds of Theorems 1-5, the two-step estimation recipe of Section 4.3,
and degradation analysis.
"""

from .capacity import (
    alpha,
    converted_capacity,
    converted_insertion_fraction,
    convergence_ratio,
    convergence_ratio_limit,
    deletion_feedback_capacity,
    erasure_bound_profile,
    erasure_upper_bound,
    feedback_lower_bound,
    feedback_lower_bound_exact,
    feedback_time_coefficient,
)
from .channels import ERASURE, DeletionInsertionChannel, TransmissionRecord
from .design import (
    WidthDesign,
    optimal_symbol_width,
    symbol_time,
    width_sweep,
)
from .degradation import (
    DegradationFit,
    degradation_series,
    fit_degradation,
    relative_degradation_lower,
    relative_degradation_upper,
)
from .estimation import CapacityEstimator, CapacityReport
from .events import (
    ChannelEvent,
    ChannelParameters,
    empirical_parameters,
    event_counts,
    sample_events,
)
from .theorems import (
    THEOREMS,
    TheoremStatement,
    capacity_bracket,
    theorem1_upper_bound,
    theorem2_feedback_upper_bound,
    theorem3_feedback_capacity,
    theorem4_feedback_upper_bound,
    theorem5_feedback_lower_bound,
)

__all__ = [
    "alpha",
    "converted_capacity",
    "converted_insertion_fraction",
    "convergence_ratio",
    "convergence_ratio_limit",
    "deletion_feedback_capacity",
    "erasure_bound_profile",
    "erasure_upper_bound",
    "feedback_lower_bound",
    "feedback_lower_bound_exact",
    "feedback_time_coefficient",
    "ERASURE",
    "DeletionInsertionChannel",
    "TransmissionRecord",
    "WidthDesign",
    "optimal_symbol_width",
    "symbol_time",
    "width_sweep",
    "DegradationFit",
    "degradation_series",
    "fit_degradation",
    "relative_degradation_lower",
    "relative_degradation_upper",
    "CapacityEstimator",
    "CapacityReport",
    "ChannelEvent",
    "ChannelParameters",
    "empirical_parameters",
    "event_counts",
    "sample_events",
    "THEOREMS",
    "TheoremStatement",
    "capacity_bracket",
    "theorem1_upper_bound",
    "theorem2_feedback_upper_bound",
    "theorem3_feedback_capacity",
    "theorem4_feedback_upper_bound",
    "theorem5_feedback_lower_bound",
]
