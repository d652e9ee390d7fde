"""repro — reproduction of Wang & Lee, "Capacity Estimation of
Non-Synchronous Covert Channels" (ICDCS Workshops 2005).

Covert channels are inherently non-synchronous: depending on scheduling,
symbols can be silently dropped or spuriously inserted. This package
models such channels as deletion-insertion channels, implements the
paper's capacity bounds (Theorems 1-5), the synchronization protocols
that achieve them, the traditional (synchronous-model) estimators they
correct, coding schemes for the no-feedback case, and an OS scheduler
substrate reproducing the paper's motivating scenario.

Quickstart
----------
>>> from repro import ChannelParameters, CapacityEstimator
>>> params = ChannelParameters.from_rates(deletion=0.1, insertion=0.05)
>>> report = CapacityEstimator(bits_per_symbol=4).estimate(params)
>>> round(report.corrected_capacity, 2)
3.6
"""

from ._version import PACKAGE_VERSION
from .core import (
    THEOREMS,
    CapacityEstimator,
    CapacityReport,
    ChannelEvent,
    ChannelParameters,
    DeletionInsertionChannel,
    TransmissionRecord,
    capacity_bracket,
    converted_capacity,
    convergence_ratio,
    erasure_upper_bound,
    feedback_lower_bound,
    theorem1_upper_bound,
    theorem3_feedback_capacity,
    theorem5_feedback_lower_bound,
)
from .infotheory import (
    DiscreteMemorylessChannel,
    binary_entropy,
    blahut_arimoto,
    mutual_information,
)

# Single source of truth for the version: repro._version (a leaf module
# the store keys and checkpoint fingerprints also read).
__version__ = PACKAGE_VERSION

__all__ = [
    "THEOREMS",
    "CapacityEstimator",
    "CapacityReport",
    "ChannelEvent",
    "ChannelParameters",
    "DeletionInsertionChannel",
    "TransmissionRecord",
    "capacity_bracket",
    "converted_capacity",
    "convergence_ratio",
    "erasure_upper_bound",
    "feedback_lower_bound",
    "theorem1_upper_bound",
    "theorem3_feedback_capacity",
    "theorem5_feedback_lower_bound",
    "DiscreteMemorylessChannel",
    "binary_entropy",
    "blahut_arimoto",
    "mutual_information",
    "__version__",
]
