"""Network substrate: a packet-timing covert channel whose loss,
duplication, and jitter manufacture the paper's deletion/insertion/
substitution events in a distributed setting (experiment E13).

Note on ground truth: deletion and insertion labels are exact (derived
from per-packet fates); substitution labels are positional and become
approximate once deletions/duplicates shift the alignment, so `P_s`
should be read from jitter-only configurations.
"""

from .packet_channel import (
    FlowRecord,
    PacketFlowConfig,
    measured_parameters,
    transmit_flow,
)

__all__ = [
    "FlowRecord",
    "PacketFlowConfig",
    "measured_parameters",
    "transmit_flow",
]
