"""Synchronization mechanisms for non-synchronous covert channels.

Feedback protocols (Theorems 3 and 5), the Figure-1 two-variable
handshake, common-event-source synchronization (Figures 3-4), and a
measurement harness comparing achieved rates against the paper's bounds.
"""

from .common_event import (
    CommonEventConfig,
    CommonEventRun,
    common_event_rate,
    compare_with_feedback,
    induced_parameters,
    simulate_common_event_channel,
)
from .adaptive import AdaptiveCovertSession, run_adaptive_session
from .feedback import CounterProtocol, ResendProtocol
from .imperfect_feedback import (
    AlternatingBitProtocol,
    BlockAckProtocol,
    lossy_feedback_capacity,
)
from .harness import (
    ProtocolMeasurement,
    measure_protocol,
    substitution_error_capacity,
)
from .protocols import ProtocolRun, SynchronizationProtocol

__all__ = [
    "AdaptiveCovertSession",
    "run_adaptive_session",
    "CommonEventConfig",
    "CommonEventRun",
    "common_event_rate",
    "compare_with_feedback",
    "induced_parameters",
    "simulate_common_event_channel",
    "CounterProtocol",
    "ResendProtocol",
    "AlternatingBitProtocol",
    "BlockAckProtocol",
    "lossy_feedback_capacity",
    "ProtocolMeasurement",
    "measure_protocol",
    "substitution_error_capacity",
    "ProtocolRun",
    "SynchronizationProtocol",
]
