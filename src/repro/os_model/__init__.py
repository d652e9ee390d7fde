"""Uniprocessor OS substrate: processes, schedulers, the §3.1 storage
covert channel, empirical parameter measurement, and the MLS
feedback-path exploit of §4.3."""

from .countermeasures import (
    TradeoffPoint,
    fuzzy_scheduler_tradeoff,
    scheduling_delay_stats,
)
from .detection import (
    DetectionReport,
    detect_covert_pair,
    interleaving_score,
    value_coupling_bits,
)
from .covert import (
    HandshakeReceiver,
    HandshakeSender,
    ObliviousReceiver,
    ObliviousSender,
)
from .kernel import KernelTrace, SharedRegister, UniprocessorKernel
from .measurement import (
    ChannelMeasurement,
    classify_trace,
    run_oblivious_channel,
)
from .mls import MLSPolicy, SecurityLevel, Subject, exploit_with_legal_feedback
from .process import IdleProcess, Process
from .timing_channel import TimingChannelConfig
from .scheduler import (
    FuzzyTimeScheduler,
    LotteryScheduler,
    MultilevelFeedbackScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    StrideScheduler,
)

__all__ = [
    "DetectionReport",
    "detect_covert_pair",
    "interleaving_score",
    "value_coupling_bits",
    "TradeoffPoint",
    "fuzzy_scheduler_tradeoff",
    "scheduling_delay_stats",
    "HandshakeReceiver",
    "HandshakeSender",
    "ObliviousReceiver",
    "ObliviousSender",
    "KernelTrace",
    "SharedRegister",
    "UniprocessorKernel",
    "ChannelMeasurement",
    "classify_trace",
    "run_oblivious_channel",
    "MLSPolicy",
    "SecurityLevel",
    "Subject",
    "exploit_with_legal_feedback",
    "IdleProcess",
    "Process",
    "TimingChannelConfig",
    "FuzzyTimeScheduler",
    "LotteryScheduler",
    "MultilevelFeedbackScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "StrideScheduler",
]
