"""Configuration of a covert *timing* channel on the uniprocessor substrate.

The storage channel of §3.1 modulates a value; a timing channel
modulates *when* things happen: the sender encodes each symbol as the
number of consecutive quanta it holds the CPU before yielding, and the
receiver recovers the symbol by counting the gap between its own runs.
With probability ``preempt_prob`` per quantum an unrelated process
steals a quantum, stretching the observed gap and corrupting the symbol
(the timing analog of a substitution). The channel itself is sampled by
:class:`repro.estimation.SchedulerTimingSampler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..infotheory.probability import validate_probability

__all__ = ["TimingChannelConfig"]


@dataclass(frozen=True)
class TimingChannelConfig:
    """Configuration of the burst-length timing channel.

    Attributes
    ----------
    durations:
        Burst lengths (in quanta) encoding symbols ``0..k-1``; must be
        strictly increasing positive integers.
    preempt_prob:
        Per-quantum probability that background load inserts an extra
        quantum into the observed gap.
    """

    durations: tuple
    preempt_prob: float = 0.0

    def __init__(self, durations: Sequence[int], preempt_prob: float = 0.0):
        d = tuple(int(x) for x in durations)
        if not d or any(x < 1 for x in d):
            raise ValueError("durations must be positive integers")
        if list(d) != sorted(set(d)):
            raise ValueError("durations must be strictly increasing")
        object.__setattr__(self, "durations", d)
        object.__setattr__(self, "preempt_prob", preempt_prob)
        self.__post_init__()

    def __post_init__(self) -> None:
        # Called explicitly: a hand-written __init__ bypasses the
        # dataclass-generated call.
        if validate_probability(self.preempt_prob, "preempt_prob") >= 1.0:
            raise ValueError("preempt_prob must be in [0, 1)")
