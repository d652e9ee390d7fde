"""Multilevel-security (MLS) model and the feedback-path exploit.

The paper's §4.3 observation: *"Since the legal information flow (from
low to high) can serve as a perfect feedback path, one may always
exploit it to achieve the channel capacity. In other words, covert
channels in MLS systems are relatively easy to exploit in general and
tend to be fast."*

This module provides a Bell-LaPadula-style flow policy, subjects with
clearance levels, and :func:`exploit_with_legal_feedback`, which wires
the *legal* low-to-high flow into the Theorem-5 counter protocol running
over the *covert* high-to-low channel — demonstrating end to end that
the covert channel reaches its feedback capacity using only
policy-compliant feedback.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..core.events import ChannelParameters
from ..sync.feedback import CounterProtocol
from ..sync.harness import ProtocolMeasurement, measure_protocol

__all__ = [
    "SecurityLevel",
    "Subject",
    "MLSPolicy",
    "exploit_with_legal_feedback",
]


class SecurityLevel(enum.IntEnum):
    """Totally ordered security levels (extendable)."""

    UNCLASSIFIED = 0
    CONFIDENTIAL = 1
    SECRET = 2
    TOP_SECRET = 3


@dataclass(frozen=True)
class Subject:
    """A subject (process/user) with a clearance level."""

    name: str
    level: SecurityLevel


class MLSPolicy:
    """Bell-LaPadula information-flow rules.

    Legal flows go *up* (low to high): a subject may write up and read
    down in the sense that information may move from a lower level to a
    higher one, never the reverse.
    """

    def allows_flow(self, source: SecurityLevel, target: SecurityLevel) -> bool:
        """Whether information may legally flow source -> target."""
        return source <= target

    def is_covert(self, source: SecurityLevel, target: SecurityLevel) -> bool:
        """A high-to-low flow is the covert direction."""
        return not self.allows_flow(source, target)

    def feedback_is_legal(
        self, sender: Subject, receiver: Subject
    ) -> bool:
        """For a covert channel sender -> receiver, feedback runs
        receiver -> sender; it is legal exactly when the covert channel
        leaks downward (receiver.level <= sender.level)."""
        return self.allows_flow(receiver.level, sender.level)


def exploit_with_legal_feedback(
    sender: Subject,
    receiver: Subject,
    params: ChannelParameters,
    rng: np.random.Generator,
    *,
    bits_per_symbol: int = 1,
    message_symbols: int = 50_000,
) -> ProtocolMeasurement:
    """Run the Theorem-5 counter protocol using the legal MLS feedback.

    Raises
    ------
    PermissionError
        If the channel direction is not covert (nothing to exploit) or
        the feedback direction would itself violate the policy (then a
        perfect feedback path is *not* freely available and the
        no-feedback analysis of Section 4.1 applies instead).
    """
    policy = MLSPolicy()
    if not policy.is_covert(sender.level, receiver.level):
        raise PermissionError(
            f"flow {sender.name} -> {receiver.name} is legal; "
            "no covert channel to exploit"
        )
    if not policy.feedback_is_legal(sender, receiver):
        raise PermissionError(
            "feedback direction would violate the MLS policy; "
            "perfect feedback is not available"
        )
    protocol = CounterProtocol(params, bits_per_symbol=bits_per_symbol)
    message = rng.integers(0, 2**bits_per_symbol, message_symbols)
    return measure_protocol(protocol, message, rng)
