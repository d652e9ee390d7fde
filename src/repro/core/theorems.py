"""The five theorems of Wang & Lee as documented, checkable objects.

Each theorem is exposed both as a plain function (returning the bound)
and through :class:`TheoremStatement` metadata used by the experiment
registry to label benchmark output with the exact paper anchor it
reproduces.

Summary
-------
* Theorem 1 — deletion-insertion capacity <= matched erasure capacity
  ``N (1 - P_d)``.
* Theorem 2 — deletion channel + perfect feedback <= erasure capacity.
* Theorem 3 — that bound is achieved (resend protocol), hence exact.
* Theorem 4 — deletion-insertion + perfect feedback <= extended-erasure
  capacity ``N (1 - P_d)``.
* Theorem 5 — counter protocol achieves
  ``((1-P_d)/(1-P_i)) C_conv`` (lower bound), converging to the
  Theorem 4 bound as ``N -> inf`` when ``P_i = P_d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .capacity import (
    deletion_feedback_capacity,
    erasure_upper_bound,
    feedback_lower_bound,
)

__all__ = [
    "TheoremStatement",
    "THEOREMS",
    "theorem1_upper_bound",
    "theorem2_feedback_upper_bound",
    "theorem3_feedback_capacity",
    "theorem4_feedback_upper_bound",
    "theorem5_feedback_lower_bound",
    "capacity_bracket",
]


@dataclass(frozen=True)
class TheoremStatement:
    """Machine-readable record of a paper theorem."""

    number: int
    title: str
    statement: str
    bound: Callable[..., float]

    def __call__(self, *args: float, **kwargs: float) -> float:
        return self.bound(*args, **kwargs)


def theorem1_upper_bound(bits_per_symbol: int, deletion_prob: float) -> float:
    """Theorem 1: ``C <= N (1 - P_d)`` for any deletion-insertion channel.

    The matched erasure channel sees the same drop-outs and insertions
    but knows their locations, so it can only have larger capacity; its
    capacity is the M-ary erasure formula (eq. 1).
    """
    return erasure_upper_bound(bits_per_symbol, deletion_prob)


def theorem2_feedback_upper_bound(bits_per_symbol: int, deletion_prob: float) -> float:
    """Theorem 2: feedback does not lift the deletion channel above the
    erasure capacity.

    Feedback cannot increase the capacity of a memoryless channel
    (Cover & Thomas), and the erasure channel dominates the deletion
    channel, so the bound is again ``N (1 - p_d)``.
    """
    return erasure_upper_bound(bits_per_symbol, deletion_prob)


def theorem3_feedback_capacity(bits_per_symbol: int, deletion_prob: float) -> float:
    """Theorem 3: the deletion channel with perfect feedback has capacity
    exactly ``N (1 - p_d)``.

    Achieved by the resend-until-acknowledged protocol implemented in
    :class:`repro.sync.feedback.ResendProtocol`.
    """
    return deletion_feedback_capacity(bits_per_symbol, deletion_prob)


def theorem4_feedback_upper_bound(
    bits_per_symbol: int, deletion_prob: float, insertion_prob: float = 0.0
) -> float:
    """Theorem 4: deletion-insertion channel with perfect feedback is
    upper-bounded by the *extended* erasure capacity ``N (1 - P_d)``.

    The insertion probability does not appear in the bound: in the
    extended erasure channel inserted symbols are located and discarded
    for free, so only deletions cost rate.
    """
    if not 0.0 <= insertion_prob <= 1.0:
        raise ValueError("insertion_prob must be in [0, 1]")
    return erasure_upper_bound(bits_per_symbol, deletion_prob)


def theorem5_feedback_lower_bound(
    bits_per_symbol: int, deletion_prob: float, insertion_prob: float
) -> float:
    """Theorem 5: the counter protocol achieves
    ``C_lower = ((1 - P_d)/(1 - P_i)) C_conv`` bits per sender slot.

    ``C_conv`` is the converted M-ary symmetric channel capacity of
    eq. (3); the protocol is implemented in
    :class:`repro.sync.feedback.CounterProtocol`.
    """
    return feedback_lower_bound(bits_per_symbol, deletion_prob, insertion_prob)


def capacity_bracket(
    bits_per_symbol: int, deletion_prob: float, insertion_prob: float
) -> Tuple[float, float]:
    """(lower, upper) capacity bracket for a noiseless deletion-insertion
    channel with perfect feedback (Theorems 4 and 5)."""
    lower = theorem5_feedback_lower_bound(
        bits_per_symbol, deletion_prob, insertion_prob
    )
    upper = theorem4_feedback_upper_bound(
        bits_per_symbol, deletion_prob, insertion_prob
    )
    return lower, upper


THEOREMS: Dict[int, TheoremStatement] = {
    1: TheoremStatement(
        number=1,
        title="Erasure upper bound",
        statement=(
            "An upper bound of the capacity of a deletion-insertion channel "
            "is the capacity of the matched erasure channel: "
            "C_max = N (1 - P_d)."
        ),
        bound=theorem1_upper_bound,
    ),
    2: TheoremStatement(
        number=2,
        title="Feedback upper bound (deletion channel)",
        statement=(
            "The capacity of a deletion channel with perfect feedback is "
            "upper-bounded by the erasure-channel capacity."
        ),
        bound=theorem2_feedback_upper_bound,
    ),
    3: TheoremStatement(
        number=3,
        title="Feedback capacity (deletion channel)",
        statement=(
            "The capacity of a deletion channel with perfect feedback equals "
            "the erasure-channel capacity N (1 - p_d); achieved by "
            "resend-until-acknowledged."
        ),
        bound=theorem3_feedback_capacity,
    ),
    4: TheoremStatement(
        number=4,
        title="Feedback upper bound (deletion-insertion channel)",
        statement=(
            "The capacity of a deletion-insertion channel with perfect "
            "feedback is upper-bounded by the extended-erasure capacity "
            "N (1 - P_d)."
        ),
        bound=theorem4_feedback_upper_bound,
    ),
    5: TheoremStatement(
        number=5,
        title="Feedback lower bound (counter protocol)",
        statement=(
            "A lower bound of the capacity of a deletion-insertion channel "
            "with perfect feedback is ((1 - P_d)/(1 - P_i)) * C_conv, with "
            "C_conv = N - alpha P_i log2(2^N - 1) - H(alpha P_i) and "
            "alpha = (2^N - 1)/2^N."
        ),
        bound=theorem5_feedback_lower_bound,
    ),
}
