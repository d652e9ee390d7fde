"""Closed-form capacity expressions from the paper.

Each function implements one numbered equation of Wang & Lee, in bits.
The theorem-level API with documented hypotheses lives in
:mod:`repro.core.theorems`; this module holds the raw formulas so they
can be swept, differentiated, and cross-checked numerically.

Notation: ``N`` = bits per symbol, ``P_d`` = deletion probability,
``P_i`` = insertion probability, ``H`` = binary entropy (eq. 5),
``alpha = (2^N - 1)/2^N`` (eq. 4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..infotheory.channels import (
    converted_channel_capacity,
    m_ary_erasure_capacity,
)
from ..infotheory.entropy import binary_entropy

__all__ = [
    "alpha",
    "erasure_upper_bound",
    "erasure_bound_profile",
    "converted_capacity",
    "converted_insertion_fraction",
    "feedback_lower_bound",
    "feedback_lower_bound_exact",
    "feedback_time_coefficient",
    "deletion_feedback_capacity",
    "convergence_ratio",
    "convergence_ratio_limit",
]


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("bits_per_symbol must be >= 1")


def alpha(bits_per_symbol: int) -> float:
    """Eq. (4): ``alpha = (2^N - 1) / 2^N``.

    The probability that a uniformly random inserted symbol differs from
    the message symbol it displaces; tends to 1 as ``N`` grows.
    """
    _check_n(bits_per_symbol)
    m = 2**bits_per_symbol
    return (m - 1) / m


def erasure_upper_bound(bits_per_symbol: int, deletion_prob: float) -> float:
    """Eq. (1) / Theorems 1 & 4: ``C_max = N (1 - P_d)`` bits per use.

    The capacity of the matched (extended) erasure channel, which
    upper-bounds the deletion-insertion channel with or without perfect
    feedback.
    """
    _check_n(bits_per_symbol)
    _check_prob("deletion_prob", deletion_prob)
    return m_ary_erasure_capacity(2**bits_per_symbol, deletion_prob)


def erasure_bound_profile(
    bits_per_symbol: int, deletion_probs: Sequence[float]
) -> np.ndarray:
    """Eq. (1) evaluated over a whole ``P_d`` grid at once.

    The vectorized companion of :func:`erasure_upper_bound` for sweep
    paths (E1 and the service's coarse rung): one validated pass over
    the grid instead of one call per point.
    """
    _check_n(bits_per_symbol)
    pds = np.asarray(deletion_probs, dtype=float)
    if pds.ndim != 1:
        raise ValueError("deletion_probs must be a 1-D sequence")
    if pds.size and (
        not np.all(np.isfinite(pds))
        or pds.min() < 0.0
        or pds.max() > 1.0
    ):
        raise ValueError("deletion_probs must all be in [0, 1]")
    return bits_per_symbol * (1.0 - pds)


def converted_capacity(bits_per_symbol: int, insertion_prob: float) -> float:
    """Eq. (3): capacity of the converted M-ary symmetric channel.

    ``C_conv = N - alpha P_i log2(2^N - 1) - H(alpha P_i)``.
    """
    _check_n(bits_per_symbol)
    _check_prob("insertion_prob", insertion_prob)
    return converted_channel_capacity(bits_per_symbol, insertion_prob)


def feedback_time_coefficient(deletion_prob: float, insertion_prob: float) -> float:
    """The time-base coefficient ``(1 - P_d) / (1 - P_i)`` of eq. (2).

    Insertions consume no sender time slot, so ``(1 - P_i) n`` sender
    slots process ``(1 - P_d) n`` message symbols.
    """
    _check_prob("deletion_prob", deletion_prob)
    _check_prob("insertion_prob", insertion_prob)
    if insertion_prob >= 1.0:
        raise ValueError("insertion_prob must be < 1")
    return (1.0 - deletion_prob) / (1.0 - insertion_prob)


def feedback_lower_bound(
    bits_per_symbol: int, deletion_prob: float, insertion_prob: float
) -> float:
    """Theorem 5 / eq. (2): achievable rate of the counter protocol.

    ``C_lower = ((1 - P_d)/(1 - P_i)) * C_conv`` bits per sender slot.
    """
    coeff = feedback_time_coefficient(deletion_prob, insertion_prob)
    return coeff * converted_capacity(bits_per_symbol, insertion_prob)


def converted_insertion_fraction(deletion_prob: float, insertion_prob: float) -> float:
    """Fraction of *received* symbols that are insertions under the
    counter protocol: ``P_i / (P_i + P_t) = P_i / (1 - P_d)``.

    Receiver-side positions are created only by insertion and
    transmission events, so this — not the raw per-use ``P_i`` — is the
    substitution rate the converted channel actually experiences. The
    paper's eq. (3) uses ``P_i`` directly, which coincides with this
    fraction when ``P_d = 0`` and approximates it for small ``P_d``; see
    :func:`feedback_lower_bound_exact` and EXPERIMENTS.md (E3).
    """
    _check_prob("deletion_prob", deletion_prob)
    _check_prob("insertion_prob", insertion_prob)
    if deletion_prob >= 1.0:
        raise ValueError("deletion_prob must be < 1")
    if insertion_prob + deletion_prob > 1.0 + 1e-12:
        raise ValueError("P_d + P_i must not exceed 1")
    return insertion_prob / (1.0 - deletion_prob)


def feedback_lower_bound_exact(
    bits_per_symbol: int, deletion_prob: float, insertion_prob: float
) -> float:
    """Exact per-sender-slot rate of the Appendix-A counter protocol.

    ``((1 - P_d)/(1 - P_i)) * C_conv(alpha * P_i/(1 - P_d))`` — the same
    time-base coefficient as the paper's eq. (2), but with the converted
    channel evaluated at the substitution rate the receiver actually
    sees (:func:`converted_insertion_fraction`). Equal to
    :func:`feedback_lower_bound` when ``P_d = 0`` or ``P_i = 0``; never
    above it (C_conv is decreasing in its error argument), so it is also
    a valid — slightly tighter-to-simulation — lower bound.
    """
    coeff = feedback_time_coefficient(deletion_prob, insertion_prob)
    q = converted_insertion_fraction(deletion_prob, insertion_prob)
    return coeff * converted_capacity(bits_per_symbol, q)


def deletion_feedback_capacity(bits_per_symbol: int, deletion_prob: float) -> float:
    """Theorem 3: exact capacity of a deletion channel with feedback.

    Equals the erasure bound ``N (1 - p_d)`` — the resend-until-ack
    protocol achieves it, so the Theorem 2 upper bound is tight.
    """
    return erasure_upper_bound(bits_per_symbol, deletion_prob)


def convergence_ratio(bits_per_symbol: int, prob: float) -> float:
    """Eq. (7) ratio ``C_lower / C_upper`` at ``P_i = P_d = prob``.

    With ``P_i = P_d`` the time coefficient is 1 and the ratio reduces
    to ``C_conv(N, p) / (N (1 - p))``; it tends to 1 as ``N`` grows.
    """
    _check_n(bits_per_symbol)
    _check_prob("prob", prob)
    if prob >= 1.0:
        return 1.0
    upper = erasure_upper_bound(bits_per_symbol, prob)
    lower = feedback_lower_bound(bits_per_symbol, prob, prob)
    return lower / upper


def convergence_ratio_limit(bits_per_symbol: int, prob: float) -> float:
    """Eq. (6)-(7) large-N form: ``(N(1-p) - H(p)) / (N(1-p))``."""
    _check_n(bits_per_symbol)
    _check_prob("prob", prob)
    if prob >= 1.0:
        return 1.0
    n = bits_per_symbol
    return (n * (1.0 - prob) - float(binary_entropy(prob))) / (n * (1.0 - prob))
