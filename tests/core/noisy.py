"""Extension: feedback bounds with a *noisy* data path.

The paper's synchronization analysis assumes the data channel is
noiseless ("To focus on the synchronization problem, we assume that the
channel is noiseless", §4.2). This module removes that assumption: when
transmitted symbols additionally suffer substitutions with probability
``P_s`` (uniform over the other ``2^N - 1`` symbols), the counter
protocol still converts the channel into an M-ary *symmetric* DMC —
a received position is either

* an insertion (probability ``q = P_i / (1 - P_d)`` among received
  positions), uniform over the whole alphabet, or
* a transmission, correct with probability ``1 - P_s``.

giving total error probability ``e = q (M-1)/M + (1 - q) P_s`` and the
same time coefficient ``(1 - P_d)/(1 - P_i)`` as Theorem 5. Setting
``P_s = 0`` recovers :func:`repro.core.capacity.feedback_lower_bound_exact`
exactly. No experiment runs this extension; it lives here with its
tests.
"""

from __future__ import annotations

from repro.core.capacity import (
    _check_n,  # type: ignore[attr-defined]
    _check_prob,  # type: ignore[attr-defined]
    converted_insertion_fraction,
    feedback_time_coefficient,
)
from repro.infotheory.channels import m_ary_symmetric_capacity

__all__ = [
    "noisy_converted_error_probability",
    "noisy_converted_capacity",
    "noisy_feedback_lower_bound",
]


def noisy_converted_error_probability(
    bits_per_symbol: int,
    deletion_prob: float,
    insertion_prob: float,
    substitution_prob: float,
) -> float:
    """Total symbol-error probability of the noisy converted channel.

    ``e = q (M-1)/M + (1 - q) P_s`` with ``q = P_i/(1 - P_d)`` and
    ``M = 2^N``.
    """
    _check_n(bits_per_symbol)
    _check_prob("substitution_prob", substitution_prob)
    q = converted_insertion_fraction(deletion_prob, insertion_prob)
    m = 2**bits_per_symbol
    return q * (m - 1) / m + (1.0 - q) * substitution_prob


def noisy_converted_capacity(
    bits_per_symbol: int,
    deletion_prob: float,
    insertion_prob: float,
    substitution_prob: float,
) -> float:
    """Capacity of the noisy converted channel, bits per received
    symbol: the M-ary symmetric formula at the combined error rate."""
    e = noisy_converted_error_probability(
        bits_per_symbol, deletion_prob, insertion_prob, substitution_prob
    )
    return m_ary_symmetric_capacity(2**bits_per_symbol, e)


def noisy_feedback_lower_bound(
    bits_per_symbol: int,
    deletion_prob: float,
    insertion_prob: float,
    substitution_prob: float,
) -> float:
    """Achievable rate of the counter protocol over a noisy channel,
    bits per sender slot:

    ``((1 - P_d)/(1 - P_i)) * C_conv_noisy``.

    Reduces to the exact Theorem-5 rate at ``P_s = 0``; at
    ``P_d = P_i = 0`` it is the plain M-ary symmetric capacity at
    ``P_s`` (no synchronization loss, only noise).
    """
    coeff = feedback_time_coefficient(deletion_prob, insertion_prob)
    return coeff * noisy_converted_capacity(
        bits_per_symbol, deletion_prob, insertion_prob, substitution_prob
    )
