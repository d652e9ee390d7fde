"""Standard discrete memoryless channels.

Factories for the channels used throughout the paper and its reference
chain: the binary symmetric channel, the (M-ary) erasure channel, the
Z-channel of Moskowitz et al., and the **M-ary symmetric channel** that
Wang & Lee's counter protocol converts a deletion-insertion channel into
(Appendix A, Figure 5).

Each factory returns a :class:`~repro.infotheory.dmc.DiscreteMemorylessChannel`
plus, where known, a closed-form capacity helper so the Blahut-Arimoto
solver can be validated against theory.
"""

from __future__ import annotations

import math

import numpy as np

from .dmc import DiscreteMemorylessChannel
from .entropy import binary_entropy
from .probability import is_zero

__all__ = [
    "binary_symmetric_channel",
    "binary_erasure_channel",
    "bec_capacity",
    "m_ary_erasure_channel",
    "m_ary_erasure_capacity",
    "z_channel",
    "z_channel_capacity",
    "m_ary_symmetric_channel",
    "m_ary_symmetric_capacity",
    "converted_channel_capacity",
]


def binary_symmetric_channel(p: float) -> DiscreteMemorylessChannel:
    """BSC with crossover probability *p*."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("crossover probability must be in [0, 1]")
    w = np.array([[1 - p, p], [p, 1 - p]])
    return DiscreteMemorylessChannel(w, input_labels=["0", "1"], output_labels=["0", "1"])


def binary_erasure_channel(epsilon: float) -> DiscreteMemorylessChannel:
    """BEC with erasure probability *epsilon*; output alphabet {0, 1, e}."""
    return m_ary_erasure_channel(2, epsilon)


def bec_capacity(epsilon: float) -> float:
    """Closed-form BEC capacity ``1 - epsilon`` bits/use."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("erasure probability must be in [0, 1]")
    return 1.0 - epsilon


def m_ary_erasure_channel(m: int, epsilon: float) -> DiscreteMemorylessChannel:
    """M-ary erasure channel: symbol survives w.p. ``1-epsilon`` else ``e``.

    This is the channel of Wang & Lee's Theorem 1: identical to a
    deletion channel except the receiver *knows where* symbols were
    dropped. Its capacity ``log2(M) (1 - epsilon)`` is the paper's
    upper bound ``N (1 - P_d)`` with ``M = 2^N``.
    """
    if m < 2:
        raise ValueError("alphabet size must be at least 2")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("erasure probability must be in [0, 1]")
    w = np.zeros((m, m + 1))
    for x in range(m):
        w[x, x] = 1.0 - epsilon
        w[x, m] = epsilon
    labels = [str(i) for i in range(m)]
    return DiscreteMemorylessChannel(
        w, input_labels=labels, output_labels=labels + ["e"]
    )


def m_ary_erasure_capacity(m: int, epsilon: float) -> float:
    """Closed-form M-ary erasure capacity ``log2(M)(1 - epsilon)``."""
    if m < 2:
        raise ValueError("alphabet size must be at least 2")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("erasure probability must be in [0, 1]")
    return math.log2(m) * (1.0 - epsilon)


def z_channel(p: float) -> DiscreteMemorylessChannel:
    """Z-channel: 0 is noiseless, 1 flips to 0 with probability *p*.

    The (untimed) version of the channel analyzed by Moskowitz,
    Greenwald & Kang (1996), one of the "traditional" covert-channel
    models the paper contrasts with.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("flip probability must be in [0, 1]")
    w = np.array([[1.0, 0.0], [p, 1.0 - p]])
    return DiscreteMemorylessChannel(w, input_labels=["0", "1"], output_labels=["0", "1"])


def z_channel_capacity(p: float) -> float:
    """Closed-form Z-channel capacity.

    ``C = log2(1 + (1-p) p^{p/(1-p)})`` for p in [0, 1).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("flip probability must be in [0, 1]")
    if p >= 1.0:
        return 0.0
    if is_zero(p):
        return 1.0
    return float(np.log2(1.0 + (1.0 - p) * p ** (p / (1.0 - p))))


def m_ary_symmetric_channel(m: int, error_prob: float) -> DiscreteMemorylessChannel:
    """M-ary symmetric channel with total error probability *error_prob*.

    ``P(y|x) = 1 - e`` for ``y = x`` and ``e / (M-1)`` for each of the
    ``M-1`` wrong symbols.
    """
    if m < 2:
        raise ValueError("alphabet size must be at least 2")
    if not 0.0 <= error_prob <= 1.0:
        raise ValueError("error probability must be in [0, 1]")
    w = np.full((m, m), error_prob / (m - 1))
    np.fill_diagonal(w, 1.0 - error_prob)
    return DiscreteMemorylessChannel(w)


def m_ary_symmetric_capacity(m: int, error_prob: float) -> float:
    """Closed-form M-ary symmetric capacity.

    ``C = log2(M) - H(e) - e log2(M - 1)`` bits/use — the form of
    Wang & Lee's eq. (3) with ``e = alpha * P_i``.
    """
    if m < 2:
        raise ValueError("alphabet size must be at least 2")
    if not 0.0 <= error_prob <= 1.0:
        raise ValueError("error probability must be in [0, 1]")
    e = error_prob
    log_m1 = math.log2(m - 1) if m > 2 else 0.0
    return float(math.log2(m) - binary_entropy(e) - e * log_m1)


def converted_channel_capacity(bits_per_symbol: int, insertion_prob: float) -> float:
    """Closed-form ``C_conv`` of Wang & Lee eq. (3).

    ``C_conv = N - alpha P_i log2(2^N - 1) - H(alpha P_i)`` with
    ``alpha = (2^N - 1)/2^N``.
    """
    n = bits_per_symbol
    if n < 1:
        raise ValueError("bits_per_symbol must be >= 1")
    if not 0.0 <= insertion_prob <= 1.0:
        raise ValueError("insertion probability must be in [0, 1]")
    m = 2**n
    alpha = (m - 1) / m
    return m_ary_symmetric_capacity(m, alpha * insertion_prob)
