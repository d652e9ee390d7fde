"""A closed form with no caller in the package, kept for its test."""

from __future__ import annotations

import numpy as np

from repro.sync.imperfect_feedback import lossy_feedback_capacity


def block_ack_rate(
    bits_per_symbol: int,
    deletion_prob: float,
    ack_loss_prob: float,
    block_size: int,
) -> float:
    """Expected rate of :class:`BlockAckProtocol`, bits per channel use.

    Per round the sender transmits its ``B``-symbol window once
    (``B`` uses); each symbol survives independently with probability
    ``1 - p_d``; a single cumulative acknowledgment then survives with
    probability ``1 - q``, and on ack loss the *whole* round's progress
    is retransmitted (the sender cannot tell what arrived). The renewal
    rate is therefore

        R = N (1 - p_d) (1 - q)' ... exactly:
        R = N * B (1 - p_d) (1 - q) / B = N (1 - p_d) (1 - q)

    for the naive full-retransmit variant — no gain. The implemented
    protocol instead repeats the *ack* ``r`` times per round (acks are
    tiny; repeating them costs no forward channel uses), so the
    effective ack loss is ``q**r`` and

        R(B, r) = N (1 - p_d) (1 - q**r).

    With ``r`` chosen ~ ``log B`` the penalty vanishes — quantifying
    that the paper's perfect-feedback assumption is an engineering
    limit, not a physical requirement. ``block_size`` sets ``r``:
    ``r = 1 + floor(log2(block_size))``.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    base = lossy_feedback_capacity(bits_per_symbol, deletion_prob, 0.0)
    repeats = 1 + int(np.floor(np.log2(block_size)))
    return base * (1.0 - ack_loss_prob**repeats)
