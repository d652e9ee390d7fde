"""Synchronization with an *imperfect* feedback path.

The paper's Theorems 2-5 assume the feedback path is perfect — "this
simplifies the analysis, and is also a requirement for deriving the
maximum information rate" (§4.2). This module quantifies what that
assumption is worth: the classic **alternating-bit protocol** run over
a forward deletion channel whose *acknowledgments are also lost*, with
probability ``q`` each.

With lossy acks the sender sometimes resends a symbol the receiver
already has; the alternating (sequence) bit lets the receiver discard
the duplicates, so delivery stays reliable — but every duplicate burns
a sender slot. The achieved rate has a clean closed form:

    per delivered symbol the expected number of forward uses is the
    expected number of (transmission attempt) trials until a round
    succeeds *and* its ack survives, i.e. 1 / ((1 - p_d)(1 - q))
    forward uses for the last successful round, plus the duplicate
    resends caused by lost acks of *successful* rounds...

Summing the geometric rounds exactly:

    R(p_d, q) = N * (1 - p_d) * (1 - q)     bits per channel use,

because each channel use is an independent trial that concludes a
symbol's delivery-and-acknowledgment with probability
``(1 - p_d)(1 - q)``. Setting ``q = 0`` recovers Theorem 3 exactly, so
the feedback imperfection enters as a *multiplicative* ``(1 - q)``
penalty — the ablation reported in experiment E10.
"""

from __future__ import annotations

import numpy as np

from ..core.events import ChannelParameters
from ..infotheory.probability import is_zero
from .protocols import ProtocolRun, SynchronizationProtocol

__all__ = [
    "AlternatingBitProtocol",
    "lossy_feedback_capacity",
    "BlockAckProtocol",
]


def lossy_feedback_capacity(
    bits_per_symbol: int, deletion_prob: float, ack_loss_prob: float
) -> float:
    """Closed-form rate of the alternating-bit protocol, bits per use.

    ``N (1 - p_d)(1 - q)`` — the Theorem-3 capacity scaled by the ack
    survival probability. A *lower* bound on the lossy-feedback channel
    capacity (smarter block-ack schemes can amortize the ack loss), and
    exactly what :class:`AlternatingBitProtocol` achieves.
    """
    if bits_per_symbol < 1:
        raise ValueError("bits_per_symbol must be >= 1")
    if not 0.0 <= deletion_prob <= 1.0:
        raise ValueError("deletion_prob must be in [0, 1]")
    if not 0.0 <= ack_loss_prob <= 1.0:
        raise ValueError("ack_loss_prob must be in [0, 1]")
    return bits_per_symbol * (1.0 - deletion_prob) * (1.0 - ack_loss_prob)


class AlternatingBitProtocol(SynchronizationProtocol):
    """Resend-until-acknowledged with lossy acknowledgments.

    Per channel use the sender transmits the current symbol tagged with
    its alternating bit; the symbol survives the forward channel with
    probability ``1 - p_d``; if delivered, the receiver acks, and the
    ack survives the feedback path with probability ``1 - q``. The
    sender advances only on a received ack; duplicates (delivered but
    un-acked) are discarded by the receiver via the alternating bit.

    Parameters
    ----------
    params:
        Forward channel parameters; must have ``P_i = 0`` (insertions
        would need the counter protocol's skip logic — see
        :class:`repro.sync.feedback.CounterProtocol`).
    ack_loss_prob:
        Probability an acknowledgment is lost on the feedback path.
    """

    def __init__(
        self,
        params: ChannelParameters,
        *,
        bits_per_symbol: int = 1,
        ack_loss_prob: float = 0.0,
    ) -> None:
        if not is_zero(params.insertion):
            raise ValueError(
                "AlternatingBitProtocol handles deletion channels only"
            )
        if not 0.0 <= ack_loss_prob < 1.0:
            raise ValueError("ack_loss_prob must be in [0, 1)")
        super().__init__(params, bits_per_symbol=bits_per_symbol)
        self.ack_loss_prob = ack_loss_prob

    def run(self, message: np.ndarray, rng: np.random.Generator) -> ProtocolRun:
        msg = self._validate_message(message)
        p_d = self.params.deletion
        q = self.ack_loss_prob
        success = (1.0 - p_d) * (1.0 - q)
        uses = 0
        delivered_count = 0
        deletions = 0
        duplicates = 0
        remaining = msg.size
        while remaining > 0:
            # Per-symbol round count: geometric in the joint success.
            batch = min(remaining, 4096)
            rounds = rng.geometric(success, size=batch)
            for r in rounds:
                r = int(r)
                uses += r
                # Of the r - 1 failed rounds, each failed by deletion
                # w.p. p_d / (1 - success') ... classify for the record:
                # failure = deletion OR (delivered AND ack lost).
                fail_del = 0
                if r > 1:
                    p_fail_del = p_d / (p_d + (1 - p_d) * q) if (p_d + (1 - p_d) * q) > 0 else 0.0
                    fail_del = int(rng.binomial(r - 1, p_fail_del))
                deletions += fail_del
                duplicates += (r - 1) - fail_del
                delivered_count += 1
                remaining -= 1

        delivered = msg[:delivered_count].copy()
        return ProtocolRun(
            message=msg,
            delivered=delivered,
            channel_uses=uses,
            sender_slots=uses,
            deletions=deletions,
            insertions=0,
            # Duplicates physically arrive but carry no new information;
            # they are counted as transmissions in the event ledger.
            transmissions=delivered_count + duplicates,
            bits_per_symbol=self.bits_per_symbol,
        )


class BlockAckProtocol(SynchronizationProtocol):
    """Selective-repeat window protocol with repeated cumulative acks.

    Each round the sender transmits every not-yet-acknowledged symbol
    in its ``block_size`` window (one channel use each); the receiver
    returns a cumulative bitmap acknowledgment, repeated
    ``1 + floor(log2(block_size))`` times on the (cheap) feedback path
    so the round's feedback is lost only with probability ``q**r``.
    Lost acks cost a full re-round of the still-pending symbols.

    As ``block_size`` grows the achieved rate approaches the Theorem-3
    capacity ``N (1 - p_d)`` even over a lossy feedback path — the
    amortization result experiment E10 contrasts with the
    alternating-bit protocol's unamortized ``(1 - q)`` penalty.
    """

    def __init__(
        self,
        params: ChannelParameters,
        *,
        bits_per_symbol: int = 1,
        ack_loss_prob: float = 0.0,
        block_size: int = 16,
    ) -> None:
        if not is_zero(params.insertion):
            raise ValueError("BlockAckProtocol handles deletion channels only")
        if not 0.0 <= ack_loss_prob < 1.0:
            raise ValueError("ack_loss_prob must be in [0, 1)")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        super().__init__(params, bits_per_symbol=bits_per_symbol)
        self.ack_loss_prob = ack_loss_prob
        self.block_size = block_size
        self.ack_repeats = 1 + int(np.floor(np.log2(block_size)))

    def run(self, message: np.ndarray, rng: np.random.Generator) -> ProtocolRun:
        msg = self._validate_message(message)
        p_d = self.params.deletion
        q_round = self.ack_loss_prob**self.ack_repeats
        uses = 0
        deletions = 0
        transmissions = 0
        delivered_count = 0
        pos = 0
        while pos < msg.size:
            window = min(self.block_size, msg.size - pos)
            pending = np.ones(window, dtype=bool)
            # Receiver-side knowledge accumulates across rounds even if
            # acks are lost (the data arrived; only the sender is
            # uncertain). Rounds repeat until the sender *knows* all
            # arrived.
            received_mask = np.zeros(window, dtype=bool)
            while pending.any():
                n_pending = int(pending.sum())
                uses += n_pending
                survived = rng.random(n_pending) >= p_d
                deletions += n_pending - int(survived.sum())
                transmissions += int(survived.sum())
                idx = np.nonzero(pending)[0]
                received_mask[idx[survived]] = True
                # Cumulative ack round (repeated on the feedback path).
                if rng.random() >= q_round:
                    pending = ~received_mask
            delivered_count += window
            pos += window

        delivered = msg[:delivered_count].copy()
        return ProtocolRun(
            message=msg,
            delivered=delivered,
            channel_uses=uses,
            sender_slots=uses,
            deletions=deletions,
            insertions=0,
            transmissions=transmissions,
            bits_per_symbol=self.bits_per_symbol,
        )
