"""Feedback-based synchronization protocols (paper Section 4.2.1).

Two constructive protocols, both assuming a *perfect* feedback path from
receiver to sender (Figure 3a):

* :class:`ResendProtocol` — Theorem 3. The receiver acknowledges each
  symbol; the sender resends until acknowledged. Over a deletion channel
  this removes all drop-outs and achieves the erasure capacity
  ``N (1 - p_d)`` exactly.
* :class:`CounterProtocol` — Theorem 5 / Appendix A. Both sides keep
  symbol counters. When the receiver's count lags, the sender waits
  (a deletion happened); when it leads, the sender *skips* as many
  message symbols as were inserted, so message positions stay aligned
  and the channel is converted into a synchronous M-ary symmetric DMC
  (Figure 5) whose errors are exactly the inserted symbols.

Both protocols are event-driven simulations of Definition 1: each
channel use is a deletion, insertion, or transmission, and the perfect
feedback assumption means the sender knows the receiver's counter before
every sender slot.

**Desync hardening.** When a fault injector with a counter-desync rate
is active (:func:`repro.core.events.active_fault_injector`),
:class:`CounterProtocol` runs periodic *resynchronization epochs* that
detect and repair counter desync instead of silently producing
misaligned output. Without one, the original perfect-feedback
semantics, and the exact RNG consumption, are preserved bit for bit.
:class:`ResendProtocol` draws its geometric delivery times directly,
so a fault injector's event model does not reach it.
"""

from __future__ import annotations

import numpy as np

from ..core.events import (
    ChannelEvent,
    ChannelParameters,
    active_fault_injector,
    sample_events,
)
from ..infotheory.probability import is_zero
from .protocols import ProtocolRun, SynchronizationProtocol

__all__ = ["ResendProtocol", "CounterProtocol"]

#: Channel uses between the counter protocol's resynchronization
#: epochs while desync faults are active.
RESYNC_INTERVAL = 512

#: Sender slots one epoch costs (the repeated counter exchange).
RESYNC_COST_SLOTS = 4


class ResendProtocol(SynchronizationProtocol):
    """Resend-until-acknowledged over a deletion channel (Theorem 3).

    Requires ``P_i = 0``: with no insertions the receiver's count can
    never lead the sender's, so acknowledgments alone suffice. Every
    channel use consumes a sender slot; a fraction ``1 - p_d`` of the
    uses deliver a fresh symbol, so the achieved rate converges to
    ``N (1 - p_d)`` bits per use — the erasure capacity of eq. (1).
    """

    def __init__(self, params: ChannelParameters, *, bits_per_symbol: int = 1) -> None:
        if not is_zero(params.insertion):
            raise ValueError(
                "ResendProtocol handles deletions only; use CounterProtocol "
                "for channels with insertions"
            )
        super().__init__(params, bits_per_symbol=bits_per_symbol)

    def run(self, message: np.ndarray, rng: np.random.Generator) -> ProtocolRun:
        msg = self._validate_message(message)
        p_d = self.params.deletion
        uses = 0
        delivered_count = 0
        deletions = 0
        # Vectorized: for each message symbol the number of uses until
        # delivery is geometric with success probability 1 - p_d.
        remaining = msg.size
        while remaining > 0:
            attempts = rng.geometric(1.0 - p_d, size=min(remaining, 4096))
            spent = int(attempts.sum())
            uses += spent
            deletions += spent - attempts.size
            delivered_count += attempts.size
            remaining -= attempts.size

        delivered = msg[:delivered_count].copy()
        return ProtocolRun(
            message=msg,
            delivered=delivered,
            channel_uses=uses,
            sender_slots=uses,  # every use consumes sender time (no insertions)
            deletions=deletions,
            insertions=0,
            transmissions=delivered_count,
            bits_per_symbol=self.bits_per_symbol,
        )


class CounterProtocol(SynchronizationProtocol):
    """The Appendix-A counter protocol (Theorem 5).

    Event-by-event semantics:

    * **deletion** — the symbol the sender offered is lost. At its next
      slot the sender sees the receiver's counter lagging and resends;
      the use is a wasted sender slot.
    * **insertion** — the receiver reads a spurious, uniformly random
      symbol and counts it. The sender sees its counter lead and skips
      one message symbol, so the inserted symbol *replaces* the skipped
      one at the same message position. No sender slot is consumed.
    * **transmission** — the message symbol at the receiver's current
      position is delivered intact.

    The result is a synchronous stream ``delivered`` with
    ``delivered[k] = message[k]`` except at insertion positions, where
    it is uniform — the converted M-ary symmetric channel of Figure 5.

    **Desync hardening.** The alignment above silently assumes the two
    counters agree. Under the ``desync`` fault of :mod:`repro.faults`
    the receiver's counter drifts by ±1, after which the sender's
    wait/skip decisions are computed against a stale belief and every
    delivered symbol is *misaligned* — silently wrong output, the worst
    failure mode for a capacity measurement. The hardened protocol runs
    a **resynchronization epoch** every :data:`RESYNC_INTERVAL` channel
    uses while desync faults are active: both sides exchange their full
    counters over a robust (repeated) feedback round costing
    :data:`RESYNC_COST_SLOTS` sender slots, the sender adopts the
    receiver's count, and alignment is restored. Detection and recovery are accounted in
    ``fault_counts`` (``desyncs_injected``, ``desyncs_recovered``,
    ``resync_epochs``, ``misaligned_deliveries``) and flip the run's
    ``degraded`` flag. Without an active injector the original
    perfect-feedback behaviour is preserved exactly.
    """

    def run(self, message: np.ndarray, rng: np.random.Generator) -> ProtocolRun:
        msg = self._validate_message(message)
        p = self.params
        injector = active_fault_injector()
        desync_active = injector is not None and injector.desync_prob > 0.0

        delivered = np.empty(msg.size, dtype=np.int64)
        pos = 0  # next message position to be fixed at the receiver
        uses = 0
        sender_slots = 0
        deletions = 0
        insertions = 0
        transmissions = 0
        offset = 0  # sender's counter belief minus the receiver's truth
        since_resync = 0
        desyncs_recovered = 0
        resync_epochs = 0
        misaligned = 0
        while pos < msg.size:
            block = 2048
            events = sample_events(p, block, rng)
            inserted_syms = rng.integers(0, self.alphabet_size, size=block)
            for k in range(block):
                if pos >= msg.size:
                    break
                ev = int(events[k])
                uses += 1
                if desync_active:
                    offset += injector.desync()
                aligned = offset == 0
                if ev == ChannelEvent.DELETION:
                    deletions += 1
                    sender_slots += 1
                elif ev == ChannelEvent.INSERTION:
                    insertions += 1
                    delivered[pos] = inserted_syms[k]
                    pos += 1
                else:  # TRANSMISSION (substitutions excluded by base class)
                    transmissions += 1
                    sender_slots += 1
                    if aligned:
                        delivered[pos] = msg[pos]
                    else:
                        # The sender is reading from a stale position:
                        # the receiver stores a symbol from the wrong
                        # message index — silently wrong alignment.
                        src = min(max(pos + offset, 0), msg.size - 1)
                        delivered[pos] = msg[src]
                        misaligned += 1
                    pos += 1
                if desync_active:
                    since_resync += 1
                    if since_resync >= RESYNC_INTERVAL:
                        since_resync = 0
                        resync_epochs += 1
                        uses += RESYNC_COST_SLOTS
                        sender_slots += RESYNC_COST_SLOTS
                        if offset != 0:
                            offset = 0
                            desyncs_recovered += 1
                            injector.log.record("desyncs_recovered")
                        injector.log.record("resync_epochs")

        fault_counts = {}
        if desync_active:
            fault_counts = {
                "resync_epochs": resync_epochs,
                "desyncs_recovered": desyncs_recovered,
                "misaligned_deliveries": misaligned,
                "desyncs_injected": injector.log.get("desyncs_injected"),
            }
        return ProtocolRun(
            message=msg,
            delivered=delivered[:pos].copy(),
            channel_uses=uses,
            sender_slots=sender_slots,
            deletions=deletions,
            insertions=insertions,
            transmissions=transmissions,
            bits_per_symbol=self.bits_per_symbol,
            degraded=desyncs_recovered > 0 or misaligned > 0,
            fault_counts=fault_counts,
        )
