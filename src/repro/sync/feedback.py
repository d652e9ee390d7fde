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

**Fault hardening.** Both protocols also survive the fault regimes of
:mod:`repro.faults`: when a fault injector is active
(:func:`repro.core.events.active_fault_injector`), :class:`ResendProtocol`
switches to an event-driven sender with a timeout/retry/backoff
:class:`~repro.sync.protocols.RetryPolicy`, and :class:`CounterProtocol`
runs periodic *resynchronization epochs* that detect and repair counter
desync instead of silently producing misaligned output. Without an
injector the original perfect-feedback semantics — and the exact RNG
consumption — are preserved bit-for-bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.events import (
    ChannelEvent,
    ChannelParameters,
    active_fault_injector,
    sample_events,
)
from ..infotheory.probability import is_zero
from .protocols import ProtocolRun, RetryPolicy, SynchronizationProtocol

__all__ = ["ResendProtocol", "CounterProtocol"]

#: Channel uses between the counter protocol's resynchronization
#: epochs while desync faults are active.
RESYNC_INTERVAL = 512

#: Sender slots one epoch costs (the repeated counter exchange).
RESYNC_COST_SLOTS = 4


class _BufferedEventSource:
    """Pull events one at a time, drawing through ``sample_events`` in
    blocks so fault hooks see the same block-structured access pattern
    as the unhardened protocols."""

    def __init__(self, params: ChannelParameters, rng: np.random.Generator) -> None:
        self._params = params
        self._rng = rng
        self._buf = np.empty(0, dtype=np.int64)
        self._next = 0

    def next_event(self) -> int:
        if self._next >= self._buf.shape[0]:
            self._buf = sample_events(self._params, 256, self._rng)
            self._next = 0
        ev = int(self._buf[self._next])
        self._next += 1
        return ev


class ResendProtocol(SynchronizationProtocol):
    """Resend-until-acknowledged over a deletion channel (Theorem 3).

    Requires ``P_i = 0``: with no insertions the receiver's count can
    never lead the sender's, so acknowledgments alone suffice. Every
    channel use consumes a sender slot; a fraction ``1 - p_d`` of the
    uses deliver a fresh symbol, so the achieved rate converges to
    ``N (1 - p_d)`` bits per use — the erasure capacity of eq. (1).
    """

    def __init__(
        self,
        params: ChannelParameters,
        *,
        bits_per_symbol: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if not is_zero(params.insertion):
            raise ValueError(
                "ResendProtocol handles deletions only; use CounterProtocol "
                "for channels with insertions"
            )
        super().__init__(params, bits_per_symbol=bits_per_symbol)
        self.retry_policy = retry_policy

    def run(self, message: np.ndarray, rng: np.random.Generator) -> ProtocolRun:
        msg = self._validate_message(message)
        injector = active_fault_injector()
        if injector is not None or self.retry_policy is not None:
            return self._run_event_driven(msg, rng, injector)
        p_d = self.params.deletion
        if p_d >= 1.0 and msg.size:
            raise ValueError("deletion probability 1 never delivers")
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

    def _run_event_driven(
        self,
        msg: np.ndarray,
        rng: np.random.Generator,
        injector,
    ) -> ProtocolRun:
        """Fault-tolerant sender: per-event simulation with timeouts.

        Used whenever a fault injector is active or a
        :class:`RetryPolicy` was supplied. Each send is one channel use;
        after a send whose acknowledgment does not come back intact the
        sender waits out a (backed-off) timeout and retries, abandoning
        the symbol once ``max_retries`` is exhausted — the receiver
        then holds only a guess for that position, which is exactly an
        erasure turned substitution. Spurious arrivals injected by the
        fault model carry no valid sequence tag and are discarded by
        the receiver (a channel use, but no sender slot).
        """
        from ..faults.models import AckOutcome  # deferred: avoids cycle

        policy = self.retry_policy or RetryPolicy()
        source = _BufferedEventSource(self.params, rng)
        delivered = np.empty(msg.size, dtype=np.int64)
        pos = 0
        uses = 0
        deletions = insertions = transmissions = 0
        duplicates = abandoned = retries = 0
        waited_slots = 0

        while pos < msg.size:
            failures = 0
            while True:
                ev = source.next_event()
                uses += 1
                if ev == ChannelEvent.INSERTION:
                    # Spurious symbol: receiver discards it; the sender's
                    # attempt is still pending, so this use costs nothing
                    # but channel time.
                    insertions += 1
                    continue
                if ev == ChannelEvent.DELETION:
                    deletions += 1
                    outcome = None  # nothing arrived, nothing to ack
                else:  # TRANSMISSION / SUBSTITUTION both deliver a copy
                    transmissions += 1
                    outcome = (
                        injector.ack_outcome()
                        if injector is not None
                        else AckOutcome.DELIVERED
                    )
                    if outcome == AckOutcome.DELIVERED:
                        delivered[pos] = msg[pos]
                        pos += 1
                        break
                    if outcome == AckOutcome.DELAYED:
                        # The ack arrives after the timeout: the sender
                        # has already launched one duplicate by then,
                        # which the receiver discards.
                        waited_slots += policy.timeout_after(failures)
                        dup = source.next_event()
                        uses += 1
                        if dup == ChannelEvent.DELETION:
                            deletions += 1
                        elif dup == ChannelEvent.INSERTION:
                            insertions += 1
                        else:
                            transmissions += 1
                            duplicates += 1
                        delivered[pos] = msg[pos]
                        pos += 1
                        break
                    # LOST or CORRUPTED: delivered but unacknowledged —
                    # the resend below is a duplicate the receiver will
                    # discard via its sequence tag.
                    duplicates += 1
                # Attempt failed (deletion, or ack lost/corrupted).
                waited_slots += policy.timeout_after(failures)
                failures += 1
                retries += 1
                if policy.max_retries is not None and failures > policy.max_retries:
                    # Give up: signal a skip with the next symbol's
                    # sequence tag; the receiver records its best guess.
                    delivered[pos] = (
                        injector.abandon_guess(self.alphabet_size)
                        if injector is not None
                        else int(rng.integers(0, self.alphabet_size))
                    )
                    pos += 1
                    abandoned += 1
                    break

        fault_counts = {
            "retries": retries,
            "duplicates": duplicates,
            "symbols_abandoned": abandoned,
            "timeout_slots_waited": waited_slots,
        }
        if injector is not None:
            fault_counts.update(injector.log.snapshot())
        return ProtocolRun(
            message=msg,
            delivered=delivered[:pos].copy(),
            channel_uses=uses,
            sender_slots=uses - insertions,
            deletions=deletions,
            insertions=insertions,
            transmissions=transmissions,
            bits_per_symbol=self.bits_per_symbol,
            degraded=abandoned > 0,
            fault_counts=fault_counts,
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
        desync_active = (
            injector is not None and injector.feedback.desync_prob > 0.0
        )

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
                            if injector is not None:
                                injector.log.record("desyncs_recovered")
                        if injector is not None:
                            injector.log.record("resync_epochs")

        fault_counts = {}
        if desync_active:
            fault_counts = {
                "resync_epochs": resync_epochs,
                "desyncs_recovered": desyncs_recovered,
                "misaligned_deliveries": misaligned,
            }
            if injector is not None:
                fault_counts.setdefault(
                    "desyncs_injected", injector.log.get("desyncs_injected")
                )
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
