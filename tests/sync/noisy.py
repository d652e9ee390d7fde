"""Counter protocol over a noisy (substituting) data path.

Companion to :mod:`tests.core.noisy`: the same Appendix-A counter
protocol, but transmitted symbols may be corrupted (substitution
probability ``P_s``, uniform over the other symbols). Deletion/
insertion bookkeeping is unchanged — the counters never inspect symbol
*values* — so the protocol composes with noise for free, and the run's
empirical substitution rate matches
:func:`tests.core.noisy.noisy_converted_error_probability`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.events import ChannelEvent, ChannelParameters, sample_events
from repro.sync.protocols import ProtocolRun, SynchronizationProtocol

__all__ = ["NoisyCounterProtocol"]


class NoisyCounterProtocol(SynchronizationProtocol):
    """Appendix-A counter protocol tolerating substitution noise."""

    def __init__(
        self, params: ChannelParameters, *, bits_per_symbol: int = 1
    ) -> None:
        # Bypass the noiseless restriction of the base class: store the
        # parameters directly after validating the rest.
        if bits_per_symbol < 1:
            raise ValueError("bits_per_symbol must be >= 1")
        self.params = params
        self.bits_per_symbol = bits_per_symbol
        self.alphabet_size = 2**bits_per_symbol

    def run(
        self,
        message: np.ndarray,
        rng: np.random.Generator,
        *,
        max_uses: Optional[int] = None,
    ) -> ProtocolRun:
        msg = self._validate_message(message)
        p = self.params
        delivered = np.empty(msg.size, dtype=np.int64)
        pos = 0
        uses = 0
        sender_slots = 0
        deletions = insertions = transmissions = 0
        a = self.alphabet_size
        while pos < msg.size:
            if max_uses is not None and uses >= max_uses:
                break
            block = 2048 if max_uses is None else min(2048, max_uses - uses)
            events = sample_events(p, block, rng)
            inserted = rng.integers(0, a, size=block)
            offsets = (
                rng.integers(1, a, size=block)
                if a > 1
                else np.zeros(block, dtype=np.int64)
            )
            for k in range(block):
                if pos >= msg.size:
                    break
                ev = int(events[k])
                uses += 1
                if ev == ChannelEvent.DELETION:
                    deletions += 1
                    sender_slots += 1
                elif ev == ChannelEvent.INSERTION:
                    insertions += 1
                    delivered[pos] = inserted[k]
                    pos += 1
                elif ev == ChannelEvent.TRANSMISSION:
                    transmissions += 1
                    sender_slots += 1
                    delivered[pos] = msg[pos]
                    pos += 1
                else:  # SUBSTITUTION: delivered but corrupted
                    transmissions += 1
                    sender_slots += 1
                    delivered[pos] = (msg[pos] + offsets[k]) % a
                    pos += 1

        return ProtocolRun(
            message=msg,
            delivered=delivered[:pos].copy(),
            channel_uses=uses,
            sender_slots=sender_slots,
            deletions=deletions,
            insertions=insertions,
            transmissions=transmissions,
            bits_per_symbol=self.bits_per_symbol,
        )
