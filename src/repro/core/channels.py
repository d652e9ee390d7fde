"""Non-synchronous channel simulator.

The deletion-insertion channel of Wang & Lee Definition 1 (Figure 2),
which also yields the matched erasure channel of Theorems 1 and 4 (same
drop-outs/insertions, but the receiver learns their *locations*). The
simulator operates on arrays of symbol indices drawn from an alphabet of
``2**bits_per_symbol`` values and reports a :class:`TransmissionRecord`
carrying enough ground truth to compute empirical information rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .events import ChannelEvent, ChannelParameters, sample_events

__all__ = [
    "TransmissionRecord",
    "DeletionInsertionChannel",
    "ERASURE",
]

#: Sentinel marking an erased position in a matched-erasure output
#: stream. Chosen negative so it can never collide with a symbol.
ERASURE = -1


@dataclass
class TransmissionRecord:
    """Ground-truth record of one pass through a non-synchronous channel.

    Attributes
    ----------
    received:
        The symbols observed by the receiver, in order. Its length
        differs from the input's when deletions/insertions occurred.
    events:
        The per-use event stream (:class:`ChannelEvent` codes). The
        stream stops once the input queue is exhausted.
    erasure_view:
        Receiver stream with locations revealed: transmitted symbols in
        place, deleted symbols replaced by :data:`ERASURE`, inserted
        symbols removed. Only populated when the channel was built with
        ``reveal_locations=True`` (the Theorem 1/4 genie).
    """

    received: np.ndarray
    events: np.ndarray
    erasure_view: Optional[np.ndarray] = None

    @property
    def num_uses(self) -> int:
        """Number of channel uses that occurred."""
        return int(self.events.shape[0])


class DeletionInsertionChannel:
    """The binary/M-ary deletion-insertion channel of Definition 1.

    Symbols wait in a queue. Each channel use, with probability ``P_d``
    the next queued symbol is deleted; with probability ``P_i`` an extra
    uniformly random symbol is inserted into the output; with probability
    ``P_t`` the next queued symbol is delivered, suffering a substitution
    (re-drawn uniformly among the other symbols) with probability ``P_s``.

    Unlike an erasure channel, the receiver learns *nothing* about where
    deletions and insertions occurred — which is precisely what makes the
    non-synchronous channel hard (paper §3.3). Passing
    ``reveal_locations=True`` additionally produces the matched
    (extended) erasure view used by Theorems 1 and 4.

    Parameters
    ----------
    params:
        The four event rates.
    bits_per_symbol:
        ``N``; the alphabet is ``{0, ..., 2^N - 1}``.
    reveal_locations:
        If True, :class:`TransmissionRecord.erasure_view` is populated.
    """

    def __init__(
        self,
        params: ChannelParameters,
        *,
        bits_per_symbol: int = 1,
        reveal_locations: bool = False,
    ) -> None:
        if bits_per_symbol < 1:
            raise ValueError("bits_per_symbol must be >= 1")
        self.params = params
        self.bits_per_symbol = bits_per_symbol
        self.alphabet_size = 2**bits_per_symbol
        self.reveal_locations = reveal_locations

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = self.params
        return (
            f"{type(self).__name__}(Pd={p.deletion}, Pi={p.insertion}, "
            f"Pt={p.transmission}, Ps={p.substitution}, N={self.bits_per_symbol})"
        )

    # ------------------------------------------------------------------
    def transmit(
        self,
        symbols: np.ndarray,
        rng: np.random.Generator,
    ) -> TransmissionRecord:
        """Send *symbols* through the channel.

        The channel is used until the input queue is exhausted (every
        queued symbol deleted or transmitted).
        """
        queue = np.asarray(symbols, dtype=np.int64)
        if queue.ndim != 1:
            raise ValueError("symbols must be a 1-D array")
        if queue.size and (queue.min() < 0 or queue.max() >= self.alphabet_size):
            raise ValueError("symbol out of alphabet range")

        p = self.params
        received: List[int] = []
        events: List[int] = []
        erasure_view: Optional[List[int]] = [] if self.reveal_locations else None
        qpos = 0
        # Draw events lazily in blocks to stay vectorized without
        # overshooting: expected uses per consumed symbol is
        # 1 / (Pd + Pt); insertions extend the run.
        consume_prob = p.deletion + p.transmission
        if consume_prob <= 0 and queue.size > 0:
            raise ValueError("channel never consumes input (Pd + Pt = 0)")
        while qpos < queue.size:
            block = 1024
            ev_block = sample_events(p, block, rng)
            ins_syms = rng.integers(0, self.alphabet_size, size=block)
            sub_offsets = rng.integers(1, self.alphabet_size, size=block) \
                if self.alphabet_size > 1 else np.zeros(block, dtype=np.int64)
            for k in range(block):
                if qpos >= queue.size:
                    break
                ev = int(ev_block[k])
                events.append(ev)
                if ev == ChannelEvent.DELETION:
                    if erasure_view is not None:
                        erasure_view.append(ERASURE)
                    qpos += 1
                elif ev == ChannelEvent.INSERTION:
                    received.append(int(ins_syms[k]))
                    # The genie's extended-erasure view removes inserted
                    # symbols entirely (their location is known).
                elif ev == ChannelEvent.TRANSMISSION:
                    sym = int(queue[qpos])
                    received.append(sym)
                    if erasure_view is not None:
                        erasure_view.append(sym)
                    qpos += 1
                else:  # SUBSTITUTION
                    sym = int((queue[qpos] + sub_offsets[k]) % self.alphabet_size)
                    received.append(sym)
                    if erasure_view is not None:
                        erasure_view.append(sym)
                    qpos += 1

        return TransmissionRecord(
            received=np.asarray(received, dtype=np.int64),
            events=np.asarray(events, dtype=np.int64),
            erasure_view=(
                np.asarray(erasure_view, dtype=np.int64)
                if erasure_view is not None
                else None
            ),
        )
