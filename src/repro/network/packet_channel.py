"""A network packet-timing covert channel.

The distributed-systems counterpart of the §3.1 uniprocessor scenario:
the sender leaks information through **inter-packet gaps** of an
innocuous flow (gap of ``d_0`` seconds = symbol 0, ``d_1`` = symbol 1,
...). The network then manufactures exactly the non-synchronous effects
the paper models:

* a **lost** packet merges two adjacent gaps — the receiver sees one
  (long) gap where two symbols were sent: a *deletion* plus a likely
  substitution on the survivor;
* a **duplicated** packet splits a gap in two — the receiver sees an
  extra spurious symbol: an *insertion*;
* **jitter** perturbs gap lengths — *substitutions*.

:func:`transmit_flow` simulates the flow with ground-truth event labels
so the estimation pipeline (`repro.core.estimation`) can be validated
against known network conditions; experiment E13 sweeps loss/duplication
rates and checks the measured `(P_d, P_i, P_s)` against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..infotheory.probability import validate_probability

from ..core.events import ChannelEvent, ChannelParameters

__all__ = [
    "PacketFlowConfig",
    "FlowRecord",
    "transmit_flow",
    "measured_parameters",
]


@dataclass(frozen=True)
class PacketFlowConfig:
    """Network and signaling configuration.

    Attributes
    ----------
    gap_durations:
        Strictly increasing gap lengths (seconds) encoding symbols
        ``0..M-1``.
    loss_prob:
        Independent per-packet loss probability (interior packets; the
        flow's first packet is assumed protected by the transport
        handshake).
    duplicate_prob:
        Probability a packet is duplicated in flight; the copy arrives
        a uniform fraction of the *following* gap later, splitting it.
    jitter_std:
        Standard deviation of Gaussian per-packet delay jitter, in the
        same unit as the durations.
    """

    gap_durations: tuple
    loss_prob: float = 0.0
    duplicate_prob: float = 0.0
    jitter_std: float = 0.0

    def __init__(
        self,
        gap_durations: Sequence[float],
        loss_prob: float = 0.0,
        duplicate_prob: float = 0.0,
        jitter_std: float = 0.0,
    ) -> None:
        d = tuple(float(x) for x in gap_durations)
        if len(d) < 2:
            raise ValueError("need at least two gap durations")
        if any(x <= 0 for x in d) or list(d) != sorted(set(d)):
            raise ValueError("gap durations must be positive and increasing")
        if jitter_std < 0:
            raise ValueError("jitter_std must be non-negative")
        object.__setattr__(self, "gap_durations", d)
        object.__setattr__(self, "loss_prob", loss_prob)
        object.__setattr__(self, "duplicate_prob", duplicate_prob)
        object.__setattr__(self, "jitter_std", jitter_std)
        self.__post_init__()

    def __post_init__(self) -> None:
        # Called explicitly: a hand-written __init__ bypasses the
        # dataclass-generated call.
        for name in ("loss_prob", "duplicate_prob"):
            value = validate_probability(getattr(self, name), name)
            if value >= 1.0:
                raise ValueError(f"{name} must be in [0, 1)")

    @property
    def num_symbols(self) -> int:
        return len(self.gap_durations)

    def synchronous_capacity(self) -> float:
        """Naive traditional estimate: the Shannon noiseless-channel
        capacity of the gap alphabet (bits per second), assuming every
        gap arrives intact — what a synchronous-model analysis reports."""
        from ..infotheory.noiseless import noiseless_capacity_per_second

        return noiseless_capacity_per_second(self.gap_durations)


@dataclass(frozen=True)
class FlowRecord:
    """Ground truth of one simulated flow.

    Attributes
    ----------
    message:
        Symbols the sender encoded.
    decoded:
        Nearest-duration decoding of the inter-arrival gaps the
        receiver measured.
    events:
        Ground-truth event labels, one per *channel use* in the
        Definition-1 sense (deletions consume a sent symbol and emit
        nothing; insertions emit a spurious gap).
    """

    message: np.ndarray
    decoded: np.ndarray
    events: np.ndarray


def _nearest_symbol(gaps: np.ndarray, durations: np.ndarray) -> np.ndarray:
    boundaries = (durations[1:] + durations[:-1]) / 2.0
    idx = np.searchsorted(boundaries, gaps, side="left")
    return np.minimum(idx, durations.size - 1).astype(np.int64)


def _flow_arrivals(
    msg: np.ndarray, config: PacketFlowConfig, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted receiver arrival times and the per-packet loss mask of
    one flow; packet ``k + 1`` closes the gap of symbol ``k``."""
    durations = np.asarray(config.gap_durations)

    # Departure times: packet k at the cumulative sum of gaps; N symbols
    # need N+1 packets.
    gaps_sent = durations[msg]
    departures = np.concatenate([[0.0], np.cumsum(gaps_sent)])

    # Per-packet fate. The first packet always arrives (flow anchor).
    arrivals: List[float] = []
    lost = np.zeros(departures.size, dtype=bool)
    if config.loss_prob > 0 and departures.size > 1:
        lost[1:] = rng.random(departures.size - 1) < config.loss_prob
    for k, t in enumerate(departures):
        if lost[k]:
            continue
        jitter = rng.normal(0.0, config.jitter_std) if config.jitter_std else 0.0
        arrivals.append(t + jitter)
        if config.duplicate_prob and rng.random() < config.duplicate_prob:
            # Copy lands a uniform fraction into the next gap.
            next_gap = gaps_sent[k] if k < gaps_sent.size else durations[0]
            arrivals.append(t + jitter + rng.uniform(0.1, 0.9) * next_gap)
    return np.sort(np.asarray(arrivals)), lost


def transmit_flow(
    message: np.ndarray,
    config: PacketFlowConfig,
    rng: np.random.Generator,
) -> FlowRecord:
    """Send *message* as packet gaps through the configured network."""
    msg = np.asarray(message, dtype=np.int64)
    if msg.ndim != 1:
        raise ValueError("message must be 1-D")
    if msg.size and (msg.min() < 0 or msg.max() >= config.num_symbols):
        raise ValueError("message symbol out of range")
    durations = np.asarray(config.gap_durations)
    arrivals_arr, lost = _flow_arrivals(msg, config, rng)
    observed_gaps = np.diff(arrivals_arr)

    decoded = (
        _nearest_symbol(observed_gaps, durations)
        if observed_gaps.size
        else np.empty(0, dtype=np.int64)
    )

    # Ground-truth events per sent symbol: packet k+1 closing gap k was
    # lost -> symbol k deleted (merged into the next observed gap);
    # otherwise transmitted, substituted if the decode disagrees.
    # Duplicates inject insertions.
    events: List[int] = []
    obs_iter = 0
    for k in range(msg.size):
        if lost[k + 1]:
            events.append(int(ChannelEvent.DELETION))
            continue
        if obs_iter < decoded.size and decoded[obs_iter] != msg[k]:
            events.append(int(ChannelEvent.SUBSTITUTION))
        else:
            events.append(int(ChannelEvent.TRANSMISSION))
        obs_iter += 1
    extra = observed_gaps.size - int(np.count_nonzero(~lost[1:]))
    events.extend([int(ChannelEvent.INSERTION)] * max(0, extra))

    return FlowRecord(
        message=msg,
        decoded=decoded,
        events=np.asarray(events, dtype=np.int64),
    )


def measured_parameters(record: FlowRecord) -> ChannelParameters:
    """Definition-1 parameters from the flow's ground-truth events.

    Validates the record's event labels before counting: a
    hand-constructed record with a code outside the
    :class:`repro.core.events.ChannelEvent` vocabulary would otherwise
    either crash ``bincount`` (negative codes) or silently inflate the
    total (codes above 3), skewing every rate it reports.
    """
    events = np.asarray(record.events)
    if events.size == 0:
        raise ValueError("empty flow: no channel events to measure")
    if events.ndim != 1 or not np.issubdtype(events.dtype, np.integer):
        raise ValueError("flow events must be a 1-D integer array")
    invalid = (events < 0) | (events > int(ChannelEvent.SUBSTITUTION))
    if np.any(invalid):
        bad = int(events[invalid][0])
        raise ValueError(
            f"flow events contain invalid event code {bad}; "
            "expected ChannelEvent values 0..3"
        )
    counts = np.bincount(events, minlength=4)
    total = counts.sum()
    transmitted = counts[int(ChannelEvent.TRANSMISSION)] + counts[
        int(ChannelEvent.SUBSTITUTION)
    ]
    return ChannelParameters(
        deletion=counts[int(ChannelEvent.DELETION)] / total,
        insertion=counts[int(ChannelEvent.INSERTION)] / total,
        transmission=transmitted / total,
        substitution=(
            counts[int(ChannelEvent.SUBSTITUTION)] / transmitted
            if transmitted
            else 0.0
        ),
    )
