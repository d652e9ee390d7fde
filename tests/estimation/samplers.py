"""Channel samplers with no caller in the package, kept for their tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.estimation.samplers import DMCSampler, _coerce_rows
from repro.infotheory.probability import validate_probability
from repro.network.packet_channel import PacketFlowConfig, _flow_arrivals


@dataclass(frozen=True)
class TimedDMCSampler:
    """A :class:`DMCSampler` whose inputs occupy the channel unequally.

    The durations turn the estimation objective into bits per time
    unit — the :func:`repro.timing.timed_dmc_capacity` fractional
    program, solved here from samples instead of the matrix.
    """

    transition: Tuple[Tuple[float, ...], ...]
    durations: Tuple[float, ...]

    def __init__(
        self,
        transition: Sequence[Sequence[float]],
        durations: Sequence[float],
    ) -> None:
        rows = _coerce_rows(transition)
        taus = tuple(float(t) for t in durations)
        if len(taus) != len(rows):
            raise ValueError("durations must match the input alphabet")
        if any(not np.isfinite(t) or t <= 0 for t in taus):
            raise ValueError("durations must be positive and finite")
        object.__setattr__(self, "transition", rows)
        object.__setattr__(self, "durations", taus)

    @property
    def num_symbols(self) -> int:
        return len(self.transition)

    def transition_matrix(self) -> np.ndarray:
        return np.asarray(self.transition, dtype=float)

    def symbol_durations(self) -> np.ndarray:
        return np.asarray(self.durations, dtype=float)

    def sample(
        self, symbols: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return DMCSampler(self.transition).sample(symbols, rng)


@dataclass(frozen=True)
class PacketGapSampler:
    """The network packet-timing channel, receiver's-eye view.

    Sends the requested symbols as one flow through the packet
    simulation behind :func:`repro.network.transmit_flow` and reads
    back, for each sent
    symbol, the inter-arrival gap the receiver attributes to it. A
    lost packet merges gaps: the deleted symbol (and any run of
    deleted predecessors) maps to the long merged gap that absorbed
    it — which is exactly the observable the receiver has.

    Duplicates inject extra gaps whose position in the arrival order
    cannot be attributed to a sent symbol without ground truth, so the
    per-symbol alignment is only exact for ``duplicate_prob == 0``
    (the same caveat experiment E13 records for its event labels).
    Keep duplicates off for capacity estimation.
    """

    gap_durations: Tuple[float, ...]
    loss_prob: float = 0.0
    jitter_std: float = 0.0

    def __init__(
        self,
        gap_durations: Sequence[float],
        loss_prob: float = 0.0,
        jitter_std: float = 0.0,
    ) -> None:
        config = PacketFlowConfig(
            gap_durations, loss_prob=loss_prob, jitter_std=jitter_std
        )
        object.__setattr__(self, "gap_durations", config.gap_durations)
        object.__setattr__(self, "loss_prob", config.loss_prob)
        object.__setattr__(self, "jitter_std", config.jitter_std)
        self.__post_init__()

    def __post_init__(self) -> None:
        validate_probability(self.loss_prob, "loss_prob")

    @property
    def num_symbols(self) -> int:
        return len(self.gap_durations)

    def flow_config(self) -> PacketFlowConfig:
        """The equivalent :class:`repro.network.PacketFlowConfig`."""
        return PacketFlowConfig(
            self.gap_durations,
            loss_prob=self.loss_prob,
            duplicate_prob=0.0,
            jitter_std=self.jitter_std,
        )

    def symbol_durations(self) -> np.ndarray:
        return np.asarray(self.gap_durations, dtype=float)

    def sample(
        self, symbols: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        arrivals, lost = _flow_arrivals(symbols, self.flow_config(), rng)
        gaps = np.diff(arrivals)
        out = np.empty(symbols.size, dtype=float)
        pending = []  # deleted symbols awaiting their merged gap
        obs = 0
        for k in range(symbols.size):
            if lost[k + 1]:  # the packet closing gap k never arrived
                pending.append(k)
                continue
            gap = float(gaps[obs])
            obs += 1
            out[k] = gap
            for j in pending:
                out[j] = gap
            pending.clear()
        if pending:
            # Trailing deletions: the flow simply ends early; the
            # receiver's best observable is the final gap (0 when the
            # whole flow vanished).
            tail = float(gaps[-1]) if gaps.size else 0.0
            for j in pending:
                out[j] = tail
        return out
