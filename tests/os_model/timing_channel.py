"""The burst-length timing channel simulator, kept for its tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.os_model.timing_channel import TimingChannelConfig
from repro.simulation.mutual_information import plugin_mutual_information
from tests.timing.stc import SimpleTimingChannel


@dataclass(frozen=True)
class TimingChannelRun:
    """Measured outcome of a timing-channel transfer.

    All rates are in bits per quantum, the natural clock of the kernel.
    """

    message: np.ndarray
    decoded: np.ndarray
    quanta: int
    symbol_errors: int
    empirical_rate: float
    mutual_information_rate: float
    stc_capacity: float

    @property
    def symbol_error_rate(self) -> float:
        return self.symbol_errors / self.message.size if self.message.size else 0.0


def simulate_timing_channel(
    message: np.ndarray,
    config: TimingChannelConfig,
    rng: np.random.Generator,
) -> TimingChannelRun:
    """Run the burst-length timing channel and measure it.

    Decoding snaps each observed gap to the nearest configured
    duration (ties resolve downward); preemption-stretched gaps
    therefore decode to a *larger* symbol — one-sided noise, the
    structure the timed Z-channel models.
    """
    msg = np.asarray(message, dtype=np.int64)
    if msg.ndim != 1:
        raise ValueError("message must be 1-D")
    k = len(config.durations)
    if msg.size and (msg.min() < 0 or msg.max() >= k):
        raise ValueError("message symbol out of range")
    durations = np.asarray(config.durations)

    gaps: List[int] = []
    quanta = 0
    for sym in msg:
        hold = int(durations[sym])
        # Background preemptions stretch the observed gap: each of the
        # `hold` quanta is preceded by a geometric number of stolen
        # quanta (probability `preempt_prob` per quantum).
        stretch = (
            int(rng.negative_binomial(hold, 1.0 - config.preempt_prob))
            if config.preempt_prob
            else 0
        )
        observed = hold + stretch
        gaps.append(observed)
        quanta += observed + 1  # +1 for the receiver's sampling quantum

    observed = np.asarray(gaps)
    # Nearest-duration decoding.
    boundaries = (durations[1:] + durations[:-1]) / 2.0
    decoded = np.searchsorted(boundaries, observed, side="left").astype(np.int64)
    decoded = np.minimum(decoded, k - 1)

    errors = int(np.count_nonzero(decoded != msg))
    stc = SimpleTimingChannel([float(d) + 1.0 for d in durations])
    if msg.size >= 2:
        mi = plugin_mutual_information(msg, decoded, nx=k, ny=k)
    else:
        mi = 0.0
    bits_sent = msg.size * np.log2(k) if k > 1 else 0.0
    return TimingChannelRun(
        message=msg,
        decoded=decoded,
        quanta=quanta,
        symbol_errors=errors,
        empirical_rate=bits_sent / quanta if quanta else 0.0,
        mutual_information_rate=mi * msg.size / quanta if quanta else 0.0,
        stc_capacity=stc.capacity(),
    )
