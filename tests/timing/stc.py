"""Simple Timing Channels (Moskowitz & Miller, 1994).

An STC is a discrete, noiseless, memoryless covert timing channel: the
sender chooses among ``k`` responses whose completion times are
``t_1 < t_2 < ... < t_k`` and the receiver observes the elapsed time
exactly. Moskowitz & Miller studied these as *upper-bound* models: the
capacity of a noisy or more constrained covert channel can be bounded by
the capacity of the STC with the same time alphabet.

Capacity (bits per time unit) is the Shannon noiseless-channel value
``log2(X0)`` with ``sum_i X0^{-t_i} = 1``; this module adds the
elementary bounds the 1994 paper uses for quick severity estimates and
the capacity-achieving symbol distribution ``p_i = X0^{-t_i}``. The
package prices such channels with
:func:`repro.infotheory.noiseless_capacity_per_second`; this module
lives here with its tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.infotheory.noiseless import characteristic_root
from repro.infotheory.probability import is_one

__all__ = ["SimpleTimingChannel", "stc_capacity", "stc_capacity_bounds"]


@dataclass(frozen=True)
class SimpleTimingChannel:
    """A noiseless timing channel with response times *times*."""

    times: Tuple[float, ...]

    def __init__(self, times: Sequence[float]) -> None:
        t = tuple(float(x) for x in times)
        if not t:
            raise ValueError("need at least one response time")
        if any(x <= 0 for x in t):
            raise ValueError("response times must be positive")
        object.__setattr__(self, "times", t)

    @property
    def num_symbols(self) -> int:
        return len(self.times)

    def characteristic_root(self) -> float:
        """The base ``X0 >= 1`` solving ``sum_i X0^{-t_i} = 1``."""
        return characteristic_root(self.times)

    def capacity(self) -> float:
        """Capacity in bits per time unit, ``log2(X0)``."""
        return float(np.log2(self.characteristic_root()))

    def optimal_distribution(self) -> np.ndarray:
        """Capacity-achieving symbol probabilities ``p_i = X0^{-t_i}``.

        For a memoryless noiseless timing channel the optimal input uses
        symbol ``i`` with probability ``X0^{-t_i}``; these sum to 1 by
        the characteristic equation.
        """
        x0 = self.characteristic_root()
        t = np.asarray(self.times)
        if is_one(x0):
            # Single symbol: the distribution is degenerate.
            return np.ones(1) if len(self.times) == 1 else np.full(
                len(self.times), 1.0 / len(self.times)
            )
        return x0 ** (-t)

    def mean_symbol_time(self) -> float:
        """Expected symbol duration under the optimal distribution."""
        return float(self.optimal_distribution() @ np.asarray(self.times))

    def bits_per_symbol(self) -> float:
        """Entropy of the optimal distribution, bits per symbol.

        Equals ``capacity() * mean_symbol_time()`` — a useful identity
        exercised by the test suite.
        """
        p = self.optimal_distribution()
        mask = p > 0
        return float(-(p[mask] * np.log2(p[mask])).sum())


def stc_capacity(times: Sequence[float]) -> float:
    """Capacity of the STC with response times *times*, bits/time unit."""
    return SimpleTimingChannel(times).capacity()


def stc_capacity_bounds(times: Sequence[float]) -> Tuple[float, float]:
    """Elementary (lower, upper) bounds on STC capacity.

    * upper: all ``k`` symbols at the *fastest* time — ``log2(k)/t_min``;
    * lower: uniform use of all symbols —
      ``log2(k) / mean(t)`` (rate of a code that ignores the
      duration structure).

    Both collapse onto the exact value when all times are equal.
    """
    t = np.asarray([float(x) for x in times])
    if t.size == 0:
        raise ValueError("need at least one response time")
    if np.any(t <= 0):
        raise ValueError("response times must be positive")
    k = t.size
    if k == 1:
        return 0.0, 0.0
    upper = float(np.log2(k) / t.min())
    lower = float(np.log2(k) / t.mean())
    return lower, upper
