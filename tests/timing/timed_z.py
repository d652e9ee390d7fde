"""The timed Z-channel (Moskowitz, Greenwald & Kang, 1996).

A binary covert timing channel where the two outputs take different
times and the noise is one-sided: a transmitted 0 is always received as
0 (taking time ``t0``), while a transmitted 1 is received as 1 with
probability ``1 - p`` (taking time ``t1``) and degrades to a 0 with
probability ``p`` (the receiver then observes a 0 of duration ``t0``).
This models, e.g., a covert channel through a resource that sometimes
fails to be acquired.

Capacity per unit time is ``max_q I(q) / T(q)`` with

    I(q) = H(q (1-p)) - q H(p)            (bits per symbol)
    T(q) = t0 (1 - q(1-p)) + t1 q(1-p)    (expected symbol duration)

where ``q = P(X = 1)``. :func:`timed_z_capacity` maximizes this ratio
by a bounded scalar search — the independent oracle the general
:func:`repro.timing.timed_dmc_capacity` is checked against;
:func:`timed_z_optimality_residual` checks the stationarity condition
used as an independent cross-check in the test suite. Setting
``t0 = t1 = 1`` recovers the classic Z-channel capacity
``log2(1 + (1-p) p^{p/(1-p)})``; setting ``p = 0`` recovers the
two-symbol noiseless timing channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.infotheory.entropy import binary_entropy

__all__ = [
    "TimedZChannel",
    "timed_z_capacity",
    "timed_z_information_rate",
    "timed_z_optimality_residual",
]


@dataclass(frozen=True)
class TimedZChannel:
    """Parameters of a timed Z-channel.

    Attributes
    ----------
    t0, t1:
        Durations of received 0s and 1s (positive).
    p:
        One-sided degradation probability of a transmitted 1.
    """

    t0: float
    t1: float
    p: float

    def __post_init__(self) -> None:
        if self.t0 <= 0 or self.t1 <= 0:
            raise ValueError("symbol durations must be positive")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("degradation probability must be in [0, 1]")

    # ------------------------------------------------------------------
    def information_per_symbol(self, q: float) -> float:
        """``I(q) = H(q(1-p)) - q H(p)`` bits per channel symbol."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        s = q * (1.0 - self.p)
        return float(binary_entropy(s)) - q * float(binary_entropy(self.p))

    def mean_time(self, q: float) -> float:
        """Expected received-symbol duration ``T(q)``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        s = q * (1.0 - self.p)
        return self.t0 * (1.0 - s) + self.t1 * s

    def information_rate(self, q: float) -> float:
        """``I(q) / T(q)`` bits per time unit."""
        return self.information_per_symbol(q) / self.mean_time(q)

    # ------------------------------------------------------------------
    def capacity(self, *, tol: float = 1e-12) -> tuple:
        """Maximize the information rate over the input distribution.

        Returns ``(capacity_bits_per_time, q_star)``.
        """
        if self.p >= 1.0:
            return 0.0, 0.0
        result = optimize.minimize_scalar(
            lambda q: -self.information_rate(q),
            bounds=(1e-12, 1.0 - 1e-12),
            method="bounded",
            options={"xatol": tol},
        )
        q_star = float(result.x)
        return float(-result.fun), q_star


def timed_z_capacity(t0: float, t1: float, p: float) -> float:
    """Capacity of the timed Z-channel in bits per time unit."""
    capacity, _ = TimedZChannel(t0, t1, p).capacity()
    return capacity


def timed_z_information_rate(t0: float, t1: float, p: float, q: float) -> float:
    """Information rate at input distribution ``P(X=1) = q``."""
    return TimedZChannel(t0, t1, p).information_rate(q)


def timed_z_optimality_residual(t0: float, t1: float, p: float, q: float) -> float:
    """Stationarity residual ``I'(q) - C(q) T'(q)`` at *q*.

    Zero (to numerical precision) exactly at the capacity-achieving
    input, giving the test suite an independent check that the bounded
    scalar optimizer found the true maximum.
    """
    chan = TimedZChannel(t0, t1, p)
    if not 0.0 < q < 1.0:
        raise ValueError("residual defined for q in (0, 1)")
    s = q * (1.0 - p)
    if s >= 1.0:
        raise ValueError("degenerate input")
    di = (1.0 - p) * float(np.log2((1.0 - s) / s)) - float(binary_entropy(p))
    dt = (1.0 - p) * (t1 - t0)
    c = chan.information_rate(q)
    return di - c * dt
