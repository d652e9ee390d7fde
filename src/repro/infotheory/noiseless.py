"""Noiseless channels with non-uniform symbol durations.

Shannon (1948) showed that a noiseless channel whose symbols take
different times ``t_1, ..., t_k`` has capacity ``C = log2(X0)`` where
``X0`` is the largest real root of the characteristic equation

    sum_i X^{-t_i} = 1.

Millen (1989) applied exactly this machinery to covert channels modeled
as finite-state machines: the channel capacity is ``log2`` of the
spectral radius of the duration-weighted adjacency operator. These are
the "traditional" capacity estimators the paper's two-step recipe
(:mod:`repro.core.estimation`) starts from.

This module solves the scalar characteristic equation; the full
finite-state version lives in :mod:`repro.timing.fsm`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..numerics import expand_bracket, guarded_brentq

__all__ = [
    "characteristic_root",
    "noiseless_capacity_per_second",
]


def characteristic_root(durations: Sequence[float]) -> float:
    """Largest real root ``X0 > 1`` of ``sum_i X^{-t_i} = 1``.

    Parameters
    ----------
    durations:
        Positive symbol durations ``t_i`` (any time unit). At least two
        symbols are required for positive capacity; a single symbol gives
        ``X0 = 1`` (zero information).

    Raises
    ------
    repro.numerics.BracketingError
        When the root cannot be bracketed before the expansion cap
        (vanishingly small durations push ``X0`` beyond 1e12); the
        error carries the last bracket for diagnosis.
    """
    t = np.asarray(durations, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("durations must be a non-empty 1-D sequence")
    if np.any(t <= 0):
        raise ValueError("symbol durations must be positive")
    if t.size == 1:
        return 1.0

    def f(x: float) -> float:
        return float(np.sum(x ** (-t)) - 1.0)

    # f is strictly decreasing for x > 0; f(1) = k - 1 >= 1 > 0.
    lo, hi = expand_bracket(
        f, 1.0, 2.0, hi_cap=1e12, solver="characteristic_root"
    )
    return guarded_brentq(f, lo, hi, xtol=1e-12, solver="characteristic_root")


def noiseless_capacity_per_second(durations: Sequence[float]) -> float:
    """Capacity ``log2(X0)`` in bits per time unit (Shannon 1948)."""
    return float(np.log2(characteristic_root(durations)))
