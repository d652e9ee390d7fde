"""Capacity-degradation analysis (paper Sections 3.2 and 4.3).

The paper's closing remark: *"the capacity degradation due to
non-synchronous effects is roughly proportional to P_d, the probability
of deletions"*, and that this degradation is *inherent* — independent of
which synchronization mechanism is deployed.

This module quantifies the claim: exact degradation of the erasure
bound, degradation of the Theorem 5 achievable rate (which adds an
insertion-driven term), linear-fit diagnostics over a ``P_d`` sweep, and
scheduler-comparison helpers used by experiment E7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .capacity import feedback_lower_bound

__all__ = [
    "relative_degradation_upper",
    "relative_degradation_lower",
    "DegradationFit",
    "fit_degradation",
    "degradation_series",
]


def relative_degradation_upper(deletion_prob: float) -> float:
    """Relative loss of the erasure bound vs. the synchronous capacity.

    ``1 - N(1-P_d)/N = P_d`` — *exactly* proportional to ``P_d``,
    the cleanest form of the paper's claim.
    """
    if not 0.0 <= deletion_prob <= 1.0:
        raise ValueError("deletion_prob must be in [0, 1]")
    return deletion_prob


def relative_degradation_lower(
    bits_per_symbol: int, deletion_prob: float, insertion_prob: float
) -> float:
    """Relative loss of the Theorem 5 achievable rate vs. ``N`` bits/slot.

    ``1 - C_lower / N``. For small ``P_i`` this is ``P_d`` plus an
    insertion penalty of order ``H(P_i)/N``.
    """
    n = bits_per_symbol
    lower = feedback_lower_bound(n, deletion_prob, insertion_prob)
    return 1.0 - lower / n


@dataclass(frozen=True)
class DegradationFit:
    """Least-squares line ``degradation ~ slope * P_d + intercept``.

    ``r_squared`` near 1 with ``slope`` near 1 confirms the paper's
    "roughly proportional to P_d" remark over the fitted range.
    """

    slope: float
    intercept: float
    r_squared: float


def fit_degradation(
    deletion_probs: Sequence[float], degradations: Sequence[float]
) -> DegradationFit:
    """Fit a line to (P_d, degradation) pairs and report fit quality."""
    x = np.asarray(deletion_probs, dtype=float)
    y = np.asarray(degradations, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need matching 1-D arrays with at least 2 points")
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    residuals = y - fitted
    ss_res = float((residuals**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DegradationFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
    )


def degradation_series(
    bits_per_symbol: int,
    deletion_probs: Sequence[float],
    insertion_prob: float = 0.0,
) -> np.ndarray:
    """Array of Theorem-5 relative degradations over a ``P_d`` sweep.

    With ``insertion_prob = 0`` the series equals ``deletion_probs``
    exactly (the erasure-bound case); nonzero insertions add a constant
    offset, preserving the slope-1 proportionality in ``P_d``.
    """
    probs = np.asarray(deletion_probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError("deletion_probs must be 1-D")
    out = np.empty_like(probs)
    for k, pd in enumerate(probs):
        out[k] = relative_degradation_lower(
            bits_per_symbol, float(pd), insertion_prob
        )
    return out
