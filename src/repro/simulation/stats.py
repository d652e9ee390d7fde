"""Statistical helpers for Monte-Carlo experiments: the Student-t
confidence interval the experiment runner reports for each metric.

The t quantile comes from ``scipy.special.stdtrit``, the function
``scipy.stats.t.ppf`` wraps, so importing this module does not load
``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import stdtrit

from ..infotheory.probability import is_zero

__all__ = [
    "ConfidenceInterval",
    "mean_confidence_interval",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a two-sided confidence interval."""

    estimate: float
    lower: float
    upper: float
    confidence: float


def mean_confidence_interval(
    samples: Sequence[float], *, confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of *samples*."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    if is_zero(sem):
        return ConfidenceInterval(mean, mean, mean, confidence)
    t = float(stdtrit(arr.size - 1, 0.5 + confidence / 2.0))
    return ConfidenceInterval(mean, mean - t * sem, mean + t * sem, confidence)
