"""A closed form with no caller in the package, kept for its test."""

from __future__ import annotations

import numpy as np


def uniform_duration_capacity(num_symbols: int, duration: float = 1.0) -> float:
    """Capacity when all *num_symbols* symbols take the same *duration*.

    Equals ``log2(num_symbols) / duration`` — the familiar "bits per
    symbol over seconds per symbol" formula, and a useful sanity check
    for :func:`noiseless_capacity_per_second`.
    """
    if num_symbols < 1:
        raise ValueError("need at least one symbol")
    if duration <= 0:
        raise ValueError("duration must be positive")
    return float(np.log2(num_symbols)) / duration
