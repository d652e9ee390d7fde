"""Entropy and mutual-information primitives.

All logarithms are base 2: quantities are measured in **bits**. Functions
accept plain floats, sequences, or numpy arrays, and are safe at the
boundary of the probability simplex (``0 log 0`` is treated as 0, per the
usual information-theoretic convention).

These primitives underlie every capacity computation in this package,
from the closed-form bounds of Wang & Lee's Theorems 1-5 to the
Blahut-Arimoto numerical solver in :mod:`repro.infotheory.blahut_arimoto`.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

__all__ = [
    "binary_entropy",
    "mutual_information",
    "mutual_information_from_joint",
    "validate_distribution",
]

ArrayLike = Union[float, Iterable[float], np.ndarray]

_EPS = 1e-12


def _as_prob_array(p: ArrayLike) -> np.ndarray:
    """Coerce *p* to a float numpy array, rejecting negative entries."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr < -_EPS):
        raise ValueError(f"probabilities must be non-negative, got {arr!r}")
    return np.clip(arr, 0.0, None)


def _xlogx(p: np.ndarray) -> np.ndarray:
    """Elementwise ``p * log2(p)`` with the convention ``0 log 0 = 0``."""
    out = np.zeros_like(p, dtype=float)
    mask = p > 0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def validate_distribution(p: ArrayLike) -> np.ndarray:
    """Validate that *p* is a probability distribution and return it.

    Raises
    ------
    ValueError
        If any entry is negative or the entries do not sum to 1 within
        1e-9.
    """
    arr = _as_prob_array(p)
    total = float(arr.sum())
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ValueError(f"distribution sums to {total}, expected 1.0")
    return arr


def binary_entropy(p: ArrayLike) -> Union[float, np.ndarray]:
    """Binary entropy function ``H(p) = -p log2 p - (1-p) log2 (1-p)``.

    This is eq. (5) of Wang & Lee. Accepts scalars or arrays; values must
    lie in [0, 1].
    """
    arr = np.asarray(p, dtype=float)
    if np.any((arr < -_EPS) | (arr > 1 + _EPS)):
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p!r}")
    arr = np.clip(arr, 0.0, 1.0)
    h = -(_xlogx(arr) + _xlogx(1.0 - arr))
    if np.isscalar(p) or (isinstance(p, np.ndarray) and p.ndim == 0):
        return float(h)
    return h


def mutual_information_from_joint(joint: ArrayLike) -> float:
    """Mutual information ``I(X; Y)`` from a joint array ``P(x, y)``."""
    arr = _as_prob_array(joint)
    if arr.ndim != 2:
        raise ValueError("joint must be a 2-D array P(x, y)")
    total = arr.sum()
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ValueError("joint distribution must sum to 1")
    px = arr.sum(axis=1)
    py = arr.sum(axis=0)
    h_x = float(-_xlogx(px).sum())
    h_y = float(-_xlogx(py).sum())
    h_xy = float(-_xlogx(arr).sum())
    # Clamp tiny negative values caused by floating-point cancellation.
    return max(0.0, h_x + h_y - h_xy)


def mutual_information(input_dist: ArrayLike, transition: ArrayLike) -> float:
    """Mutual information ``I(X; Y)`` of a DMC.

    Parameters
    ----------
    input_dist:
        Input distribution ``P(x)`` of length ``nx``.
    transition:
        Row-stochastic transition matrix ``P(y|x)`` of shape ``(nx, ny)``.
    """
    px = validate_distribution(input_dist)
    w = _as_prob_array(transition)
    if w.ndim != 2 or w.shape[0] != px.shape[0]:
        raise ValueError("transition must be (nx, ny) with nx = len(input_dist)")
    row_sums = w.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-9):
        raise ValueError("transition matrix rows must each sum to 1")
    joint = px[:, None] * w
    return mutual_information_from_joint(joint)
