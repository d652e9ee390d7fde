"""Entropy helpers with no caller in the package, kept for their tests."""

from __future__ import annotations


import numpy as np

from repro.infotheory.entropy import (
    ArrayLike,
    _as_prob_array,
    _xlogx,
    binary_entropy,
    validate_distribution,
)
from repro.infotheory.probability import is_one, is_zero


def normalize_distribution(p: ArrayLike) -> np.ndarray:
    """Rescale non-negative weights *p* into a probability distribution."""
    arr = _as_prob_array(p)
    total = float(arr.sum())
    if total <= 0:
        raise ValueError("cannot normalize an all-zero weight vector")
    return arr / total


def binary_entropy_derivative(p: float) -> float:
    """Derivative ``H'(p) = log2((1-p)/p)`` for ``p`` in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("derivative of H is defined only on (0, 1)")
    return float(np.log2((1.0 - p) / p))


def inverse_binary_entropy(h: float, *, branch: str = "lower") -> float:
    """Invert the binary entropy function on one of its two branches.

    Parameters
    ----------
    h:
        Entropy value in [0, 1].
    branch:
        ``"lower"`` returns the root in [0, 1/2]; ``"upper"`` the root in
        [1/2, 1].
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"entropy value must be in [0, 1], got {h}")
    if branch not in ("lower", "upper"):
        raise ValueError("branch must be 'lower' or 'upper'")
    if is_zero(h):
        return 0.0 if branch == "lower" else 1.0
    if is_one(h):
        return 0.5
    lo, hi = (0.0, 0.5) if branch == "lower" else (0.5, 1.0)
    # Bisection: H is monotone on each branch and continuous.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = binary_entropy(mid)
        if branch == "lower":
            if val < h:
                lo = mid
            else:
                hi = mid
        else:
            if val > h:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def entropy(p: ArrayLike) -> float:
    """Shannon entropy ``H(X) = -sum p_i log2 p_i`` in bits."""
    arr = validate_distribution(p)
    return float(-_xlogx(arr).sum())


def cross_entropy(p: ArrayLike, q: ArrayLike) -> float:
    """Cross entropy ``-sum p_i log2 q_i``; infinite if q=0 where p>0."""
    parr = validate_distribution(p)
    qarr = validate_distribution(q)
    if parr.shape != qarr.shape:
        raise ValueError("p and q must have the same shape")
    mask = parr > 0
    if np.any(qarr[mask] == 0):
        return float("inf")
    return float(-(parr[mask] * np.log2(qarr[mask])).sum())


def kl_divergence(p: ArrayLike, q: ArrayLike) -> float:
    """Kullback-Leibler divergence ``D(p || q)`` in bits."""
    parr = validate_distribution(p)
    qarr = validate_distribution(q)
    if parr.shape != qarr.shape:
        raise ValueError("p and q must have the same shape")
    mask = parr > 0
    if np.any(qarr[mask] == 0):
        return float("inf")
    return float((parr[mask] * np.log2(parr[mask] / qarr[mask])).sum())


def joint_entropy(joint: ArrayLike) -> float:
    """Entropy of a joint distribution given as a 2-D array ``P(x, y)``."""
    arr = _as_prob_array(joint)
    if not np.isclose(arr.sum(), 1.0, atol=1e-9):
        raise ValueError("joint distribution must sum to 1")
    return float(-_xlogx(arr).sum())


def conditional_entropy(joint: ArrayLike) -> float:
    """Conditional entropy ``H(Y|X)`` from a joint array ``P(x, y)``.

    Rows index X, columns index Y.
    """
    arr = _as_prob_array(joint)
    if arr.ndim != 2:
        raise ValueError("joint must be a 2-D array P(x, y)")
    if not np.isclose(arr.sum(), 1.0, atol=1e-9):
        raise ValueError("joint distribution must sum to 1")
    px = arr.sum(axis=1)
    h_joint = float(-_xlogx(arr).sum())
    h_x = float(-_xlogx(px).sum())
    return h_joint - h_x
