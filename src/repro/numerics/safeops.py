"""Log-domain primitives with explicit underflow floors.

Every capacity solver in this package manipulates probabilities that
legitimately reach 0 (deleted symbols, degenerate transition rows) or
underflow (forward-backward likelihoods over long frames). The ad-hoc
idiom ``np.log(np.maximum(x, 1e-300))`` was scattered across the
solvers with inconsistent floors; these helpers centralize it so the
floor is one auditable constant, the guarded call sites are lintable
(rule NUM001), and log-domain normalization (``normalized_exp2``)
is shared instead of re-derived per solver.

All functions accept scalars or arrays and preserve shape.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "LOG_FLOOR",
    "safe_log",
    "safe_log2",
    "masked_log2",
    "normalized_exp2",
]

#: Default probability floor before taking a logarithm. Chosen just
#: above the smallest positive normal double so ``log`` of the floored
#: value is a large-but-finite number (~ -996 in bits), never ``-inf``.
LOG_FLOOR = 1e-300

ArrayLike = Union[float, np.ndarray]


def _floored(x: ArrayLike, floor: float, name: str) -> np.ndarray:
    if floor <= 0:
        raise ValueError(f"{name} floor must be positive, got {floor}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"{name} argument must be non-negative")
    return np.maximum(arr, floor)


def safe_log(x: ArrayLike, *, floor: float = LOG_FLOOR) -> np.ndarray:
    """Natural log of a non-negative array, floored at *floor*.

    Replaces the ``np.log(np.maximum(x, eps))`` /
    ``np.log(np.clip(x, eps, None))`` idiom: zeros and underflowed
    values map to ``log(floor)`` (finite), never ``-inf`` or ``nan``.
    Negative inputs raise ``ValueError`` — a negative "probability" is
    a bug upstream, not something to floor away.
    """
    return np.log(_floored(x, floor, "safe_log"))


def safe_log2(x: ArrayLike) -> np.ndarray:
    """Base-2 log of a non-negative array, floored at :data:`LOG_FLOOR`.

    The bits-domain twin of :func:`safe_log`; the workhorse of the
    Blahut-Arimoto and timed-DMC solvers.
    """
    return np.log2(_floored(x, LOG_FLOOR, "safe_log2"))


def masked_log2(x: ArrayLike) -> np.ndarray:
    """Base-2 log on the positive entries of *x*, exact ``0.0`` elsewhere.

    The Blahut-Arimoto family needs ``log2 W`` only where ``W > 0`` —
    structural zeros never contribute to ``sum_y W log2(W/q)`` because
    the ``W`` factor kills the term — so the log of a zero entry is
    *meaningless*, not merely small. This helper makes that explicit:
    positive entries get :func:`safe_log2` (subnormals still pass
    through :data:`LOG_FLOOR`), zeros map to exactly ``0.0``, and negative
    entries raise like every other ``safe_*`` primitive. It replaces
    the ``np.where(w > 0, safe_log2(w), 0.0)`` idiom previously
    duplicated across the scalar solvers, and is the form the batched
    kernels precompute once per ``(k, nx, ny)`` stack.
    """
    arr = np.asarray(x, dtype=float)
    return np.where(arr > 0, np.log2(_floored(arr, LOG_FLOOR, "masked_log2")), 0.0)


def _normalized(shifted: np.ndarray, axis: int) -> np.ndarray:
    total = shifted.sum(axis=axis, keepdims=True)
    # All-zero mass (every logit -inf, or exp underflowed): fall back to
    # uniform instead of dividing by zero — the caller's guard sees the
    # stall/abort through its residuals, not through NaN poisoning.
    n = shifted.shape[axis]
    return np.where(total > 0, shifted / np.where(total > 0, total, 1.0), 1.0 / n)


def normalized_exp2(logits: ArrayLike, *, axis: int = -1) -> np.ndarray:
    """Softmax in base 2: ``2**logits`` normalized to sum to 1.

    Subtracts the per-slice max before exponentiating (the standard
    stabilization) and degrades an all-``-inf`` slice to the uniform
    distribution instead of ``nan``.
    """
    arr = np.asarray(logits, dtype=float)
    hi = np.max(arr, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(hi), hi, 0.0)
    return _normalized(np.exp2(arr - shift), axis)
