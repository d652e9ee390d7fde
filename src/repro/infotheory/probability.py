"""Probability-domain float helpers.

Probabilities in this package are floats that frequently sit *exactly*
on the simplex boundary after closed-form algebra (``1 - p - q``,
interpolations, empirical ratios). Comparing them with ``== 0.0`` /
``== 1.0`` is fragile: a value that is zero in exact arithmetic can
come back as ``1e-17`` from floating point, silently flipping a branch
such as "is the feedback path perfect?". These helpers centralize the
boundary tests behind an explicit absolute tolerance, and the
``repro.analysis`` linter (rule PROB001) enforces their use across the
code base.

All three helpers accept scalars or numpy arrays; the array forms are
elementwise, mirroring :func:`repro.infotheory.entropy.binary_entropy`.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

__all__ = ["PROB_ATOL", "is_zero", "is_one", "validate_probability"]

ArrayLike = Union[float, Iterable[float], np.ndarray]

#: Absolute tolerance for boundary tests on probabilities. Probabilities
#: are O(1) quantities, so a fixed absolute tolerance (rather than a
#: relative one) is the right notion of "equal to 0 or 1 up to rounding".
PROB_ATOL = 1e-12


def is_zero(p: ArrayLike) -> Union[bool, np.ndarray]:
    """True where *p* equals 0 up to :data:`PROB_ATOL`.

    Scalars return a ``bool``; arrays return an elementwise boolean
    array, so the result composes with numpy masks.
    """
    arr = np.asarray(p, dtype=float)
    out = np.abs(arr) <= PROB_ATOL
    if np.isscalar(p) or arr.ndim == 0:
        return bool(out)
    return out


def is_one(p: ArrayLike) -> Union[bool, np.ndarray]:
    """True where *p* equals 1 up to :data:`PROB_ATOL` (elementwise for
    arrays)."""
    arr = np.asarray(p, dtype=float)
    out = np.abs(arr - 1.0) <= PROB_ATOL
    if np.isscalar(p) or arr.ndim == 0:
        return bool(out)
    return out


def validate_probability(value: float, name: str = "probability") -> float:
    """Check that *value* is a probability and return it clipped to [0, 1].

    Values within :data:`PROB_ATOL` outside the interval (floating-point spill from
    closed-form algebra) are accepted and clipped; anything further out,
    and NaN, raises ``ValueError`` naming the offending field.
    """
    v = float(value)
    if not np.isfinite(v) or v < -PROB_ATOL or v > 1.0 + PROB_ATOL:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return min(1.0, max(0.0, v))
