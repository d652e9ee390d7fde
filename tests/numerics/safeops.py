"""Log-domain helpers with no caller in the package, kept for their tests."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.numerics.safeops import ArrayLike, _normalized


def logsumexp2(
    a: ArrayLike, *, axis: Optional[int] = None
) -> Union[float, np.ndarray]:
    """``log2(sum(2**a))`` computed without overflow (max-shifted).

    Entries of ``-inf`` (exactly-zero mass) are handled: an all-``-inf``
    reduction returns ``-inf`` rather than ``nan``.
    """
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        raise ValueError("logsumexp2 of an empty array")
    hi = np.max(arr, axis=axis, keepdims=True)
    # An all--inf slice would produce -inf - -inf = nan; shift by 0 there.
    shift = np.where(np.isfinite(hi), hi, 0.0)
    total = np.sum(np.exp2(arr - shift), axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        # log2(0) for an all--inf slice is replaced by -inf just below.
        out = shift + np.log2(total)
    out = np.where(np.isfinite(hi), out, hi)
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def normalized_exp(logits: ArrayLike, *, axis: int = -1) -> np.ndarray:
    """Natural-base softmax: ``exp(logits)`` normalized to sum to 1.

    Same stabilization and all-``-inf`` fallback as
    :func:`normalized_exp2`.
    """
    arr = np.asarray(logits, dtype=float)
    hi = np.max(arr, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(hi), hi, 0.0)
    return _normalized(np.exp(arr - shift), axis)
