"""Kraskov (KSG) k-nearest-neighbour mutual-information estimator.

:func:`mixed_mutual_information` is Ross's discrete/continuous variant
(PLoS ONE 9(2):e87357) of the Kraskov, Stögbauer & Grassberger
estimator (Phys. Rev. E 69, 066138; arXiv:cond-mat/0305641): the input
is a discrete symbol, the output an arbitrary continuous vector, and the
metric is Chebyshev (max-norm). Neighbour distances are taken inside
each symbol class; the neighbour *count* at that radius is taken over
the pooled outputs.

Neighbour searches run on ``scipy.spatial.cKDTree``, except for the
mixed estimator on 1-D outputs (every sampler in
:mod:`repro.estimation.samplers` produces one). There the Chebyshev
ball is an interval, so class radii come from windows of each sorted
symbol class and pooled counts from ``searchsorted`` on the sorted
outputs, with each run's edges settled by the exact ``|y_i - y_j| <=
r_i`` test the oracle applies.

The estimator breaks ties with a deterministic jitter drawn from the
caller's RNG stream (:func:`tie_break_jitter`): replays under the same
seed are bit-identical, and purely discrete outputs (a DMC's symbols)
become valid inputs — the jitter turns exact ties into a random local
ordering whose neighbour-count ratios still converge to the density
ratios the estimator needs.

Counting conventions matter at the half-bit level and are pinned by the
property suite (``tests/estimation/test_knn.py``): radii come from the
k-th neighbour *excluding* the query point, and ball counts likewise
exclude the query point. The naive O(n²) reference implementation
beside the tests (``tests/estimation/oracles.py``) shares the exact
arithmetic — including the jitter — so the sorted and tree paths are
gated by bit-identity, the same scalar-oracle pattern the vectorized
lattice kernels use.

All ``cKDTree`` construction in the repository lives in this module:
lint rule EST001 keeps every other kNN query behind these guarded,
cached entry points.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

__all__ = [
    "tie_break_jitter",
    "mixed_mutual_information",
    "mixed_mi_contributions",
]

#: Relative amplitude of the tie-breaking jitter. Far below any real
#: signal spacing (symbol alphabets are O(1) apart) yet large enough
#: that float64 uniform draws never collide in practice.
JITTER_AMPLITUDE = 1e-10

_LN2 = float(np.log(2.0))


def _as_sample_matrix(values: np.ndarray, name: str) -> np.ndarray:
    """Coerce *values* to a float ``(n, d)`` matrix, validating shape."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty 1-D or 2-D sample array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite samples")
    return arr


def tie_break_jitter(
    values: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Return *values* plus a deterministic tie-breaking perturbation.

    The perturbation is uniform in ``±JITTER_AMPLITUDE * scale`` where
    ``scale`` is the data's absolute range (floored at 1), drawn from
    *rng* — so the same stream position always produces the same
    jittered coordinates and repeat runs are bit-identical.
    """
    arr = _as_sample_matrix(values, "values")
    scale = max(float(np.max(np.abs(arr))), 1.0)
    return arr + rng.uniform(
        -JITTER_AMPLITUDE, JITTER_AMPLITUDE, size=arr.shape
    ) * scale


def _validate_k(k: int, n: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= k + 1:
        raise ValueError(
            f"need more than k+1 = {k + 1} samples, got {n}"
        )


# ----------------------------------------------------------------------
# Mixed discrete/continuous variant


def _check_class_sizes(symbols: np.ndarray, sizes: np.ndarray, k: int) -> None:
    small = np.flatnonzero(sizes <= k)
    if small.size:
        first = small[0]
        raise ValueError(
            f"symbol {int(symbols[first])} has {sizes[first]} samples; the "
            f"mixed estimator needs more than k = {k} per symbol"
        )


def _mixed_counts_tree(
    labels: np.ndarray, yj: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-point ``(class size, pooled count at class k-NN radius)``."""
    symbols, sizes = np.unique(labels, return_counts=True)
    _check_class_sizes(symbols, sizes, k)
    n = labels.size
    class_size = np.empty(n, dtype=float)
    radius = np.empty(n, dtype=float)
    for symbol in symbols:
        idx = np.flatnonzero(labels == symbol)
        sub = cKDTree(yj[idx])
        dist, _ = sub.query(yj[idx], k=k + 1, p=np.inf)
        radius[idx] = dist[:, -1]
        class_size[idx] = idx.size
    pooled = cKDTree(yj).query_ball_point(
        yj, radius, p=np.inf, return_length=True
    )
    # Exclude the query point itself so the pooled count and the k
    # within-class neighbours share one convention; counting the point
    # on one side only biases the estimate by psi(k) - psi(k+1)
    # (~ -0.36 bits at k = 4).
    return class_size, pooled.astype(float) - 1.0


def _mixed_counts_sorted(
    labels: np.ndarray, yj: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_mixed_counts_tree` for 1-D outputs, from sorted arrays.

    In 1-D the Chebyshev ball is an interval. A point's k nearest
    class neighbours, together with the point, fill a window of k + 1
    consecutive members of its sorted class, so its radius is the
    narrowest such window's reach: O(n k) with no tree. Every distance
    is the same float difference the O(n^2) oracle takes, so the
    result is bit-identical to it.
    """
    symbols, sizes = np.unique(labels, return_counts=True)
    _check_class_sizes(symbols, sizes, k)
    n = labels.size
    # Work in the order of the sorted pooled outputs s; a stable sort
    # of the labels then gives class-major order, ascending within a
    # class.
    by_value = np.argsort(yj[:, 0])
    s = yj[by_value, 0]
    order = np.argsort(labels[by_value], kind="stable")
    v = s[order]
    size_of = np.repeat(sizes, sizes)
    end = np.repeat(np.cumsum(sizes), sizes)
    start = end - size_of
    pos = np.arange(n)
    reach = np.full(n, np.inf)
    for back in range(k + 1):
        first = pos - back
        last = first + k
        inside = (first >= start) & (last < end)
        width = np.maximum(
            v - v[np.maximum(first, 0)], v[np.minimum(last, n - 1)] - v
        )
        np.minimum(reach, width, out=reach, where=inside)
    radius = np.empty(n)
    radius[order] = reach

    # Pooled count: the points within radius of s_i form one run of s
    # (fl subtraction is monotone). searchsorted at s_i -/+ r_i places
    # its ends to within the rounding of those two sums; the exact
    # predicate then moves each end to the run's true edge.
    lo = np.searchsorted(s, s - radius, side="left")
    hi = np.searchsorted(s, s + radius, side="right")

    def within(j: np.ndarray) -> np.ndarray:
        return np.abs(s - s[np.clip(j, 0, n - 1)]) <= radius

    while np.any(step := (lo > 0) & within(lo - 1)):
        lo -= step
    while np.any(step := ~within(lo)):
        lo += step
    while np.any(step := (hi < n) & within(hi)):
        hi += step
    while np.any(step := ~within(hi - 1)):
        hi -= step
    class_size = np.empty(n)
    class_size[by_value[order]] = size_of
    pooled = np.empty(n)
    pooled[by_value] = hi - lo - 1.0  # less the point itself, as above
    return class_size, pooled


def _mixed_contributions(
    labels: np.ndarray,
    class_size: np.ndarray,
    pooled: np.ndarray,
    k: int,
) -> np.ndarray:
    n = labels.size
    return (
        digamma(n) + digamma(k) - digamma(class_size) - digamma(pooled)
    ) / _LN2


def _validate_mixed_inputs(
    labels: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.size == 0:
        raise ValueError("labels must be a non-empty 1-D integer array")
    if not np.issubdtype(lab.dtype, np.integer):
        raise ValueError("labels must be integers (discrete symbols)")
    arr = _as_sample_matrix(y, "y")
    if arr.shape[0] != lab.size:
        raise ValueError("labels and y must hold the same number of samples")
    return lab.astype(np.int64), arr


def mixed_mi_contributions(
    labels: np.ndarray,
    y: np.ndarray,
    *,
    k: int = 8,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-sample contributions whose mean is the mixed MI estimate.

    The contribution of sample ``i`` is a one-point estimate of
    ``log2 p(y_i | x_i) / p(y_i)`` — so averaging over the samples of
    one symbol estimates the divergence ``D(W(.|x) || q)``, which is
    precisely the Blahut-Arimoto gradient of mutual information with
    respect to that symbol's input probability. The capacity optimizer
    (:mod:`repro.estimation.optimize`) reads its search direction off
    these contributions, paying one estimator evaluation per step.
    """
    lab, arr = _validate_mixed_inputs(labels, y)
    _validate_k(k, lab.size)
    yj = tie_break_jitter(arr, rng)
    counts = _mixed_counts_sorted if yj.shape[1] == 1 else _mixed_counts_tree
    class_size, pooled = counts(lab, yj, k)
    return _mixed_contributions(lab, class_size, pooled, k)


def mixed_mutual_information(
    labels: np.ndarray,
    y: np.ndarray,
    *,
    k: int = 8,
    rng: np.random.Generator,
) -> float:
    """Mixed discrete/continuous MI estimate ``I(X; Y)`` in bits.

    ``labels`` holds the discrete input symbols, ``y`` the paired
    (possibly multi-dimensional, possibly discrete-with-ties) outputs.
    Every symbol class must contain more than *k* samples.
    """
    return float(
        np.mean(mixed_mi_contributions(labels, y, k=k, rng=rng))
    )
