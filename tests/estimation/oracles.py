"""Reference oracle for the kNN mutual-information estimator.

The naive O(n²) scan the fast paths of :mod:`repro.estimation.knn`
(sorted arrays for 1-D outputs, ``cKDTree`` otherwise) are held to bit
for bit in ``tests/estimation/test_knn.py``. It draws the same jitter
and runs the same digamma arithmetic through the estimator's own
helpers, so only the neighbour search differs.
``benchmarks/test_bench_estimation.py`` holds the fast paths to a
>= 5x speedup over it at n = 4096.
"""

from __future__ import annotations

import numpy as np

from repro.estimation.knn import (
    _mixed_contributions,
    _validate_k,
    _validate_mixed_inputs,
    tie_break_jitter,
)


def mixed_mutual_information_reference(
    labels: np.ndarray,
    y: np.ndarray,
    *,
    k: int = 8,
    rng: np.random.Generator,
    return_contributions: bool = False,
) -> "float | np.ndarray":
    """Naive O(n²) mixed estimator — the bit-identical oracle.

    Identical jitter draws and digamma arithmetic to
    :func:`repro.estimation.mixed_mutual_information`; neighbour radii
    and pooled counts come from full pairwise Chebyshev scans.
    """
    lab, arr = _validate_mixed_inputs(labels, y)
    _validate_k(k, lab.size)
    yj = tie_break_jitter(arr, rng)
    n = lab.size
    dist = np.max(np.abs(yj[:, None, :] - yj[None, :, :]), axis=2)
    class_size = np.empty(n, dtype=float)
    radius = np.empty(n, dtype=float)
    for symbol in np.unique(lab):
        idx = np.flatnonzero(lab == symbol)
        if idx.size <= k:
            raise ValueError(
                f"symbol {int(symbol)} has {idx.size} samples; the mixed "
                f"estimator needs more than k = {k} per symbol"
            )
        sub = dist[np.ix_(idx, idx)]
        radius[idx] = np.sort(sub, axis=1)[:, k]
        class_size[idx] = idx.size
    pooled = (
        np.count_nonzero(dist <= radius[:, None], axis=1).astype(float) - 1.0
    )
    contributions = _mixed_contributions(lab, class_size, pooled, k)
    if return_contributions:
        return contributions
    return float(np.mean(contributions))
