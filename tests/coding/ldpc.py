"""A parity-check construction with no caller in the package, kept for its tests."""

from __future__ import annotations

import numpy as np


def make_regular_parity_check(
    n: int,
    column_weight: int,
    row_weight: int,
    rng: np.random.Generator,
    *,
    max_attempts: int = 200,
) -> np.ndarray:
    """Random regular parity-check matrix with the given weights.

    Gallager construction: stack ``column_weight`` random column
    permutations of a band matrix with ``row_weight`` ones per row.
    Requires ``n % row_weight == 0``. Retries until no duplicate rows
    and no 4-cycles through identical column pairs within a band pair
    collide too heavily (best-effort; short cycles degrade but do not
    break BP).
    """
    if n < 2 or column_weight < 2 or row_weight < 2:
        raise ValueError("need n >= 2 and weights >= 2")
    if n % row_weight != 0:
        raise ValueError("row_weight must divide n")
    rows_per_band = n // row_weight
    m = rows_per_band * column_weight
    if m >= n:
        raise ValueError("construction yields a rate <= 0 code")

    base = np.zeros((rows_per_band, n), dtype=np.int8)
    for r in range(rows_per_band):
        base[r, r * row_weight : (r + 1) * row_weight] = 1

    # Greedy per-band construction: accept a permuted band only if none
    # of its rows shares >= 2 columns with any already-accepted row
    # (avoids 4-cycles). Rows within one band are disjoint by
    # construction, so only cross-band overlaps need checking.
    bands = [base]
    for _ in range(column_weight - 1):
        accepted = None
        for _ in range(max_attempts):
            perm = rng.permutation(n)
            candidate = base[:, perm]
            existing = np.concatenate(bands, axis=0)
            overlap = existing.astype(np.int64) @ candidate.T
            if overlap.max() <= 1:
                accepted = candidate
                break
        if accepted is None:
            # Fall back to the last candidate; short cycles degrade BP
            # slightly but do not break it.
            accepted = candidate
        bands.append(accepted)
    return np.concatenate(bands, axis=0)
