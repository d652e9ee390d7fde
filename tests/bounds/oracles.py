"""Scalar reference oracles for the finite-block table builders.

``repro.bounds`` builds every block table as a grid stack. These are
the straightforward one-point constructions the stacks must reproduce:
bitwise for the deletion table, to 1e-15 for the indel DP. A vectorized
weight or a reordered DP sum that drifts by an ulp shows up here first.
The indel stack builder's prefix-tree DP is also held bitwise to the
grid-stacked DP that runs a separate ``(i, j)`` DP per output
length (:func:`indel_block_transition_stack_per_length`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.bounds import subsequence_embedding_counts


def binary_strings(m: int) -> np.ndarray:
    """All ``2^m`` binary strings of length *m*, in counting order."""
    if m == 0:
        return np.zeros((1, 0), dtype=np.int8)
    codes = np.arange(1 << m, dtype=np.int64)
    return ((codes[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1).astype(np.int8)


def exact_block_transition(
    n: int, deletion_prob: float
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Exact block table of the binary deletion channel at one ``p_d``.

    Entry ``(x, y)`` is ``N(x, y) p_d^{n-|y|} (1 - p_d)^{|y|}`` over all
    outputs of length ``0..n``. Returns ``(transition, output_groups)``.
    """
    pd = deletion_prob
    xs = binary_strings(n)
    groups = [binary_strings(m) for m in range(n + 1)]
    blocks = []
    for m, ys in enumerate(groups):
        counts = subsequence_embedding_counts(xs, ys)
        weight = (pd ** (n - m)) * ((1.0 - pd) ** m)
        blocks.append(counts * weight)
    return np.concatenate(blocks, axis=1), groups


def indel_pair_probabilities(
    xs: np.ndarray, ys: np.ndarray, deletion_prob: float, insertion_prob: float
) -> np.ndarray:
    """Exact ``P(y|x)`` of the deletion-insertion channel at one point.

    ``f(i, j)`` = probability of having consumed ``i`` input bits and
    emitted the first ``j`` output bits. Insertions are only possible
    while input remains (the channel stops once the queue is empty).
    """
    num_x, n = xs.shape
    num_y, m = ys.shape
    pd = deletion_prob
    pi = insertion_prob
    pt = 1.0 - pd - pi
    half_ins = pi / 2.0

    f_prev_j = np.zeros((n + 1, num_x, num_y))  # f(., j-1)
    f_cur_j = np.zeros((n + 1, num_x, num_y))  # f(., j)
    # j = 0 column: only deletions can have consumed inputs.
    f_cur_j[0] = 1.0
    for i in range(1, n + 1):
        f_cur_j[i] = f_cur_j[i - 1] * pd
    for j in range(1, m + 1):
        f_prev_j, f_cur_j = f_cur_j, np.zeros_like(f_cur_j)
        yj = ys[:, j - 1][None, :]
        for i in range(0, n + 1):
            acc = np.zeros((num_x, num_y))
            if i < n:
                # Insertion emitting y_j, input untouched.
                acc += half_ins * f_prev_j[i]
            if i > 0:
                match = (xs[:, i - 1][:, None] == yj).astype(float)
                acc += pt * match * f_prev_j[i - 1]
                # Deletion consumes input i without emitting: same j.
                acc += pd * f_cur_j[i - 1]
            f_cur_j[i] = acc
    return f_cur_j[n]


def indel_pair_probabilities_stack(
    xs: np.ndarray,
    ys: np.ndarray,
    deletion_probs: np.ndarray,
    insertion_probs: np.ndarray,
) -> np.ndarray:
    """:func:`indel_pair_probabilities` vectorized over a leading
    ``(k,)`` parameter axis: one ``(i, j)`` DP per output length.

    All ``(P_d, P_i)`` points share the match structure (which depends
    only on ``xs``/``ys``), so the per-point probabilities enter the
    recursion as ``(k, 1, 1)`` broadcasts. Returns shape
    ``(k, num_x, num_y)``.
    """
    num_x, n = xs.shape
    num_y, m = ys.shape
    pd = np.asarray(deletion_probs, dtype=float)[:, None, None]
    pi = np.asarray(insertion_probs, dtype=float)[:, None, None]
    k = pd.shape[0]
    pt = 1.0 - pd - pi
    half_ins = pi / 2.0

    f_prev_j = np.zeros((n + 1, k, num_x, num_y))  # f(., j-1)
    f_cur_j = np.zeros((n + 1, k, num_x, num_y))  # f(., j)
    # j = 0 column: only deletions can have consumed inputs.
    f_cur_j[0] = 1.0
    for i in range(1, n + 1):
        f_cur_j[i] = f_cur_j[i - 1] * pd
    for j in range(1, m + 1):
        f_prev_j, f_cur_j = f_cur_j, np.zeros_like(f_cur_j)
        yj = ys[:, j - 1][None, :]
        for i in range(0, n + 1):
            acc = np.zeros((k, num_x, num_y))
            if i < n:
                # Insertion emitting y_j, input untouched.
                acc += half_ins * f_prev_j[i]
            if i > 0:
                match = (xs[:, i - 1][:, None] == yj).astype(float)[None]
                acc += pt * match * f_prev_j[i - 1]
                # Deletion consumes input i without emitting: same j.
                acc += pd * f_cur_j[i - 1]
            f_cur_j[i] = acc
    return f_cur_j[n]


def indel_block_transition_stack_per_length(
    n: int, grid: Sequence[Tuple[float, float]], *, max_extra: int
) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray]:
    """The indel stack built with a separate DP per output length.

    The stack builder's shape and overflow handling, with each length
    ``0..n + max_extra`` priced by :func:`indel_pair_probabilities_stack`.
    Returns ``(stack, output_groups, max_tail_mass_per_point)``.
    """
    pds = np.array([pd for pd, _ in grid], dtype=float)
    pis = np.array([pi for _, pi in grid], dtype=float)
    xs = binary_strings(n)
    groups = [binary_strings(m) for m in range(n + max_extra + 1)]
    transition = np.concatenate(
        [indel_pair_probabilities_stack(xs, ys, pds, pis) for ys in groups],
        axis=2,
    )
    row_sums = transition.sum(axis=2)
    overflow = np.clip(1.0 - row_sums, 0.0, 1.0)[:, :, None]
    transition = np.concatenate([transition, overflow], axis=2)
    return transition, groups, overflow.max(axis=(1, 2))


def indel_block_transition(
    n: int, deletion_prob: float, insertion_prob: float, *, max_extra: int
) -> Tuple[np.ndarray, List[np.ndarray], float]:
    """Truncated indel block table at one point, with its overflow column.

    Outputs are all strings of length ``0..n + max_extra`` plus one
    overflow column holding the truncated mass. Returns
    ``(transition, output_groups, max_tail_mass)``.
    """
    xs = binary_strings(n)
    groups = [binary_strings(m) for m in range(n + max_extra + 1)]
    transition = np.concatenate(
        [
            indel_pair_probabilities(xs, ys, deletion_prob, insertion_prob)
            for ys in groups
        ],
        axis=1,
    )
    overflow = np.clip(1.0 - transition.sum(axis=1), 0.0, 1.0)[:, None]
    return (
        np.concatenate([transition, overflow], axis=1),
        groups,
        float(overflow.max()),
    )


def insertion_tail_mass(n: int, insertion_prob: float, max_extra: int) -> float:
    """Probability that a block of *n* symbols suffers more than
    *max_extra* insertions when nothing is deleted.

    The insertion count is NegativeBinomial(n, 1 - p_i), so this is
    ``1 - sum_{k <= max_extra} C(n + k - 1, k) p_i^k (1 - p_i)^n``.
    """
    pi = insertion_prob
    q = 1.0 - pi
    mass = 0.0
    coeff = 1.0
    for k in range(max_extra + 1):
        if k > 0:
            coeff *= (n + k - 1) / k
        mass += coeff * (pi**k) * (q**n)
    return max(0.0, 1.0 - mass)
