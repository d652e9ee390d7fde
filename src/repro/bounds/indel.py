"""Exact finite-block computation for the joint deletion-insertion
channel — the paper's actual channel, no feedback.

Each channel use deletes the next queued bit (``p_d``), inserts a
uniform bit (``p_i``), or transmits (``p_t = 1 - p_d - p_i``); the
channel stops once the queue is empty, so no trailing insertions
occur. The block table enumerates all outputs up to an insertion
budget, with the truncated tail folded into an uninformative overflow
column (keeping the lower-bound direction honest). At ``p_i = 0`` the
table is the deletion table of :mod:`repro.bounds.deletion`; at
``p_d = 0`` it is the insertion-only channel, whose truncated mass is
the NegativeBinomial(n, 1 - p_i) tail beyond the budget. Every output
length's block comes from one DP pass over the output prefix tree: the
DP state after ``j`` output bits depends only on those bits, so depth
``j`` of the tree is the length-``j`` block. Blahut-Arimoto on the
table then gives the finite-block information, and Dobrushin's
boundary correction a true capacity lower bound for the joint channel
— the quantity the Theorem-1 erasure bound upper-bounds. Every table
and bound is built over a ``(P_d, P_i)`` grid; a single point is a
one-element grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.capacity import erasure_upper_bound
from ..infotheory.kernels import BATCH_SOLVER, blahut_arimoto_batch
from ..infotheory.probability import validate_probability
from ..numerics import SolverStatus, record_status
from ..store import cached_batch, code_fingerprint

__all__ = [
    "indel_block_transition_stack",
    "IndelBlockResult",
    "indel_block_bound_sweep",
]

_MAX_BLOCK = 8
_MAX_EXTRA = 6

#: Store namespace for the sweep's per-point entries. The ``_batch``
#: suffix is kept so that existing stores keep hitting.
INDEL_BATCH_FN_ID = "indel_block_bound_batch"

#: Bracket-width tolerance of the sweep's Blahut-Arimoto solves. It is
#: part of every point's store key, so editing it misses the store.
INDEL_BOUND_TOL = 1e-9


def _strings_of_length(m: int) -> np.ndarray:
    if m == 0:
        return np.zeros((1, 0), dtype=np.int8)
    codes = np.arange(1 << m, dtype=np.int64)
    return ((codes[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1).astype(np.int8)


def _prefix_tree_blocks(
    xs: np.ndarray, pd: np.ndarray, pi: np.ndarray, depth: int
) -> List[np.ndarray]:
    """Exact ``P(y|x)`` blocks of every output length ``0..depth`` from
    one DP pass over the output prefix tree, vectorized over the ``(k,)``
    ``(P_d, P_i)`` axis. Returns the ``(k, num_x, 2^m)`` block per ``m``.

    ``f(i, j)`` = probability of having consumed ``i`` input bits and
    emitted the first ``j`` output bits; ``P(y|x) = f(n, |y|)``. Depth
    ``j`` holds the ``2^j`` prefixes in counting order (child ``2c + b``
    extends parent ``c`` by bit ``b``), and the insertion and match
    terms, which read only the parent, broadcast over a trailing bit
    axis. Each entry takes the same float operations, in the same
    order, as in a separate DP per output length. Insertions are only
    possible while input remains (the channel stops once the queue is
    empty).
    """
    num_x, n = xs.shape
    k = pd.shape[0]
    pd = pd[:, None, None]
    pi = pi[:, None, None]
    half_ins = pi / 2.0
    # (1 - p_d - p_i) * [x_i == b], shape (k, num_x, 1, 2) per position i.
    pt = (1.0 - pd - pi)[..., None]
    pt_match = [
        pt * (xs[:, i, None, None] == np.arange(2)).astype(float)[None]
        for i in range(n)
    ]
    # Depth 0 (the empty output): only deletions can have consumed inputs.
    f = [np.ones((k, num_x, 1))]
    for _ in range(n):
        f.append(f[-1] * pd)
    blocks = [f[n]]
    for j in range(1, depth + 1):
        parents, f = f, []
        for i in range(0, n + 1):
            acc = np.zeros((k, num_x, 1 << (j - 1), 2))
            if i < n:
                # Insertion emitting the child's last bit, input untouched.
                acc += (half_ins * parents[i])[..., None]
            if i > 0:
                acc += pt_match[i - 1] * parents[i - 1][..., None]
                # Deletion consumes input i without emitting: same depth.
                acc += pd[..., None] * f[i - 1].reshape(acc.shape)
            f.append(acc.reshape(k, num_x, 1 << j))
        blocks.append(f[n])
    return blocks


def indel_block_transition_stack(
    n: int,
    grid: Sequence[Tuple[float, float]],
    *,
    max_extra: int = 4,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Truncated block tables for a whole ``(P_d, P_i)`` grid as a stack.

    Every grid point at the same ``(n, max_extra)`` shares the output
    alphabet and column layout, so one DP pass over the output prefix
    tree, vectorized over the grid (:func:`_prefix_tree_blocks`),
    yields every output length's block. They are stacked, with the
    truncated tail as an overflow column, into the
    ``(k, 2^n, num_outputs + 1)`` array the batched kernel consumes.
    Returns ``(stack, output_groups)``.
    """
    if not 1 <= n <= _MAX_BLOCK:
        raise ValueError(f"block length must be in [1, {_MAX_BLOCK}]")
    if not 0 <= max_extra <= _MAX_EXTRA:
        raise ValueError(f"max_extra must be in [0, {_MAX_EXTRA}]")
    points = [(float(pd), float(pi)) for pd, pi in grid]
    if not points:
        raise ValueError("grid must be non-empty")
    for pd, pi in points:
        if not 0.0 <= pd <= 1.0 or not 0.0 <= pi < 1.0:
            raise ValueError("probabilities out of range")
        if pd + pi > 1.0:
            raise ValueError("P_d + P_i must not exceed 1")
    pds = np.array([pd for pd, _ in points])
    pis = np.array([pi for _, pi in points])
    blocks = _prefix_tree_blocks(_strings_of_length(n), pds, pis, n + max_extra)
    groups = [_strings_of_length(m) for m in range(n + max_extra + 1)]
    transition = np.concatenate(blocks, axis=2)
    row_sums = transition.sum(axis=2)
    overflow = np.clip(1.0 - row_sums, 0.0, 1.0)[:, :, None]
    transition = np.concatenate([transition, overflow], axis=2)
    return transition, groups


@dataclass(frozen=True)
class IndelBlockResult:
    """Finite-block bound for the joint deletion-insertion channel.

    ``status`` is the terminal :class:`repro.numerics.SolverStatus` of
    the inner batched Blahut-Arimoto solve; a
    non-``converged`` value flags a bound built from a best-so-far
    iterate.
    """

    block_length: int
    deletion_prob: float
    insertion_prob: float
    lower_bound: float
    erasure_upper: float
    status: SolverStatus = SolverStatus.CONVERGED

    def __post_init__(self) -> None:
        validate_probability(self.deletion_prob, "deletion_prob")
        validate_probability(self.insertion_prob, "insertion_prob")


def _record_indel_status(result: IndelBlockResult) -> None:
    """Report a point's solver status: once when it is solved, and
    again on every sweep cache hit, so cold and warm sweeps record the
    same counts."""
    record_status(BATCH_SOLVER, result.status)


def _solve_indel_points(
    n: int,
    points: Sequence[Tuple[float, float]],
    max_extra: int,
    tol: float,
) -> List[IndelBlockResult]:
    """Solve a set of grid points with one batched kernel invocation."""
    stack, groups = indel_block_transition_stack(
        n, points, max_extra=max_extra
    )
    batch = blahut_arimoto_batch(stack, tol=tol)
    num_lengths = len(groups) + 1  # possible output lengths + overflow
    results = []
    for i, (pd, pi) in enumerate(points):
        capacity = float(batch.capacity[i])
        lower = max(0.0, (capacity - np.log2(num_lengths)) / n)
        results.append(
            IndelBlockResult(
                block_length=n,
                deletion_prob=pd,
                insertion_prob=pi,
                lower_bound=float(lower),
                erasure_upper=erasure_upper_bound(1, pd),
                status=batch.statuses[i],
            )
        )
        _record_indel_status(results[-1])
    return results


def indel_block_bound_sweep(
    grid: Sequence[Tuple[float, float]],
    *,
    block_length: int = 6,
    max_extra: int = 4,
) -> List[IndelBlockResult]:
    """Finite-block indel bounds over a ``(P_d, P_i)`` grid, batched.

    The only finite-block indel bound; a single point is a one-element
    grid. The lower bound applies Dobrushin's boundary correction
    ``log2`` of the number of possible per-block output lengths, and
    ``erasure_upper`` is the Theorem-1 bound. Every grid point's
    table comes out of one parameter-axis DP pass
    (:func:`indel_block_transition_stack`) and every Blahut-Arimoto
    solve runs inside one batched kernel invocation. Memoized per point
    through :func:`repro.store.cached_batch` under the
    ``indel_block_bound_batch`` namespace, so warm sweeps do zero
    solver work and partially-warm sweeps batch-solve only their
    missing points.
    """
    points = [(float(pd), float(pi)) for pd, pi in grid]
    if not points:
        return []
    tol = INDEL_BOUND_TOL
    params = [
        {
            "block_length": block_length,
            "deletion_prob": pd,
            "insertion_prob": pi,
            "max_extra": max_extra,
            "tol": tol,
        }
        for pd, pi in points
    ]
    return cached_batch(
        INDEL_BATCH_FN_ID,
        params,
        lambda misses: _solve_indel_points(
            block_length, [points[i] for i in misses], max_extra, tol
        ),
        fingerprint=code_fingerprint(_solve_indel_points),
        on_hit=_record_indel_status,
    )
