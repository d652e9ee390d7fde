"""Numerical capacity bounds for the (no-feedback) deletion channel.

The paper (Section 4.1) notes that the exact capacity of
deletion-insertion channels is unknown and points to the computational
bounds literature (Dobrushin; Vvedenskaya & Dobrushin; Dolgopolov).
This module implements laptop-scale versions of those computations for
the i.i.d. deletion channel, where each input symbol is independently
deleted with probability ``p_d``:

* :func:`gallager_lower_bound` — the classic achievability bound
  ``C >= 1 - H(p_d)`` (binary, ``p_d <= 1/2``; 0 above), from
  sequential-decoding arguments of the Gallager/Zigangirov school
  (ref [12]).
* :func:`deletion_block_transition_stack` / :func:`block_bound_sweep`
  — exact finite-block computation in the style of Vvedenskaya &
  Dobrushin (1968) over a whole ``p_d`` grid: build the full
  ``P(y|x)`` table for blocks of length ``n`` (outputs are all
  subsequences), run Blahut-Arimoto for ``max I_n``, and convert to a
  capacity *lower* bound via Dobrushin's near-superadditivity
  ``C >= (max I_n - log2(n+1)) / n``. A single point is a one-element
  grid.
* :func:`erasure_upper_bound_binary` — the genie bound ``1 - p_d``
  (paper Theorem 1 with N = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..infotheory.entropy import binary_entropy
from ..infotheory.kernels import BATCH_SOLVER, blahut_arimoto_batch
from ..numerics import SolverStatus, record_status
from ..store import cached_batch, code_fingerprint

__all__ = [
    "gallager_lower_bound",
    "erasure_upper_bound_binary",
    "subsequence_embedding_counts",
    "deletion_block_transition_stack",
    "BlockBoundResult",
    "block_bound_sweep",
]

_MAX_EXACT_BLOCK = 12

#: Store namespace for the sweep's per-point entries. The ``_batch``
#: suffix is kept so that existing stores keep hitting.
BLOCK_BOUND_BATCH_FN_ID = "deletion_block_bound_batch"

#: Bracket-width tolerance of the sweep's Blahut-Arimoto solves. It is
#: part of every point's store key, so editing it misses the store.
BLOCK_BOUND_TOL = 1e-9


def gallager_lower_bound(deletion_prob: float) -> float:
    """Gallager's achievability bound ``1 - H(p_d)`` bits/symbol for
    ``p_d <= 1/2``, and 0 above.

    Derived from random convolutional codes with sequential decoding
    over the binary deletion channel; loose for small ``p_d`` but the
    standard quick reference point. ``1 - H(p_d)`` rises again past
    ``p_d = 1/2`` (to 1 at ``p_d = 1``), where it is no bound at all and
    would exceed the erasure upper bound ``1 - p_d``.
    """
    if not 0.0 <= deletion_prob <= 1.0:
        raise ValueError("deletion_prob must be in [0, 1]")
    if deletion_prob > 0.5:
        return 0.0
    return max(0.0, 1.0 - float(binary_entropy(deletion_prob)))


def erasure_upper_bound_binary(deletion_prob: float) -> float:
    """The genie (erasure) bound ``1 - p_d`` — paper eq. (1), N = 1."""
    if not 0.0 <= deletion_prob <= 1.0:
        raise ValueError("deletion_prob must be in [0, 1]")
    return 1.0 - deletion_prob


def _all_binary_strings(max_len: int) -> List[np.ndarray]:
    """All binary strings of length 0..max_len, grouped by length."""
    groups = []
    for m in range(max_len + 1):
        if m == 0:
            groups.append(np.zeros((1, 0), dtype=np.int8))
            continue
        count = 1 << m
        codes = np.arange(count, dtype=np.int64)
        bits = ((codes[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1).astype(
            np.int8
        )
        groups.append(bits)
    return groups


def subsequence_embedding_counts(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Count subsequence embeddings ``N(x, y)`` for all pairs.

    Parameters
    ----------
    xs:
        Array of shape ``(num_x, n)`` of input strings.
    ys:
        Array of shape ``(num_y, m)`` with ``m <= n``.

    Returns
    -------
    ndarray of shape ``(num_x, num_y)`` where entry ``(a, b)`` is the
    number of ways ``ys[b]`` occurs as a subsequence of ``xs[a]`` —
    the combinatorial core of the deletion-channel likelihood
    ``P(y|x) = N(x, y) p_d^{n-m} (1-p_d)^m``.
    """
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.ndim != 2 or ys.ndim != 2:
        raise ValueError("xs and ys must be 2-D (batch, length) arrays")
    num_x, n = xs.shape
    num_y, m = ys.shape
    if m > n:
        return np.zeros((num_x, num_y), dtype=np.float64)
    # dp[j] = number of embeddings of y[:j] into the processed prefix of
    # x, vectorized over all (x, y) pairs. Iterate j descending so each
    # x-position is used at most once per embedding.
    dp = [np.zeros((num_x, num_y), dtype=np.float64) for _ in range(m + 1)]
    dp[0][:] = 1.0
    for i in range(n):
        xi = xs[:, i][:, None]  # (num_x, 1)
        for j in range(min(i + 1, m), 0, -1):
            match = (xi == ys[:, j - 1][None, :]).astype(np.float64)
            dp[j] += match * dp[j - 1]
    return dp[m]


def deletion_block_transition_stack(
    n: int, deletion_probs: Sequence[float]
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Block transition tables for a whole ``p_d`` grid as one stack.

    Inputs are all ``2^n`` binary strings of length *n*; outputs are
    all binary strings of length ``0..n``. Entry ``(x, y)`` is
    ``N(x, y) p_d^{n-|y|} (1 - p_d)^{|y|}``, so every row sums to 1.
    The subsequence embedding counts ``N(x, y)`` do not depend on
    ``p_d``, only the weight does. This builder therefore runs the
    counting DP **once** per output length and broadcasts the
    per-point weights over a leading grid axis, producing the
    ``(k, 2^n, num_outputs)`` stack the batched Blahut-Arimoto kernel
    consumes directly.

    Returns ``(stack, output_groups)``, where *output_groups* lists
    the output strings by length (matching the column blocks, shared
    by every grid point).
    """
    if not 1 <= n <= _MAX_EXACT_BLOCK:
        raise ValueError(f"block length must be in [1, {_MAX_EXACT_BLOCK}]")
    pds = np.asarray(list(deletion_probs), dtype=float)
    if pds.ndim != 1 or pds.size == 0:
        raise ValueError("deletion_probs must be a non-empty 1-D sequence")
    if not np.all((pds >= 0) & (pds <= 1)):  # also rejects NaN
        raise ValueError("deletion_prob must be in [0, 1]")
    groups = _all_binary_strings(n)
    xs = groups[n]
    blocks = []
    for m, ys in enumerate(groups):
        counts = subsequence_embedding_counts(xs, ys)
        # Python-float powers, not vectorized ones: numpy's small-
        # integer-power fast path differs from libm pow by an ulp, and
        # the tests pin every table bitwise to a scalar oracle.
        weights = np.array(
            [(pd ** (n - m)) * ((1.0 - pd) ** m) for pd in pds.tolist()]
        )
        blocks.append(counts[None, :, :] * weights[:, None, None])
    return np.concatenate(blocks, axis=2), groups


@dataclass(frozen=True)
class BlockBoundResult:
    """Finite-block information bound for the deletion channel.

    Attributes
    ----------
    block_length:
        ``n``.
    lower_bound:
        Dobrushin-corrected capacity lower bound
        ``(max I_n - log2(n+1)) / n`` bits/symbol, where
        ``max I_n = max_{p(x^n)} I(X^n; Y)`` is the Blahut-Arimoto
        block information in bits.
    status:
        :class:`repro.numerics.SolverStatus` of the inner
        Blahut-Arimoto solve: ``converged`` means its bracket is no
        wider than :data:`BLOCK_BOUND_TOL`. On every status the bound uses
        the best lower end the solve reached, so it stays a lower bound.
    """

    block_length: int
    lower_bound: float
    status: SolverStatus = SolverStatus.CONVERGED


def _record_block_status(result: BlockBoundResult) -> None:
    """Report a point's final solver status: once when it is solved,
    and again on every sweep cache hit, so cold and warm sweeps record
    the same counts."""
    record_status(BATCH_SOLVER, result.status)


def _solve_block_points(
    n: int, pds: Sequence[float], tol: float
) -> List[BlockBoundResult]:
    """Solve a set of grid points as one batched Blahut-Arimoto call;
    each point ends exactly as if solved alone."""
    stack, _groups = deletion_block_transition_stack(n, pds)
    solved = blahut_arimoto_batch(stack, tol=tol).unbatch()
    results = []
    for ba in solved:
        lower = max(0.0, (ba.capacity - np.log2(n + 1)) / n)
        results.append(
            BlockBoundResult(
                block_length=n,
                lower_bound=float(lower),
                status=ba.status,
            )
        )
        _record_block_status(results[-1])
    return results


def block_bound_sweep(
    deletion_probs: Sequence[float],
    *,
    block_length: int = 8,
) -> List[BlockBoundResult]:
    """Finite-block bounds for a whole ``p_d`` grid, batched.

    The only finite-block deletion bound; a single point is a
    one-element grid. The embedding counts are built once
    (:func:`deletion_block_transition_stack`) and every grid point's
    Blahut-Arimoto runs inside one
    :func:`repro.infotheory.kernels.blahut_arimoto_batch` invocation.
    Memoized per point through :func:`repro.store.cached_batch` under
    the ``deletion_block_bound_batch`` namespace when a store is active
    — a warm sweep does zero solver work, and a partially-warm sweep
    batch-solves exactly its missing points.
    """
    pds = [float(p) for p in deletion_probs]
    if not pds:
        return []
    tol = BLOCK_BOUND_TOL
    params = [
        {"block_length": block_length, "deletion_prob": pd, "tol": tol}
        for pd in pds
    ]
    return cached_batch(
        BLOCK_BOUND_BATCH_FN_ID,
        params,
        lambda misses: _solve_block_points(
            block_length, [pds[i] for i in misses], tol
        ),
        fingerprint=code_fingerprint(_solve_block_points),
        on_hit=_record_block_status,
    )
