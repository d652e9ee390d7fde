"""Batched multi-channel solver kernels (stack-of-channels Blahut-Arimoto).

Every bound sweep in this package — the E9 deletion grid, the indel
``(P_d, P_i)`` grids, service query batches — evaluates the *same*
algorithm over many small channels. Solving them one at a time pays the
Python/numpy dispatch overhead per channel per iteration; these kernels
instead operate on a ``(k, nx, ny)`` **stack** of transition matrices
with one extra leading axis and einsum/broadcast throughout, so a
k-channel sweep costs one well-vectorized iteration loop.

Per-channel convergence is tracked with boolean masks: channels that
meet the duality-gap criterion freeze (their iterates stop updating and
drop out of the arithmetic) while stragglers keep iterating — the
kernel's cost tracks the *slowest* channel only in iteration count, not
in per-iteration width. The guard semantics mirror
:class:`repro.numerics.IterationGuard` exactly (aborted / converged /
diverged / stalled / max-iter classification in that order, best-so-far
fallback for non-converged channels), so a batched sweep reports the
same solver health the scalar loop would.

The O(k·nx·ny) inner primitive is one einsum divergence step
(:func:`_divergence_step`) shared by both kernels. The scalar
:func:`repro.infotheory.blahut_arimoto.blahut_arimoto` remains the
reference oracle — the parity suite holds this kernel to 1e-12 against
it per channel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..numerics import (
    SolverDiagnostics,
    SolverStatus,
    masked_log2,
    normalized_exp2,
    record_status,
    safe_log2,
    stage,
)
from .blahut_arimoto import BlahutArimotoResult

__all__ = [
    "BATCH_SOLVER",
    "BatchedBAResult",
    "PenalizedBABatchResult",
    "validate_transition_stack",
    "blahut_arimoto_batch",
    "penalized_blahut_arimoto_batch",
]

#: Solver name batched runs report under (status collector + diagnostics).
BATCH_SOLVER = "blahut_arimoto_batch"

#: Severity order used to summarize a stack's statuses into one
#: diagnostics status (worst wins; CONVERGED only if unanimous).
_SEVERITY = (
    SolverStatus.CONVERGED,
    SolverStatus.MAX_ITER,
    SolverStatus.STALLED,
    SolverStatus.DIVERGED,
    SolverStatus.ABORTED,
)


def _divergence_step(
    p: np.ndarray, w: np.ndarray, log_w: np.ndarray
) -> np.ndarray:
    """Per-input divergence for every channel in a stack.

    ``q_k = p_k @ W_k`` then ``d(k, x) = sum_y W (log_w - log2 q)`` for
    ``p`` of shape ``(k, nx)`` and ``w`` / ``log_w`` of shape
    ``(k, nx, ny)`` — the O(k * nx * ny) inner loop of both kernels.
    ``log2 q`` is floored via :func:`repro.numerics.safe_log2` so an
    underflowed output symbol gives a large-but-finite divergence
    instead of ``inf``.
    """
    q = np.einsum("kx,kxy->ky", p, w)
    log_q = safe_log2(q)
    return np.einsum("kxy,kxy->kx", w, log_w - log_q[:, None, :])


def validate_transition_stack(transitions: np.ndarray) -> np.ndarray:
    """Validate and return a ``(k, nx, ny)`` stack of channel matrices.

    Applies the same admission checks as the scalar solver — finite
    entries (checked explicitly, before they can trip the row-sum test
    with a confusing message), non-negative probabilities, rows summing
    to 1 — to every channel in the stack at once. A single ``(nx, ny)``
    matrix is promoted to a 1-stack.
    """
    w = np.asarray(transitions, dtype=float)
    if w.ndim == 2:
        w = w[None, :, :]
    if w.ndim != 3:
        raise ValueError("transitions must be a (k, nx, ny) channel stack")
    if w.shape[0] == 0:
        raise ValueError("channel stack is empty")
    if not np.all(np.isfinite(w)):
        raise ValueError("transition stack contains non-finite entries")
    if np.any(w < 0):
        raise ValueError("transition probabilities must be non-negative")
    if not np.allclose(w.sum(axis=2), 1.0, atol=1e-9):
        raise ValueError("transition matrix rows must each sum to 1")
    return w


def _initial_stack(
    initial_input: Optional[np.ndarray], k: int, nx: int
) -> np.ndarray:
    """Per-channel starting distributions with the scalar smoothing rule."""
    if initial_input is None:
        return np.full((k, nx), 1.0 / nx)
    p = np.asarray(initial_input, dtype=float)
    if p.shape == (nx,):
        p = np.broadcast_to(p, (k, nx)).copy()
    if p.shape != (k, nx):
        raise ValueError("initial_input has wrong shape")
    if np.any(p < 0) or not np.allclose(p.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("initial_input rows must be distributions")
    if np.any(p == 0):
        # Zero entries can never recover under the multiplicative
        # update; smooth (only) the rows that contain exact zeros so a
        # strictly positive start point passes through untouched.
        rows = np.any(p == 0, axis=1)
        smoothed = p[rows] + 1e-12
        p[rows] = smoothed / smoothed.sum(axis=1, keepdims=True)
    return p


@dataclass(frozen=True)
class BatchedBAResult:
    """Outcome of one batched Blahut-Arimoto run over a channel stack.

    All per-channel attributes are arrays indexed by the stack axis.

    Attributes
    ----------
    capacity:
        Capacity estimates, shape ``(k,)`` (best-so-far for channels
        with a non-``converged`` status, as in the scalar solver).
    input_distribution:
        Capacity-achieving inputs, shape ``(k, nx)``.
    iterations:
        Iterations each channel ran before freezing, shape ``(k,)``.
    converged:
        ``status == CONVERGED`` per channel, shape ``(k,)``.
    gap:
        Final duality gap per channel (best observed gap when not
        converged), shape ``(k,)``.
    statuses:
        Terminal :class:`repro.numerics.SolverStatus` per channel.
    diagnostics:
        Stack-level :class:`repro.numerics.SolverDiagnostics`: worst
        status, iteration count of the slowest channel, the max-gap
        trajectory tail, and per-status channel counts in ``notes``.
    """

    capacity: np.ndarray
    input_distribution: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    gap: np.ndarray
    statuses: Tuple[SolverStatus, ...]
    diagnostics: SolverDiagnostics

    def __len__(self) -> int:
        return self.capacity.shape[0]

    def unbatch(self) -> List[BlahutArimotoResult]:
        """Split into per-channel scalar-shaped results.

        Each entry mirrors what the scalar solver would return for that
        channel (capacity, distribution, iterations, status, gap); the
        shared stack-level diagnostics are attached to every entry.
        """
        return [
            BlahutArimotoResult(
                capacity=float(self.capacity[i]),
                input_distribution=self.input_distribution[i],
                iterations=int(self.iterations[i]),
                converged=bool(self.converged[i]),
                gap=float(self.gap[i]),
                status=self.statuses[i],
                diagnostics=self.diagnostics,
            )
            for i in range(len(self))
        ]


def _stack_diagnostics(
    statuses: Tuple[SolverStatus, ...],
    iterations: np.ndarray,
    gap: np.ndarray,
    tail: Deque[float],
) -> SolverDiagnostics:
    """Summarize a stack's per-channel outcomes into one diagnostics."""
    worst = max(statuses, key=_SEVERITY.index)
    finite_gaps = gap[np.isfinite(gap)]
    counts = {s: statuses.count(s) for s in _SEVERITY if s in statuses}
    notes = tuple(f"{s.value}={n}" for s, n in counts.items())
    return SolverDiagnostics(
        solver=BATCH_SOLVER,
        status=worst,
        iterations=int(iterations.max()) if iterations.size else 0,
        residual_tail=tuple(tail),
        best_residual=float(finite_gaps.max()) if finite_gaps.size else float("inf"),
        best_iteration=int(iterations.max()) if iterations.size else 0,
        notes=notes,
    )


def blahut_arimoto_batch(
    transitions: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    initial_input: Optional[np.ndarray] = None,
    stall_window: int = 200,
    divergence_factor: float = 1e6,
) -> BatchedBAResult:
    """Blahut-Arimoto over a ``(k, nx, ny)`` stack of channels at once.

    Semantics match running the scalar
    :func:`~repro.infotheory.blahut_arimoto.blahut_arimoto` (with its
    default guard: ``stall_window=200``, divergence at ``1e6 ×`` best)
    independently per channel — capacity, input distribution, and gap
    agree to 1e-12 — but the iteration is one vectorized loop whose
    per-sweep cost covers only the channels still active: early
    finishers freeze while stragglers iterate.

    Parameters
    ----------
    transitions:
        Channel stack ``(k, nx, ny)``; a single matrix is promoted to
        a 1-stack. All channels must share the alphabet shape — pad
        heterogeneous sweeps (see the bounds sweeps) before stacking.
    tol, max_iter, initial_input:
        As in the scalar solver; ``initial_input`` may be one ``(nx,)``
        row shared by the stack or a full ``(k, nx)`` array.
    stall_window, divergence_factor:
        Guard parameters (scalar defaults).
    """
    w = validate_transition_stack(transitions)
    k, nx, _ny = w.shape
    p = _initial_stack(initial_input, k, nx)
    log_w = masked_log2(w)

    iterations = np.zeros(k, dtype=np.int64)
    status_codes: List[Optional[SolverStatus]] = [None] * k
    best_gap = np.full(k, np.inf)
    best_iteration = np.zeros(k, dtype=np.int64)
    out_capacity = np.zeros(k)
    out_p = p.copy()
    out_gap = np.full(k, np.inf)
    have_best = np.zeros(k, dtype=bool)
    best_capacity = np.zeros(k)
    best_p = p.copy()
    active = np.ones(k, dtype=bool)
    tail: Deque[float] = deque(maxlen=8)

    with stage("solver"):
        while active.any():
            idx = np.nonzero(active)[0]
            pa = p[idx]
            d = _divergence_step(pa, w[idx], log_w[idx])
            capacity = np.einsum("kx,kx->k", pa, d)
            gap = d.max(axis=1) - capacity
            iterations[idx] += 1
            it = iterations[idx]
            tail.append(float(np.max(gap)))

            # Classification order mirrors IterationGuard.update:
            # non-finite -> aborted; best-so-far bookkeeping; gap <= tol
            # -> converged; divergence vs. best; stall window; max_iter.
            finite = np.isfinite(gap)
            improved = finite & (gap < best_gap[idx])
            imp = idx[improved]
            best_gap[imp] = gap[improved]
            best_iteration[imp] = it[improved]
            best_capacity[imp] = capacity[improved]
            best_p[imp] = pa[improved]
            have_best[imp] = True

            conv = finite & (gap <= tol)
            div = (
                finite
                & ~conv
                & np.isfinite(best_gap[idx])
                & (gap > divergence_factor * np.maximum(best_gap[idx], 1e-30))
            )
            stall = (
                finite
                & ~conv
                & ~div
                & (it - best_iteration[idx] >= stall_window)
            )
            capped = finite & ~conv & ~div & ~stall & (it >= max_iter)
            aborted = ~finite

            for status, mask in (
                (SolverStatus.ABORTED, aborted),
                (SolverStatus.CONVERGED, conv),
                (SolverStatus.DIVERGED, div),
                (SolverStatus.STALLED, stall),
                (SolverStatus.MAX_ITER, capped),
            ):
                if mask.any():
                    for channel in idx[mask]:
                        status_codes[channel] = status
            done = aborted | conv | div | stall | capped
            if done.any():
                # Terminal channels keep their *current* iterate here;
                # non-converged ones are replaced by best-so-far below.
                t = idx[done]
                out_capacity[t] = capacity[done]
                out_p[t] = pa[done]
                out_gap[t] = gap[done]
                active[t] = False
            cont = ~done
            if cont.any():
                ci = idx[cont]
                p[ci] = normalized_exp2(safe_log2(pa[cont]) + d[cont], axis=-1)

    statuses = tuple(
        s if s is not None else SolverStatus.MAX_ITER for s in status_codes
    )
    converged = np.array(
        [s is SolverStatus.CONVERGED for s in statuses], dtype=bool
    )
    # Honest fallback, as in the scalar solver: a non-converged channel
    # reports its best finite iterate, not its last one.
    fallback = ~converged & have_best
    out_capacity[fallback] = best_capacity[fallback]
    out_p[fallback] = best_p[fallback]
    out_gap[fallback] = best_gap[fallback]
    bad = ~np.isfinite(out_capacity)
    out_capacity[bad] = 0.0
    out_gap[bad] = np.inf

    for status in statuses:
        record_status(BATCH_SOLVER, status)
    return BatchedBAResult(
        capacity=np.maximum(0.0, out_capacity),
        input_distribution=out_p,
        iterations=iterations,
        converged=converged,
        gap=out_gap,
        statuses=statuses,
        diagnostics=_stack_diagnostics(statuses, iterations, out_gap, tail),
    )


@dataclass(frozen=True)
class PenalizedBABatchResult:
    """Outcome of the batched penalized (cost-constrained) BA inner solve.

    Attributes
    ----------
    input_distribution:
        Maximizing inputs per channel, shape ``(k, nx)``.
    converged:
        Whether each channel's duality gap met ``tol`` before the
        iteration cap, shape ``(k,)``. An unconverged inner solve is
        precisely what would otherwise silently contaminate an outer
        Dinkelbach residual — callers must surface it.
    iterations:
        Iterations each channel ran, shape ``(k,)``.
    """

    input_distribution: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


def penalized_blahut_arimoto_batch(
    transitions: np.ndarray,
    penalties: np.ndarray,
    *,
    log_w: Optional[np.ndarray] = None,
    tol: float = 1e-11,
    max_iter: int = 5000,
) -> PenalizedBABatchResult:
    """Maximize ``I(p, W_k) - p · penalties_k`` per channel in a stack.

    The Lagrangian (cost-constrained) Blahut-Arimoto inner step of
    Dinkelbach's method, batched. Converged channels freeze while the
    rest iterate, exactly like :func:`blahut_arimoto_batch`.

    Parameters
    ----------
    transitions:
        Stack ``(k, nx, ny)``; a single matrix is promoted to a 1-stack.
        Assumed pre-validated (the outer solver owns admission checks).
    penalties:
        Per-input penalties, shape ``(k, nx)`` (or ``(nx,)`` for a
        1-stack) — ``lambda * tau`` in the timed-DMC solve.
    log_w:
        Optional precomputed :func:`repro.numerics.masked_log2` of the
        stack; constant across an outer loop, so callers hoist it.
    """
    w = np.asarray(transitions, dtype=float)
    if w.ndim == 2:
        w = w[None, :, :]
    k, nx, _ny = w.shape
    pen = np.asarray(penalties, dtype=float)
    if pen.shape == (nx,):
        pen = pen[None, :]
    if pen.shape != (k, nx):
        raise ValueError("penalties must have shape (k, nx)")
    if log_w is None:
        log_w = masked_log2(w)
    elif log_w.ndim == 2:
        log_w = log_w[None, :, :]

    p = np.full((k, nx), 1.0 / nx)
    converged = np.zeros(k, dtype=bool)
    iterations = np.zeros(k, dtype=np.int64)
    active = np.ones(k, dtype=bool)
    while active.any():
        idx = np.nonzero(active)[0]
        pa = p[idx]
        d = _divergence_step(pa, w[idx], log_w[idx]) - pen[idx]
        value = np.einsum("kx,kx->k", pa, d)
        gap = d.max(axis=1) - value
        iterations[idx] += 1
        done = gap < tol
        converged[idx[done]] = True
        active[idx[done]] = False
        capped = ~done & (iterations[idx] >= max_iter)
        active[idx[capped]] = False
        cont = ~done & ~capped
        if cont.any():
            ci = idx[cont]
            p[ci] = normalized_exp2(safe_log2(pa[cont]) + d[cont], axis=-1)
    return PenalizedBABatchResult(
        input_distribution=p, converged=converged, iterations=iterations
    )
