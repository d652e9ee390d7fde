"""Scalar reference oracles for the Blahut-Arimoto kernel.

``repro.infotheory`` has one Blahut-Arimoto loop, the batched
:func:`repro.infotheory.blahut_arimoto_batch`; the scalar solver and
the degradation ladder are calls of it. This module keeps the original
one-channel ``while`` loop under an :class:`repro.numerics.IterationGuard`
as the parity reference, and the per-channel degradation ladder over it
(:func:`repro.numerics.degrade_gracefully` with the package's rungs).
The kernel must match the loop to 1e-12 per channel, with the same
iteration count and terminal status.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.infotheory import BlahutArimotoResult
from repro.numerics import (
    IterationGuard,
    SolverStatus,
    degrade_gracefully,
    masked_log2,
    normalized_exp2,
    safe_log2,
    stage,
)

#: The rungs ``blahut_arimoto_guarded`` retries a non-converged channel
#: with: damped updates, then heavy damping and a relaxed tolerance.
DEGRADE_LADDER = (
    {"damping": 0.5},
    {"damping": 0.9, "tol_scale": 1e4},
)


def reference_blahut_arimoto(
    transition: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    initial_input: Optional[np.ndarray] = None,
    damping: float = 0.0,
) -> BlahutArimotoResult:
    """Compute DMC capacity via the scalar Blahut-Arimoto iteration.

    Parameters
    ----------
    transition:
        Row-stochastic matrix ``P(y|x)`` of shape ``(nx, ny)``. Must be
        finite; non-finite entries are rejected explicitly rather than
        left to trip the row-sum check.
    tol:
        Stopping threshold on the duality gap
        ``max_x D(W(.|x) || q) - I`` which sandwiches the true capacity.
    max_iter:
        Iteration cap.
    initial_input:
        Optional starting input distribution (defaults to uniform).
        Zero entries can never recover under the multiplicative update,
        so a start point containing exact zeros is smoothed slightly; a
        strictly positive start point is used exactly as given.
    damping:
        Convex-combination weight kept on the previous iterate
        (``0`` = plain BA update). Used by the degradation ladder to
        settle oscillating iterates; slows nominal convergence, so the
        default is off.

    Returns
    -------
    BlahutArimotoResult
        The capacity estimate is guaranteed to be within ``gap`` bits of
        the true capacity when ``converged`` is True; otherwise
        ``status`` says how the solve ended and the estimate is the
        best (finite) iterate seen.
    """
    w = np.asarray(transition, dtype=float)
    if w.ndim != 2:
        raise ValueError("transition must be a 2-D matrix P(y|x)")
    if not np.all(np.isfinite(w)):
        raise ValueError("transition matrix contains non-finite entries")
    if np.any(w < 0):
        raise ValueError("transition probabilities must be non-negative")
    if not np.allclose(w.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("transition matrix rows must each sum to 1")
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must be in [0, 1)")
    nx = w.shape[0]

    if initial_input is None:
        p = np.full(nx, 1.0 / nx)
    else:
        p = np.asarray(initial_input, dtype=float)
        if p.shape != (nx,):
            raise ValueError("initial_input has wrong shape")
        if np.any(p < 0) or not np.isclose(p.sum(), 1.0, atol=1e-9):
            raise ValueError("initial_input must be a distribution")
        if np.any(p == 0):
            # Zero entries can never recover; smooth slightly. A
            # strictly positive start point passes through untouched.
            p = (p + 1e-12) / (p + 1e-12).sum()

    log_w = masked_log2(w)

    guard = IterationGuard(
        "blahut_arimoto", max_iter=max_iter, tol=tol, stall_window=200
    )
    capacity = 0.0
    gap = float("inf")
    status: Optional[SolverStatus] = None
    with stage("solver"):
        while status is None:
            q = p @ w  # output distribution, shape (ny,)
            # D(W(.|x) || q) for each x, in bits.
            log_q = safe_log2(q)
            d = np.einsum("xy,xy->x", w, log_w - log_q[None, :])
            capacity = float(p @ d)  # lower bound: I(p, W)
            upper = float(d.max())  # upper bound on C
            gap = upper - capacity
            status = guard.update(gap, value=(capacity, p))
            if status is not None:
                break
            # Multiplicative update p_{t+1}(x) ∝ p_t(x) 2^{D(W(.|x)||q)},
            # computed as a stabilized base-2 softmax.
            p_next = normalized_exp2(safe_log2(p) + d)
            if damping > 0.0:
                p_next = (1.0 - damping) * p_next + damping * p
            p = p_next

    if status is not SolverStatus.CONVERGED and guard.best_value is not None:
        # Honest fallback: report the best finite iterate, not the last.
        capacity, p = guard.best_value
        gap = guard.best_residual
    if not np.isfinite(capacity):
        capacity, gap = 0.0, float("inf")

    return BlahutArimotoResult(
        capacity=max(0.0, capacity),
        input_distribution=p,
        iterations=guard.iterations,
        converged=status is SolverStatus.CONVERGED,
        gap=gap,
        status=status,
        diagnostics=guard.diagnostics(),
    )


def reference_blahut_arimoto_guarded(
    transition: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    initial_input: Optional[np.ndarray] = None,
) -> BlahutArimotoResult:
    """One channel through the degradation ladder, one scalar solve per
    rung: the first converged attempt, otherwise the lowest best gap
    (ties to the earlier attempt), with ``diagnostics.retries`` set."""

    def solve(damping: float = 0.0, tol_scale: float = 1.0) -> BlahutArimotoResult:
        return reference_blahut_arimoto(
            transition,
            tol=tol * tol_scale,
            max_iter=max_iter,
            initial_input=initial_input,
            damping=damping,
        )

    return degrade_gracefully(solve, DEGRADE_LADDER, solver="blahut_arimoto")
