"""Scalar reference oracles for the Blahut-Arimoto kernel.

``repro.infotheory`` has one Blahut-Arimoto loop, the batched
:func:`repro.infotheory.blahut_arimoto_batch`; the scalar solver is a
call of it. This module keeps a one-channel ``while`` loop under an
:class:`repro.numerics.IterationGuard` as the parity reference, with
the kernel's safeguarded over-relaxed step and stopped by the same
running bracket. The kernel must match the loop to 1e-12 per channel,
with the same iteration count and terminal status.

It also keeps a plain-step (``mu = 1``), unguarded loop as the
reference for plain Blahut-Arimoto: it stops on ``gap < tol`` or the
iteration cap, and returns the last iterate.

:func:`converted_channel` builds the transition matrix of the paper's
converted channel, the input the Theorem 5 closed form ``C_conv`` is
checked against by Blahut-Arimoto.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.infotheory import BlahutArimotoResult, m_ary_symmetric_channel
from repro.infotheory.kernels import (
    STEP_GROWTH,
    STEP_MAX,
    _divergence_step,
    _neg_entropy,
)
from repro.numerics import (
    IterationGuard,
    SolverStatus,
    normalized_exp2,
    safe_log2,
    stage,
)


def reference_blahut_arimoto(
    transition: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    durations: Optional[np.ndarray] = None,
) -> BlahutArimotoResult:
    """Compute DMC capacity via the scalar Blahut-Arimoto iteration.

    The step is the kernel's: ``p_{t+1} ∝ p_acc · 2^{mu d_acc}`` from
    the last accepted iterate, ``mu`` growing by ``STEP_GROWTH`` per
    accepted step up to ``STEP_MAX``; an over-relaxed iterate whose own
    gap ``max_x d - p . d`` exceeds the accepted one's is undone and
    redone with ``mu = 1``.

    Each iterate ``p_t`` gives a lower end ``I(p_t)`` and an upper end
    ``max_x D(W(.|x) || q_t)`` on the capacity. The loop keeps the
    running pair [max_t I(p_t), min_t max_x D_t] and feeds its width to
    an :class:`repro.numerics.IterationGuard` as the residual: the
    width never rises, and it falls exactly when an end moves, so the
    guard's stall window restarts on every move, as the kernel's does.
    (Once the width sits on its float floor, ends can still move by an
    ulp while the width cannot; there the kernel runs on and this loop
    stalls. The parity tests stop far above that floor.)

    Parameters
    ----------
    transition:
        Row-stochastic matrix ``P(y|x)`` of shape ``(nx, ny)``. Must be
        finite; non-finite entries are rejected explicitly rather than
        left to trip the row-sum check.
    tol:
        Stopping threshold on the running bracket's width.
    max_iter:
        Iteration cap.
    durations:
        Optional positive per-input durations ``tau``, shape ``(nx,)``:
        the loop then maximizes ``I(p, W) / (p . tau)``
        with the kernel's ends ``value / (p . tau)`` and
        ``max_x d(x) / tau_x`` and its step shift ``d - L* tau``.

    Returns
    -------
    BlahutArimotoResult
        The best lower end (floored at 0), the iterate that reached it,
        and the bracket width as ``gap``, on every status.
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
    nx = w.shape[0]
    p = np.full(nx, 1.0 / nx)

    # The kernel's own step: which iterate holds the best lower end is
    # decided at rounding level, so the oracle must round the same way.
    h = _neg_entropy(w[None])
    guard = IterationGuard(
        "blahut_arimoto",
        max_iter=max_iter,
        tol=tol,
        stall_window=200,
    )
    lower, upper, best_p = -np.inf, np.inf, p
    gap = np.inf
    # The safeguarded step: the last accepted iterate, its divergences
    # and its own gap, and the step size that made the current iterate.
    # An infinite acc_gap marks the current iterate as a plain step,
    # always accepted; the start point counts as one.
    acc_p, acc_d, acc_gap, mu = p, None, np.inf, 1.0
    status: Optional[SolverStatus] = None
    with stage("solver"):
        while status is None:
            # D(W(.|x) || q) for each x, in bits.
            d = _divergence_step(p[None], w[None], h)[0]
            value = float(np.einsum("x,x->", p, d))  # I(p, W)
            if durations is None:
                top = float(d.max())
            else:
                value = value / float(np.einsum("x,x->", p, durations))
                top = float((d / durations).max())
            if value > lower:
                lower, best_p = value, p
            upper = min(upper, top)
            # Never below the rounding of the ends it subtracts.
            gap = max(upper - lower, float(np.spacing(abs(upper))))
            # A non-finite iterate aborts the solve.
            status = guard.update(gap if np.isfinite(value) else np.inf)
            if status is not None:
                break
            # Accept an iterate whose own gap is no larger than the last
            # accepted one's; a rejected one is redone from that iterate
            # as a plain step.
            own_gap = top - value
            if own_gap <= acc_gap:
                acc_p, acc_d, acc_gap = p, d, own_gap
                mu = min(mu * STEP_GROWTH, STEP_MAX)
            else:
                acc_gap, mu = np.inf, 1.0
            # p_{t+1}(x) ∝ p_acc(x) 2^{mu D(W(.|x)||q_acc)}, computed as a
            # stabilized base-2 softmax; with durations each divergence
            # is first charged the best rate so far for its time.
            step = acc_d if durations is None else acc_d - lower * durations
            p = normalized_exp2(safe_log2(acc_p) + mu * step)

    if not np.isfinite(lower):
        lower, gap = 0.0, float("inf")

    return BlahutArimotoResult(
        capacity=max(0.0, lower),
        input_distribution=best_p,
        iterations=guard.iterations,
        converged=status is SolverStatus.CONVERGED,
        gap=gap,
        status=status,
    )


@dataclass(frozen=True)
class PlainReference:
    """Per-channel outcome of :func:`reference_plain_blahut_arimoto`:
    arrays over the stack axis, ``gap`` being each channel's last gap."""

    input_distribution: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    gap: np.ndarray


def reference_plain_blahut_arimoto(
    transitions: np.ndarray,
    *,
    tol: float = 1e-11,
    max_iter: int = 5000,
) -> PlainReference:
    """Maximize ``I(p, W_k)`` per channel of a ``(k, nx, ny)`` stack by
    plain Blahut-Arimoto steps, with no guard:
    a channel stops when its duality gap is below *tol* or at
    *max_iter*, keeping its last iterate. Same precomputed-entropy
    divergence as the kernel."""
    w = np.asarray(transitions, dtype=float)
    k, nx, _ny = w.shape
    h = _neg_entropy(w)

    out_p = np.empty((k, nx))
    out_gap = np.empty(k)
    converged = np.zeros(k, dtype=bool)
    iterations = np.zeros(k, dtype=np.int64)
    # Row j of the working arrays belongs to channel idx[j].
    idx = np.arange(k)
    p = np.full((k, nx), 1.0 / nx)
    it = 0
    while idx.size:
        it += 1
        d = _divergence_step(p, w, h)
        value = np.einsum("kx,kx->k", p, d)
        gap = d.max(axis=1) - value
        conv = gap < tol
        done = conv | (it >= max_iter)
        if done.any():
            t = idx[done]
            out_p[t] = p[done]
            out_gap[t] = gap[done]
            converged[t] = conv[done]
            iterations[t] = it
            keep = ~done
            idx, w, h, p, d = idx[keep], w[keep], h[keep], p[keep], d[keep]
        p = normalized_exp2(safe_log2(p) + d, axis=-1)
    return PlainReference(
        input_distribution=out_p,
        converged=converged,
        iterations=iterations,
        gap=out_gap,
    )


def converted_channel(bits_per_symbol: int, insertion_prob: float):
    """The converted channel of Wang & Lee Appendix A (Figure 5).

    After the counter protocol removes deletions (by resending) and
    re-aligns insertions (by skipping), each received position carries
    either the genuine message symbol or a uniformly random inserted
    symbol: an M-ary symmetric DMC, M = 2^N, with total error
    probability ``alpha * p_i``, ``alpha = (2^N - 1)/2^N`` (eq. 4).
    """
    m = 2**bits_per_symbol
    return m_ary_symmetric_channel(m, (m - 1) / m * insertion_prob)
