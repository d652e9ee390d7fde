"""Batched multi-channel solver kernels (stack-of-channels Blahut-Arimoto).

:func:`blahut_arimoto_batch` is the package's one Blahut-Arimoto
iteration. It runs over a ``(k, nx, ny)`` **stack** of transition
matrices with one extra leading einsum axis, so a k-channel sweep (the
E9 deletion grid, the indel grids, a service batch) costs one
vectorized loop; the scalar :func:`repro.infotheory.blahut_arimoto` is
a one-stack call, and :func:`repro.timing.timed_dmc_capacity` is a
one-stack call with per-input symbol ``durations``. Channels that reach
a terminal status drop out of the working arrays while stragglers
iterate.

Each iteration gives both ends of a bracket on the capacity: the
mutual information ``I(p_t)`` of the iterate is a lower end and
``max_x D(W(.|x) || q_t)`` an upper end, for any ``p_t``. The kernel
keeps the running pair [max_t I(p_t), min_t max_x D_t] per channel; its
width never rises, so it is the one stop rule (converged at width
<= tol, stalled when neither end moved for ``STALL_WINDOW``
iterations, aborted on a non-finite iterate, else ``max_iter``) and
every exit reports the best lower end, its iterate and the width.

The step is a safeguarded over-relaxed Blahut-Arimoto update,
``p_{t+1} ∝ p_t 2^{mu d_t}`` with ``d_t(x) = D(W(.|x) || q_t)``, after
the accelerated (natural-gradient) Blahut-Arimoto of Matz and Duhamel
(ITW 2004); ``mu = 1`` is the plain step. Per channel, ``mu`` starts
at 1 and each accepted step multiplies it by ``STEP_GROWTH``, up to
``STEP_MAX``. An over-relaxed iterate (``mu > 1``) whose own gap
``max_x d - p . d`` exceeds the gap of the last accepted iterate is
undone: the next iterate is the plain step from the accepted one,
which is always accepted, and ``mu`` restarts at 1. The merit is that
single-iterate gap, not ``I(p)``: near the optimum ``C - I(p)`` falls
with the square of the distance to it and sinks below the rounding of
``I``, while the gap falls linearly and stays visible. A rejected
iterate costs one divergence evaluation, and both of its ends still
enter the running bracket, since they bound the capacity for any
``p``.

With symbol durations ``tau`` the same loop maximizes the rate per unit
cost ``I(p) / T(p)``, ``T(p) = p . tau``. Its bracket is the dual of
capacity per unit cost (Verdu, IEEE Trans. IT 1990): ``I(p_t) / T(p_t)``
is a lower end, and ``max_x d_t(x) / tau_x`` an upper end for any
``p_t`` (the mediant inequality). The step shifts the divergences by
``L* tau``, ``L*`` being the channel's running best lower end:
``p_{t+1} ∝ p_t 2^{mu (d_t - L* tau)}``. With unit durations the shift
is a constant that the normalization removes, and without ``durations``
no ``tau`` term is evaluated at all.

The test suite keeps a scalar loop with the same step under
:class:`repro.numerics.IterationGuard` as the reference oracle and
holds this kernel to 1e-12 against it per channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..numerics import (
    SolverStatus,
    masked_log2,
    normalized_exp2,
    safe_log2,
    stage,
)

__all__ = [
    "BATCH_SOLVER",
    "BlahutArimotoResult",
    "BatchedBAResult",
    "validate_transition_stack",
    "blahut_arimoto_batch",
]

#: Solver name batched runs report under in the status collector.
BATCH_SOLVER = "blahut_arimoto_batch"

#: Iterations in which neither end of a channel's bracket moves before
#: it is ``stalled``.
STALL_WINDOW = 200

#: Factor by which each accepted step grows the next step size.
STEP_GROWTH = 1.25

#: Largest step size; keeps ``mu * d`` finite.
STEP_MAX = 1e6

def _neg_entropy(w: np.ndarray) -> np.ndarray:
    """``h(k, x) = sum_y W log2 W`` (minus each row's entropy) for a
    ``(k, nx, ny)`` stack; structural zeros contribute nothing. Constant
    across a solve, so the kernel computes it once."""
    return np.einsum("kxy,kxy->kx", w, masked_log2(w))


def _divergence_step(p: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-input divergence for every channel in a stack.

    ``q_k = p_k @ W_k`` then ``d(k, x) = h(k, x) - sum_y W log2 q`` for
    ``p`` / ``h`` of shape ``(k, nx)`` (``h`` from :func:`_neg_entropy`)
    and ``w`` of shape ``(k, nx, ny)`` — two batched matrix-vector
    products, the O(k * nx * ny) inner loop of the kernel. ``log2 q``
    is floored via :func:`repro.numerics.safe_log2` so an underflowed
    output symbol gives a large-but-finite divergence instead of
    ``inf``.
    """
    q = np.matmul(p[:, None, :], w)[:, 0, :]
    log_q = safe_log2(q)
    return h - np.matmul(w, log_q[:, :, None])[:, :, 0]


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


@dataclass(frozen=True)
class BlahutArimotoResult:
    """Outcome of a Blahut-Arimoto run on one channel.

    Attributes
    ----------
    capacity:
        Channel capacity estimate in bits per channel use: the best
        lower end ``max_t I(p_t)`` the solve reached, whatever its
        status.
    input_distribution:
        The iterate that reached ``capacity``.
    iterations:
        Number of iterations performed.
    converged:
        Whether the duality-gap stopping criterion was met
        (equivalent to ``status is SolverStatus.CONVERGED``).
    gap:
        Width of the running bracket ``min_t max_x D_t - max_t I(p_t)``,
        never below the rounding of its ends. The capacity lies in
        ``[capacity, capacity + gap]``, up to that rounding, on every
        status: ``capacity + gap`` is a certified upper end (for a
        timed solve, of the rate per unit time).
    status:
        Terminal :class:`repro.numerics.SolverStatus` of the solve.
    """

    capacity: float
    input_distribution: np.ndarray
    iterations: int
    converged: bool
    gap: float
    status: SolverStatus = SolverStatus.CONVERGED


@dataclass(frozen=True)
class BatchedBAResult:
    """Outcome of one batched Blahut-Arimoto run over a channel stack.

    All per-channel attributes are arrays indexed by the stack axis.

    Attributes
    ----------
    capacity:
        Best lower ends ``max_t I(p_t)``, shape ``(k,)``.
    input_distribution:
        The iterates that reached them, shape ``(k, nx)``.
    iterations:
        Iterations each channel ran before freezing, shape ``(k,)``.
    converged:
        ``status == CONVERGED`` per channel, shape ``(k,)``.
    gap:
        Running bracket width per channel, shape ``(k,)``:
        ``capacity + gap`` is a certified upper end on every status, as
        in :class:`BlahutArimotoResult`.
    statuses:
        Terminal :class:`repro.numerics.SolverStatus` per channel.
    """

    capacity: np.ndarray
    input_distribution: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    gap: np.ndarray
    statuses: Tuple[SolverStatus, ...]

    def __len__(self) -> int:
        return self.capacity.shape[0]

    def unbatch(self) -> List[BlahutArimotoResult]:
        """Split into per-channel scalar-shaped results.

        Each entry is what :func:`repro.infotheory.blahut_arimoto`
        returns for that channel alone (capacity, distribution,
        iterations, status, gap).
        """
        return [
            BlahutArimotoResult(
                capacity=float(self.capacity[i]),
                input_distribution=self.input_distribution[i],
                iterations=int(self.iterations[i]),
                converged=bool(self.converged[i]),
                gap=float(self.gap[i]),
                status=self.statuses[i],
            )
            for i in range(len(self))
        ]


def _per_input(values: np.ndarray, name: str, k: int, nx: int) -> np.ndarray:
    """One ``(nx,)`` row broadcast over the stack, or a ``(k, nx)`` array."""
    arr = np.asarray(values, dtype=float)
    if arr.shape == (nx,):
        arr = np.broadcast_to(arr, (k, nx))
    if arr.shape != (k, nx):
        raise ValueError(f"{name} must have shape (k, nx) or (nx,)")
    return arr


def blahut_arimoto_batch(
    transitions: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    durations: Optional[np.ndarray] = None,
) -> BatchedBAResult:
    """Blahut-Arimoto over a ``(k, nx, ny)`` stack of channels at once.

    Each channel starts from the uniform input and ends exactly as if
    solved alone; its stack-mates only share the loop. Records no
    solver status.

    The loop maximizes ``I(p, W_k) / (p . tau_k)`` per channel, with
    unit durations by default (plain capacity). ``capacity`` is the
    objective's best lower end floored at 0; with *durations* it is in
    bits per time unit.

    Parameters
    ----------
    transitions:
        Channel stack ``(k, nx, ny)``; a single matrix is promoted to
        a 1-stack. All channels share the alphabet shape (pad
        heterogeneous sweeps before stacking).
    tol:
        Stopping threshold on the running bracket width
        ``min_t max_x D(W(.|x) || q_t) - max_t I(p_t)`` (each end
        divided by its durations when given).
    max_iter:
        Iteration cap.
    durations:
        Positive, finite per-input symbol durations: one ``(nx,)`` row
        for the stack or a ``(k, nx)`` array (default none: unit cost).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    w = validate_transition_stack(transitions)
    k, nx, _ny = w.shape
    p = np.full((k, nx), 1.0 / nx)
    h = _neg_entropy(w)
    # Without durations no tau term is evaluated: unit cost is the
    # plain loop's arithmetic, bit for bit.
    tau = None if durations is None else _per_input(durations, "durations", k, nx)
    if tau is not None and not np.all((tau > 0) & np.isfinite(tau)):
        raise ValueError("durations must be positive and finite")

    statuses = [SolverStatus.MAX_ITER] * k
    iterations = np.zeros(k, dtype=np.int64)
    out_capacity = np.zeros(k)
    out_p = np.empty((k, nx))
    out_gap = np.full(k, np.inf)
    # Working state of the active channels only: row j of every array
    # below belongs to channel idx[j]. All active channels started
    # together, so they share one iteration count. Per channel the
    # state is the running certificate: the best lower end with its
    # iterate, the best upper end, and the last iteration either moved.
    idx = np.arange(k)
    best_lower = np.full(k, -np.inf)
    best_p = p
    best_upper = np.full(k, np.inf)
    moved = np.zeros(k, dtype=np.int64)
    # The step: the last accepted iterate with its divergences and
    # single-iterate gap, and the step size mu that made the current
    # iterate. An infinite acc_gap marks the current iterate as a plain
    # step, which is always accepted; the start point counts as one.
    # The loop writes none of p, d, best_p and these arrays in place,
    # so they may share memory.
    acc_p, acc_d = p, np.zeros((k, nx))
    acc_gap = np.full(k, np.inf)
    mu = np.ones(k)
    it = 0

    with stage("solver"):
        while True:
            it += 1
            d = _divergence_step(p, w, h)
            lower = np.einsum("kx,kx->k", p, d)
            if tau is None:
                upper = np.max(d, axis=1)
            else:
                # Both ends per unit time; the upper end holds for any p
                # by the mediant inequality.
                lower = lower / np.einsum("kx,kx->k", p, tau)
                upper = np.max(d / tau, axis=1)
            rose = lower > best_lower
            fell = upper < best_upper
            if rose.all():
                # The common case; these arrays are fresh every sweep.
                best_lower, best_p = lower, p
            elif rose.any():
                best_lower = np.where(rose, lower, best_lower)
                best_p = np.where(rose[:, None], p, best_p)
            best_upper = np.where(fell, upper, best_upper)
            moved[rose | fell] = it
            # [best_lower, best_upper] brackets the optimum whatever the
            # iterate, so its width never rises. It is kept above the
            # rounding of the ends it subtracts, so a tol below float
            # resolution stalls instead of "converging" on rounding.
            gap = np.maximum(best_upper - best_lower, np.spacing(np.abs(best_upper)))

            # An over-relaxed iterate whose own gap exceeds the last
            # accepted one is undone, and the next step from the
            # accepted iterate is a plain one.
            own_gap = upper - lower
            accept = own_gap <= acc_gap
            if accept.all():
                acc_p, acc_d, acc_gap = p, d, own_gap
                mu = np.minimum(mu * STEP_GROWTH, STEP_MAX)
            else:
                acc_p = np.where(accept[:, None], p, acc_p)
                acc_d = np.where(accept[:, None], d, acc_d)
                acc_gap = np.where(accept, own_gap, np.inf)
                mu = np.where(accept, np.minimum(mu * STEP_GROWTH, STEP_MAX), 1.0)

            # A non-finite iterate (any non-finite divergence reaches the
            # lower end) aborts; else gap <= tol converges; else neither
            # end moving for STALL_WINDOW iterations stalls.
            finite = np.isfinite(lower)
            conv = finite & (gap <= tol)
            done = ~finite | conv
            stall = ~done & (moved <= it - STALL_WINDOW)
            done = done | stall
            if it >= max_iter:
                done[:] = True
            if done.any():
                for status, mask in (
                    (SolverStatus.ABORTED, ~finite),
                    (SolverStatus.CONVERGED, conv),
                    (SolverStatus.STALLED, stall),
                ):
                    for channel in idx[mask]:
                        statuses[channel] = status
                # Every exit reports the certificate: the best lower
                # end, the iterate that reached it, and the bracket width.
                t = idx[done]
                out_capacity[t] = best_lower[done]
                out_gap[t] = gap[done]
                out_p[t] = best_p[done]
                iterations[t] = it
                if done.all():
                    break
                keep = ~done
                idx, w, h = idx[keep], w[keep], h[keep]
                if tau is not None:
                    tau = tau[keep]
                best_lower, best_p = best_lower[keep], best_p[keep]
                best_upper, moved = best_upper[keep], moved[keep]
                acc_p, acc_d = acc_p[keep], acc_d[keep]
                acc_gap, mu = acc_gap[keep], mu[keep]
            # Multiplicative update from the accepted iterate,
            # p(x) <- p(x) 2^{mu D(W(.|x)||q)}, as a stabilized base-2
            # softmax; mu = 1 is the plain Blahut-Arimoto step. With
            # durations each input's divergence is first charged the
            # best rate so far for its time, D - L* tau.
            step = acc_d if tau is None else acc_d - best_lower[:, None] * tau
            p = normalized_exp2(safe_log2(acc_p) + mu[:, None] * step, axis=-1)

    bad = ~np.isfinite(out_capacity)
    out_capacity[bad] = 0.0
    out_gap[bad] = np.inf
    final = tuple(statuses)
    return BatchedBAResult(
        capacity=np.maximum(0.0, out_capacity),
        input_distribution=out_p,
        iterations=iterations,
        converged=np.array([s is SolverStatus.CONVERGED for s in final]),
        gap=out_gap,
        statuses=final,
    )
