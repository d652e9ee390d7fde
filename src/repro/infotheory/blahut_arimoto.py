"""Blahut-Arimoto algorithm for discrete memoryless channel capacity.

The algorithm alternates between the optimal "backward" conditional
distribution and the capacity-achieving input distribution, converging to
the channel capacity ``C = max_{p(x)} I(X; Y)``. It is the numerical
workhorse used to cross-check every closed-form capacity in this package
(erasure channels, M-ary symmetric converted channels, Z-channels, ...).

Both entry points call the one guarded iteration,
:func:`repro.infotheory.kernels.blahut_arimoto_batch`, which ends an
extreme-regime solve (``P_d -> 1``, near-degenerate rows) with an honest
:class:`repro.numerics.SolverStatus` and a certified bracket
``[capacity, capacity + gap]``.
:func:`blahut_arimoto` solves one channel; :func:`blahut_arimoto_guarded`
adds the degradation ladder (damped updates, relaxed tolerance) over a
whole stack, for callers that must always get a finite answer.

Reference: R. Blahut, "Computation of channel capacity and
rate-distortion functions", IEEE Trans. IT, 1972.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

import numpy as np

from ..numerics import record_status
from ..store import cached_solve
from .kernels import (
    BatchedBAResult,
    BlahutArimotoResult,
    blahut_arimoto_batch,
    validate_transition_stack,
)

__all__ = [
    "BlahutArimotoResult",
    "blahut_arimoto",
    "blahut_arimoto_guarded",
]


@cached_solve("blahut_arimoto")
def blahut_arimoto(
    transition: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    initial_input: Optional[np.ndarray] = None,
    damping: float = 0.0,
) -> BlahutArimotoResult:
    """Compute DMC capacity via the Blahut-Arimoto iteration.

    A one-channel call of
    :func:`repro.infotheory.kernels.blahut_arimoto_batch` on the
    ``(nx, ny)`` row-stochastic matrix *transition*; the keywords are
    the kernel's. Memoized through :mod:`repro.store` when a result
    store is active (``REPRO_STORE_DIR`` or
    :func:`repro.store.use_store`); with no store the decorator is a
    bit-exact pass-through.

    Returns
    -------
    BlahutArimotoResult
        The true capacity lies in ``[capacity, capacity + gap]`` on
        every status; ``converged`` means ``gap <= tol``, and otherwise
        ``status`` says how the solve ended.
    """
    w = np.asarray(transition, dtype=float)
    if w.ndim != 2:
        raise ValueError("transition must be a 2-D matrix P(y|x)")
    batch: BatchedBAResult = blahut_arimoto_batch(
        w[None],
        tol=tol,
        max_iter=max_iter,
        initial_input=initial_input,
        damping=damping,
    )
    return batch.unbatch()[0]


#: Degradation ladder of :func:`blahut_arimoto_guarded` as
#: ``(damping, tolerance scale)`` rungs: the plain iteration, damping to
#: settle oscillation/stall, then heavy damping with a relaxed tolerance
#: to accept a near-converged gap.
_DEGRADE_LADDER = ((0.0, 1.0), (0.5, 1.0), (0.9, 1e4))


def _guarded_stack(
    transitions: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    initial_input: Optional[np.ndarray] = None,
) -> List[BlahutArimotoResult]:
    """The degradation ladder over a channel stack; records nothing.

    Each rung is one batched solve of the channels that no earlier rung
    converged. Per channel it keeps the converged attempt, otherwise the
    attempt with the lowest gap (ties go to the earlier attempt), and
    sets ``diagnostics.retries`` to the number of extra attempts that
    channel ran.
    """
    w = validate_transition_stack(transitions)
    init = None if initial_input is None else np.asarray(initial_input, dtype=float)
    attempts: List[List[BlahutArimotoResult]] = [[] for _ in range(len(w))]
    todo = list(range(len(w)))
    for damping, tol_scale in _DEGRADE_LADDER:
        # Annotated so the effect analysis can type the .unbatch() call.
        batch: BatchedBAResult = blahut_arimoto_batch(
            w[todo],
            tol=tol * tol_scale,
            max_iter=max_iter,
            initial_input=init if init is None or init.ndim == 1 else init[todo],
            damping=damping,
        )
        for i, result in zip(todo, batch.unbatch()):
            attempts[i].append(result)
        todo = [i for i in todo if not attempts[i][-1].converged]
        if not todo:
            break
    chosen = []
    for tried in attempts:
        best = tried[-1] if tried[-1].converged else min(tried, key=lambda r: r.gap)
        if len(tried) > 1 and best.diagnostics is not None:
            retried = replace(best.diagnostics, retries=len(tried) - 1)
            best = replace(best, diagnostics=retried)
        chosen.append(best)
    return chosen


def _record_guarded_statuses(results: List[BlahutArimotoResult]) -> None:
    """Report each channel's terminal status to the status collector;
    also replayed on a cache hit, so a warm run surfaces the same
    solver health the cold run observed."""
    for result in results:
        record_status("blahut_arimoto", result.status)


@cached_solve("blahut_arimoto_guarded", on_hit=_record_guarded_statuses)
def blahut_arimoto_guarded(
    transitions: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    initial_input: Optional[np.ndarray] = None,
) -> List[BlahutArimotoResult]:
    """Blahut-Arimoto under the full graceful-degradation policy.

    Takes one ``(nx, ny)`` matrix or a ``(k, nx, ny)`` stack and returns
    one result per channel (a single matrix is a one-element stack:
    ``[r] = blahut_arimoto_guarded(w)``). Runs the plain iteration
    first; channels that end non-``converged`` are retried with damped
    updates, then with heavy damping and a relaxed tolerance, each rung
    as one batched solve over the channels still unconverged. Always
    returns finite estimates: per channel the converged attempt, or
    the best-so-far attempt with an honest status. Each channel's
    terminal status is reported to the experiment runner's status
    collector (:func:`repro.numerics.collect_solver_statuses`).
    """
    results = _guarded_stack(
        transitions, tol=tol, max_iter=max_iter, initial_input=initial_input
    )
    _record_guarded_statuses(results)
    return results
