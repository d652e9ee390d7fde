"""Capacity of a general DMC with input-dependent symbol durations.

Generalizes the Moskowitz-Greenwald-Kang timed Z-channel: any discrete
memoryless channel whose input ``x`` occupies the channel for ``tau(x)``
time units has capacity (bits per time unit)

    C = max_p I(p, W) / T(p),      T(p) = sum_x p(x) tau(x).

The fractional program is solved with Dinkelbach's method: for a rate
guess ``lambda`` maximize ``F(p) = I(p, W) - lambda T(p)`` (a concave
program solved by a penalized Blahut-Arimoto iteration), then update
``lambda = I/T`` at the maximizer; ``lambda`` converges monotonically to
the capacity. The inner penalized solve is the package's one
Blahut-Arimoto loop, :func:`repro.infotheory.blahut_arimoto_batch`, on a
1-stack with ``penalties = lambda * tau``. Cross-checks in the test suite:
the timed Z-channel and Shannon's noiseless channels with non-uniform
durations both drop out as special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..infotheory.entropy import mutual_information
from ..infotheory.kernels import blahut_arimoto_batch, validate_transition_stack
from ..numerics import (
    IterationGuard,
    SolverDiagnostics,
    SolverStatus,
    record_status,
)
from ..store import cached_solve

__all__ = ["TimedDMCResult", "timed_dmc_capacity"]

#: Status collector name for the inner penalized-BA solves; only
#: *unconverged* inner solves are recorded, under the kernel's terminal
#: status (an unconverged inner solve contaminates the outer Dinkelbach
#: residual and must be visible, not silent).
INNER_SOLVER = "timed_dmc_inner"

#: Duality-gap tolerance of each inner penalized solve.
INNER_TOL = 1e-11


@dataclass(frozen=True)
class TimedDMCResult:
    """Capacity of a timed DMC.

    Attributes
    ----------
    capacity:
        Bits per time unit.
    input_distribution:
        Capacity-achieving input distribution.
    mean_time:
        Expected symbol duration under that distribution.
    bits_per_symbol:
        ``I`` at the optimum (= capacity * mean_time).
    iterations:
        Dinkelbach outer iterations used.
    status:
        Terminal :class:`repro.numerics.SolverStatus` of the outer
        Dinkelbach loop.
    inner_statuses:
        Terminal kernel status of every inner penalized Blahut-Arimoto
        solve that did not converge, in solve order (empty when all
        converged). The outer residual (and hence ``status``) was then
        computed from an unconverged maximizer, and the capacity may be
        less accurate than ``status`` suggests.
    diagnostics:
        Outer-guard trace (:class:`repro.numerics.SolverDiagnostics`);
        its notes record the count of unconverged inner solves.
    """

    capacity: float
    input_distribution: np.ndarray
    mean_time: float
    bits_per_symbol: float
    iterations: int
    status: SolverStatus = SolverStatus.CONVERGED
    inner_statuses: Tuple[SolverStatus, ...] = ()
    diagnostics: Optional[SolverDiagnostics] = None

    @property
    def inner_converged(self) -> bool:
        """Whether every inner penalized solve converged."""
        return not self.inner_statuses


def _replay_timed_status(result: TimedDMCResult) -> None:
    """Report the stored statuses on a cache hit (warm runs surface the
    same solver health as the cold solve)."""
    for inner in result.inner_statuses:
        record_status(INNER_SOLVER, inner)
    record_status("timed_dmc", result.status)


@cached_solve("timed_dmc", on_hit=_replay_timed_status)
def timed_dmc_capacity(
    transition: np.ndarray,
    durations: np.ndarray,
    *,
    tol: float = 1e-10,
    max_outer: int = 100,
    inner_max_iter: int = 5000,
) -> TimedDMCResult:
    """Capacity (bits per time unit) of a DMC with per-input durations.

    Memoized through :mod:`repro.store` when a result store is active;
    pass-through (bit-exact) otherwise.

    Parameters
    ----------
    transition:
        Row-stochastic ``P(y|x)`` of shape ``(nx, ny)``, admitted by
        :func:`repro.infotheory.validate_transition_stack` (finite,
        non-negative, rows summing to 1).
    durations:
        Positive per-input occupation times, length ``nx``.
    tol, max_outer:
        Convergence tolerance and iteration cap of the outer
        Dinkelbach loop.
    inner_max_iter:
        Iteration cap of each inner penalized Blahut-Arimoto solve.
        An inner solve that ends unconverged does not abort the outer
        loop, but is surfaced through ``inner_statuses`` and the
        diagnostics notes.
    """
    w = np.asarray(transition, dtype=float)
    tau = np.asarray(durations, dtype=float)
    if w.ndim != 2:
        raise ValueError("transition must be a 2-D matrix")
    stack = validate_transition_stack(w)
    if tau.shape != (w.shape[0],):
        raise ValueError("durations must match the input alphabet")
    if np.any(tau <= 0):
        raise ValueError("durations must be positive")

    lam = 0.0
    p = np.full(w.shape[0], 1.0 / w.shape[0])
    guard = IterationGuard(
        "timed_dmc", max_iter=max_outer, tol=tol, stall_window=20
    )
    status: Optional[SolverStatus] = None
    inner_statuses: List[SolverStatus] = []
    # No stage("solver") here: the kernel times its own loop, and a
    # nested stage of the same name would count those seconds twice.
    while status is None:
        inner = blahut_arimoto_batch(
            stack, tol=INNER_TOL, max_iter=inner_max_iter, penalties=lam * tau
        )
        p = inner.input_distribution[0]
        if not inner.converged[0]:
            inner_statuses.append(inner.statuses[0])
            record_status(INNER_SOLVER, inner.statuses[0])
        info = mutual_information(p, w)
        mean_t = float(p @ tau)
        new_lam = info / mean_t
        status = guard.update(abs(new_lam - lam), value=(new_lam, p))
        lam = new_lam
    if status is not SolverStatus.CONVERGED and guard.best_value is not None:
        lam, p = guard.best_value
    if not np.isfinite(lam):
        lam, p = 0.0, np.full(w.shape[0], 1.0 / w.shape[0])
    record_status("timed_dmc", status)
    notes = (
        (f"unconverged_inner_solves={len(inner_statuses)}",)
        if inner_statuses
        else ()
    )
    info = mutual_information(p, w)
    mean_t = float(p @ tau)
    return TimedDMCResult(
        capacity=float(lam),
        input_distribution=p,
        mean_time=mean_t,
        bits_per_symbol=info,
        iterations=guard.iterations,
        status=status,
        inner_statuses=tuple(inner_statuses),
        diagnostics=guard.diagnostics(notes=notes),
    )
