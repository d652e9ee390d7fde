"""Iteration guards: NaN/divergence/stall detection for iterative solvers.

An :class:`IterationGuard` wraps the inner loop of an iterative solver
(Blahut-Arimoto, Dinkelbach, belief propagation, sequential Monte
Carlo). The solver reports a residual each iteration; the guard
classifies the trajectory into a :class:`SolverStatus`, keeps the
best-so-far iterate, and assembles :class:`SolverDiagnostics` — so a
solve that stalls in an extreme channel regime returns an honest
partial answer instead of spinning, NaN-poisoning, or crashing an
experiment campaign hours in.

Guarded solvers report their terminal status through
:func:`repro.numerics.record_status` (:mod:`.telemetry`), so the
experiment runner can surface a stalled solve inside a 10k-replication
sweep instead of letting it vanish.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Deque, Optional, Tuple

import numpy as np

__all__ = [
    "SolverStatus",
    "SolverDiagnostics",
    "IterationGuard",
]


class SolverStatus(str, Enum):
    """Terminal classification of an iterative solve.

    ``converged``
        The stopping criterion (residual <= tol) was met.
    ``max_iter``
        The iteration cap was reached while still making progress.
    ``stalled``
        No new best residual within the stall window — the iteration is
        cycling or flat (oscillation shows up here: an oscillating
        residual never improves its best).
    ``diverged``
        The residual grew far beyond its best value.
    ``aborted``
        A non-finite residual or iterate appeared; the best earlier
        finite iterate is returned instead.
    """

    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    STALLED = "stalled"
    DIVERGED = "diverged"
    ABORTED = "aborted"

    @property
    def ok(self) -> bool:
        """True only for :attr:`CONVERGED`."""
        return self is SolverStatus.CONVERGED


@dataclass(frozen=True)
class SolverDiagnostics:
    """What a guarded solve actually did, attached to its result.

    Attributes
    ----------
    solver:
        Name of the guarded solver (``"blahut_arimoto"``, ...).
    status:
        Terminal :class:`SolverStatus`.
    iterations:
        Iterations executed before termination.
    residual_tail:
        The last few residuals (most recent last) — enough to see a
        stall plateau, an oscillation, or a divergence ramp.
    best_residual:
        Smallest finite residual observed.
    best_iteration:
        Iteration (1-based) at which ``best_residual`` occurred;
        0 when no finite residual was ever seen.
    retries:
        Degradation retries consumed before this attempt was accepted
        (filled in by :func:`repro.infotheory.blahut_arimoto_guarded`).
    notes:
        Free-form annotations (e.g. which degradation adjustments ran).
    """

    solver: str
    status: SolverStatus
    iterations: int
    residual_tail: Tuple[float, ...]
    best_residual: float
    best_iteration: int
    retries: int = 0
    notes: Tuple[str, ...] = ()

    def describe(self) -> str:
        """One-line human-readable summary."""
        tail = ", ".join(f"{r:.3g}" for r in self.residual_tail)
        return (
            f"{self.solver}: {self.status.value} after "
            f"{self.iterations} iterations (best residual "
            f"{self.best_residual:.3g} @ {self.best_iteration}, "
            f"retries {self.retries}, tail [{tail}])"
        )


class IterationGuard:
    """Watchdog for one iterative solve.

    Call :meth:`update` once per iteration with the current residual
    (and optionally the current iterate); it returns a terminal
    :class:`SolverStatus` as soon as the trajectory is classifiable,
    else ``None``. The best-so-far iterate (lowest finite residual) is
    retained in :attr:`best_value` so callers can return it on any
    non-converged exit.

    Parameters
    ----------
    solver:
        Name used in diagnostics and status recording.
    max_iter:
        Iteration cap; :meth:`update` returns ``max_iter`` at the cap.
    tol:
        Convergence threshold on the residual.
    stall_window:
        Iterations without a new best residual before declaring a
        stall. ``None`` disables stall detection.
    divergence_factor:
        Residual growing beyond ``divergence_factor * best_residual``
        (after the best is established) is a divergence. ``None``
        disables divergence detection.
    tail_length:
        How many trailing residuals the diagnostics keep.
    """

    def __init__(
        self,
        solver: str,
        *,
        max_iter: int,
        tol: float = 0.0,
        stall_window: Optional[int] = 100,
        divergence_factor: Optional[float] = 1e6,
        tail_length: int = 8,
    ) -> None:
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if tol < 0:
            raise ValueError("tol must be non-negative")
        if stall_window is not None and stall_window < 1:
            raise ValueError("stall_window must be >= 1 (or None)")
        if divergence_factor is not None and divergence_factor <= 1:
            raise ValueError("divergence_factor must be > 1 (or None)")
        if tail_length < 1:
            raise ValueError("tail_length must be >= 1")
        self.solver = solver
        self.max_iter = max_iter
        self.tol = tol
        self.stall_window = stall_window
        self.divergence_factor = divergence_factor
        self.iterations = 0
        self.status: Optional[SolverStatus] = None
        self.best_residual = float("inf")
        self.best_iteration = 0
        self.best_value: Any = None
        self._tail: Deque[float] = deque(maxlen=tail_length)

    # ------------------------------------------------------------------
    def update(
        self, residual: float, value: Any = None
    ) -> Optional[SolverStatus]:
        """Record one iteration; return a terminal status or ``None``.

        *residual* is the solver's convergence measure (duality gap,
        parameter delta, unsatisfied-check count...). *value* is the
        current iterate; when the residual is finite and a new best, it
        is retained as :attr:`best_value`.
        """
        self.iterations += 1
        residual = float(residual)
        self._tail.append(residual)
        if not np.isfinite(residual):
            return self._finish(SolverStatus.ABORTED)
        if residual < self.best_residual:
            self.best_residual = residual
            self.best_iteration = self.iterations
            if value is not None:
                self.best_value = value
        if residual <= self.tol:
            if value is not None:
                self.best_value = value
            return self._finish(SolverStatus.CONVERGED)
        if (
            self.divergence_factor is not None
            and np.isfinite(self.best_residual)
            and residual > self.divergence_factor * max(self.best_residual, 1e-30)
        ):
            return self._finish(SolverStatus.DIVERGED)
        if (
            self.stall_window is not None
            and self.iterations - self.best_iteration >= self.stall_window
        ):
            return self._finish(SolverStatus.STALLED)
        if self.iterations >= self.max_iter:
            return self._finish(SolverStatus.MAX_ITER)
        return None

    def abort(self) -> SolverStatus:
        """Force an ``aborted`` status (non-finite iterate detected by
        the caller outside the residual path)."""
        return self._finish(SolverStatus.ABORTED)

    def _finish(self, status: SolverStatus) -> SolverStatus:
        self.status = status
        return status

    # ------------------------------------------------------------------
    def diagnostics(self, *, notes: Tuple[str, ...] = ()) -> SolverDiagnostics:
        """Freeze the guard's observations into diagnostics."""
        status = self.status if self.status is not None else SolverStatus.MAX_ITER
        return SolverDiagnostics(
            solver=self.solver,
            status=status,
            iterations=self.iterations,
            residual_tail=tuple(self._tail),
            best_residual=self.best_residual,
            best_iteration=self.best_iteration,
            notes=notes,
        )
