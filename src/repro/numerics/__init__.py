"""Solver robustness layer: guarded numerics for extreme channel regimes.

The paper's bounds are most interesting exactly where naive numerics
break down — ``P_d -> 1``, ``P_i -> 1 - P_d``, near-zero transition
probabilities. This package is the shared substrate that keeps the
solvers honest there:

* :mod:`.safeops` — log-domain primitives (``safe_log2``,
  ``logsumexp2``, ``normalized_exp2``) replacing per-solver
  ``np.log(np.maximum(x, 1e-300))`` patterns (lint rule NUM001);
* :mod:`.guard` — :class:`IterationGuard` with NaN/divergence/stall
  detection, the :class:`SolverStatus` taxonomy
  (``converged | max_iter | stalled | diverged | aborted``),
  :class:`SolverDiagnostics`, and the status collector the experiment
  runner uses to surface solver health;
* :mod:`.degrade` — :func:`degrade_gracefully`: retry with stabilizing
  adjustments, else return best-so-far with an honest status;
* :mod:`.bracketing` — root bracketing that fails as a
  diagnostics-carrying :class:`BracketingError` instead of a bare
  ``RuntimeError``;
* :mod:`.profiling` — opt-in per-stage wall-clock attribution
  (:func:`stage`, :func:`collect_stage_timings`) so benchmarks can
  split campaign time into lattice vs. solver vs. orchestration
  (see ``docs/performance.md``), plus the result-store cache-event
  collector (:func:`collect_store_events`) fed by
  :mod:`repro.store`'s hit/miss/bypass counters.

See ``docs/numerics.md`` for guard semantics and how to read
diagnostics.
"""

from .bracketing import (
    BracketDiagnostics,
    BracketingError,
    expand_bracket,
    guarded_brentq,
)
from .degrade import GuardedValue, degrade_gracefully
from .guard import (
    IterationGuard,
    SolverDiagnostics,
    SolverStatus,
    collect_solver_statuses,
    record_status,
)
from .profiling import (
    collect_stage_timings,
    collect_store_events,
    record_stage_seconds,
    record_store_event,
    stage,
    timing_active,
)
from .safeops import (
    LOG_FLOOR,
    logsumexp2,
    masked_log2,
    normalized_exp,
    normalized_exp2,
    safe_log,
    safe_log2,
)

__all__ = [
    "LOG_FLOOR",
    "safe_log",
    "safe_log2",
    "masked_log2",
    "logsumexp2",
    "normalized_exp",
    "normalized_exp2",
    "SolverStatus",
    "SolverDiagnostics",
    "IterationGuard",
    "collect_solver_statuses",
    "record_status",
    "GuardedValue",
    "degrade_gracefully",
    "collect_stage_timings",
    "collect_store_events",
    "record_stage_seconds",
    "record_store_event",
    "stage",
    "timing_active",
    "BracketDiagnostics",
    "BracketingError",
    "expand_bracket",
    "guarded_brentq",
]
