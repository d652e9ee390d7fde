"""Solver robustness layer: guarded numerics for extreme channel regimes.

The paper's bounds are most interesting exactly where naive numerics
break down — ``P_d -> 1``, ``P_i -> 1 - P_d``, near-zero transition
probabilities. This package is the shared substrate that keeps the
solvers honest there:

* :mod:`.safeops` — log-domain primitives (``safe_log2``,
  ``normalized_exp2``) replacing per-solver
  ``np.log(np.maximum(x, 1e-300))`` patterns (lint rule NUM001);
* :mod:`.guard` — :class:`IterationGuard` with NaN/divergence/stall
  detection, the :class:`SolverStatus` taxonomy
  (``converged | max_iter | stalled | diverged | aborted``),
  and :class:`SolverDiagnostics`;
* :mod:`.bracketing` — root bracketing that fails as a
  diagnostics-carrying :class:`BracketingError` instead of a bare
  ``RuntimeError``;
* :mod:`.telemetry` — the one collector stack for solver statuses
  (:func:`record_status`, :func:`collect_solver_statuses`), per-stage
  wall-clock (:func:`stage`, :func:`collect_stage_timings`) and
  result-store cache events (:func:`record_cache_event`,
  :func:`collect_store_events`).

See ``docs/numerics.md`` for guard semantics and how to read
diagnostics.
"""

from .bracketing import (
    BracketDiagnostics,
    BracketingError,
    expand_bracket,
    guarded_brentq,
)
from .guard import IterationGuard, SolverDiagnostics, SolverStatus
from .safeops import (
    LOG_FLOOR,
    masked_log2,
    normalized_exp2,
    safe_log,
    safe_log2,
)
from .telemetry import (
    collect_solver_statuses,
    collect_stage_timings,
    collect_store_events,
    record_cache_event,
    record_stage_seconds,
    record_status,
    stage,
)

__all__ = [
    "LOG_FLOOR",
    "safe_log",
    "safe_log2",
    "masked_log2",
    "normalized_exp2",
    "SolverStatus",
    "SolverDiagnostics",
    "IterationGuard",
    "collect_solver_statuses",
    "collect_stage_timings",
    "collect_store_events",
    "record_status",
    "record_stage_seconds",
    "record_cache_event",
    "stage",
    "BracketDiagnostics",
    "BracketingError",
    "expand_bracket",
    "guarded_brentq",
]
