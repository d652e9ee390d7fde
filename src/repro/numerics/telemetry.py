"""One collector stack for solver statuses, stage timings and store events.

Three kinds of observability records flow through this module:

* ``status`` — ``{"solver:status": count}`` from guarded solvers
  (:func:`record_status`); the experiment runner opens a collector
  around each trial so a stalled solve inside a 10k-replication sweep
  surfaces in the run result instead of vanishing;
* ``stage`` — ``{stage: seconds}`` wall-clock attribution from
  :func:`stage` / :func:`record_stage_seconds`, so benchmarks can split
  campaign time into lattice vs. solver vs. orchestration (see
  ``docs/performance.md``);
* ``store`` — ``{"fn_id:event": count}`` result-store cache events
  (``hit``, ``miss``, ``bypass``) from :func:`record_cache_event`.

Each kind keeps its own list of open collectors. Nested collectors all
receive every record, the yielded dict is mutated in place, and exiting
removes the collector by identity (nested collectors that are still
empty compare equal and must not be mistaken for one another). With no
collector of a kind open, recording that kind is a no-op — in
particular :func:`stage` never reads the clock — so observability costs
nothing on the default path and never feeds back into a computation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, ContextManager, Dict, Iterator, List, Union

from .guard import SolverStatus

__all__ = [
    "collect_solver_statuses",
    "collect_stage_timings",
    "collect_store_events",
    "record_status",
    "record_stage_seconds",
    "record_cache_event",
    "stage",
]

_COLLECTORS: Dict[str, List[Dict[str, Any]]] = {
    "status": [],
    "stage": [],
    "store": [],
}


@contextmanager
def _collect(kind: str) -> Iterator[Dict[str, Any]]:
    counts: Dict[str, Any] = {}
    _COLLECTORS[kind].append(counts)
    try:
        yield counts
    finally:
        _COLLECTORS[kind][:] = [c for c in _COLLECTORS[kind] if c is not counts]


def _record(kind: str, key: str, amount: float) -> None:
    for counts in _COLLECTORS[kind]:
        counts[key] = counts.get(key, 0) + amount


def collect_solver_statuses() -> ContextManager[Dict[str, int]]:
    """Collect ``{"solver:status": count}`` from guarded solvers."""
    return _collect("status")


def collect_stage_timings() -> ContextManager[Dict[str, float]]:
    """Collect ``{stage: seconds}`` from instrumented code."""
    return _collect("stage")


def collect_store_events() -> ContextManager[Dict[str, int]]:
    """Collect ``{"fn_id:event": count}`` result-store cache events."""
    return _collect("store")


def record_status(solver: str, status: Union[SolverStatus, str]) -> None:
    """Report a terminal solver status to every open status collector."""
    value = status.value if isinstance(status, SolverStatus) else str(status)
    _record("status", f"{solver}:{value}", 1)


def record_stage_seconds(stage_name: str, seconds: float) -> None:
    """Add *seconds* to *stage_name* in every open timing collector."""
    _record("stage", stage_name, float(seconds))


def record_cache_event(fn_id: str, event: str) -> None:
    """Count one ``hit``/``miss``/``bypass`` for *fn_id* in every open
    store-event collector."""
    _record("store", f"{fn_id}:{event}", 1)


@contextmanager
def stage(stage_name: str) -> Iterator[None]:
    """Attribute the wall-clock of the enclosed block to *stage_name*.

    Reads the clock only when a timing collector is open.
    """
    if not _COLLECTORS["stage"]:
        yield
        return
    start = time.perf_counter()  # repro: noqa[DET001] — observability only
    try:
        yield
    finally:
        record_stage_seconds(
            stage_name,
            time.perf_counter() - start,  # repro: noqa[DET001] — observability only
        )
