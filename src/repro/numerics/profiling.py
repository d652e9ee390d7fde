"""Opt-in wall-clock stage attribution for the hot kernels.

Benchmarks (and the experiment runner's ``collect_timing`` mode) need
to know where a campaign's wall-clock goes: the insertion-drift lattice,
the capacity solvers, or orchestration overhead. This module is the
collector: kernels wrap their hot section in :func:`stage`, callers open
:func:`collect_stage_timings`, and the per-stage totals accumulate into
the yielded mapping.

The design mirrors the solver-status collector in :mod:`.guard`: when
no collector is open, :func:`stage` is a no-op that never reads the
clock, so the instrumentation costs nothing on the default path and the
determinism contract (results are a function of code, seed, and
parameters only) is untouched — timings are observability metadata and
never feed back into computations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

__all__ = [
    "collect_stage_timings",
    "collect_store_events",
    "record_stage_seconds",
    "record_store_event",
    "stage",
    "timing_active",
]

_COLLECTORS: List[Dict[str, float]] = []
_STORE_COLLECTORS: List[Dict[str, int]] = []


@contextmanager
def collect_stage_timings() -> Iterator[Dict[str, float]]:
    """Collect ``{stage: seconds}`` from instrumented code.

    Nested collectors all receive every recorded interval. The yielded
    dict is mutated in place as stages complete. Exiting removes this
    collector by identity: nested collectors that are still empty
    compare equal, and must not be mistaken for one another.
    """
    totals: Dict[str, float] = {}
    _COLLECTORS.append(totals)
    try:
        yield totals
    finally:
        _COLLECTORS[:] = [c for c in _COLLECTORS if c is not totals]


def timing_active() -> bool:
    """True when at least one timing collector is open."""
    return bool(_COLLECTORS)


def record_stage_seconds(stage_name: str, seconds: float) -> None:
    """Add *seconds* to *stage_name* in every open collector.

    A no-op when no collector is open, so instrumented code can call it
    unconditionally.
    """
    for totals in _COLLECTORS:
        totals[stage_name] = totals.get(stage_name, 0.0) + float(seconds)


@contextmanager
def collect_store_events() -> Iterator[Dict[str, int]]:
    """Collect ``{"fn_id:event": count}`` cache events from the result
    store (:mod:`repro.store`): ``hit``, ``miss``, ``bypass``.

    Same collector discipline as :func:`collect_stage_timings`: nested
    collectors all receive every event, the yielded dict is mutated in
    place, and with no collector open recording is a no-op — cache
    observability never perturbs the computation.
    """
    counts: Dict[str, int] = {}
    _STORE_COLLECTORS.append(counts)
    try:
        yield counts
    finally:
        _STORE_COLLECTORS[:] = [c for c in _STORE_COLLECTORS if c is not counts]


def record_store_event(fn_id: str, event: str) -> None:
    """Report one store cache event to every open collector.

    A no-op when no collector is open, so the memoization layer can
    call it unconditionally.
    """
    key = f"{fn_id}:{event}"
    for counts in _STORE_COLLECTORS:
        counts[key] = counts.get(key, 0) + 1


@contextmanager
def stage(stage_name: str) -> Iterator[None]:
    """Attribute the wall-clock of the enclosed block to *stage_name*.

    Reads the clock only when a collector is open; timings are
    observability output and never influence simulation results.
    """
    if not _COLLECTORS:
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
