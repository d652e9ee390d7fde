"""Admission control and the load-shedding ladder.

Under overload the service degrades by answer *quality* before it
degrades by *availability*. :class:`AdmissionController` maps queue
depth to a :class:`ShedLevel`; each level above ``FULL`` answers the
query from a cheaper rung instead of queueing it:

====================  ====================================================
``FULL``              normal path: dedup, enqueue, worker-tier solve
``CACHE_ONLY``        answer only if the result store (or an identical
                      in-flight query) already has it; else coarse bound
``COARSE``            answer with the Theorem-1 erasure bound ``N(1-P_d)``
                      computed inline — cheap, deterministic, and an
                      honest upper bound on what the full solve returns
``REJECT``            shed: the query terminates with status ``shed``
====================  ====================================================

Each cache→coarse descent records one status in the solver-status
collector (``service.shed_ladder:<status>``), next to every other
solver's health. These ladder functions are deliberately
*synchronous*: coroutine code in :mod:`repro.service.service` must not
call solvers directly (rule ``SVC001``) and instead calls this module,
whose coarse rung is O(1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.capacity import erasure_upper_bound
from ..numerics import SolverStatus, record_status
from ..store import active_store
from ..store.memo import record_cache_event
from .query import QUERY_FN_ID, CapacityQuery, query_key

__all__ = [
    "ShedLevel",
    "AdmissionController",
    "LadderOutcome",
    "SHED_LADDER_SOLVER",
    "cached_lookup",
    "store_answer",
    "coarse_bound_value",
    "resolve_degraded",
]

#: Solver name under which shed-ladder outcomes are recorded.
SHED_LADDER_SOLVER = "service.shed_ladder"


class ShedLevel(enum.IntEnum):
    """Escalating overload responses; higher sheds harder."""

    FULL = 0
    CACHE_ONLY = 1
    COARSE = 2
    REJECT = 3


@dataclass(frozen=True)
class AdmissionController:
    """Map queue depth to a :class:`ShedLevel`.

    Thresholds are fractions of ``queue_limit``: depth below
    ``cache_only_fraction`` admits at ``FULL``, below
    ``coarse_fraction`` at ``CACHE_ONLY``, below 1.0 at ``COARSE``,
    and a saturated queue rejects.
    """

    queue_limit: int = 128
    cache_only_fraction: float = 0.6
    coarse_fraction: float = 0.85

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if not 0.0 < self.cache_only_fraction <= 1.0:
            raise ValueError("cache_only_fraction must be in (0, 1]")
        if not self.cache_only_fraction <= self.coarse_fraction <= 1.0:
            raise ValueError(
                "coarse_fraction must be in [cache_only_fraction, 1]"
            )

    def level(self, queue_depth: int) -> ShedLevel:
        """The shed level a query arriving at *queue_depth* receives."""
        if queue_depth >= self.queue_limit:
            return ShedLevel.REJECT
        fraction = queue_depth / self.queue_limit
        if fraction >= self.coarse_fraction:
            return ShedLevel.COARSE
        if fraction >= self.cache_only_fraction:
            return ShedLevel.CACHE_ONLY
        return ShedLevel.FULL


@dataclass(frozen=True)
class LadderOutcome:
    """The shed ladder's answer: the rung's ``status`` (``CONVERGED``
    for a cache hit, ``STALLED`` for the coarse bound), its ``value``
    and its ``source``."""

    status: SolverStatus
    value: Optional[Dict[str, float]]
    source: str


def cached_lookup(query: CapacityQuery) -> Optional[Dict[str, float]]:
    """The stored answer for *query*, or ``None``.

    Consults the active result store (:mod:`repro.store`) under the
    query's canonical key and records a hit/miss cache event; with no
    store active this is a cheap ``None``.
    """
    store = active_store()
    if store is None:
        return None
    found = store.fetch(query_key(query))
    if found is None:
        record_cache_event(QUERY_FN_ID, "miss")
        return None
    value, _entry = found
    record_cache_event(QUERY_FN_ID, "hit")
    return {str(k): float(v) for k, v in value.items()}


def store_answer(query: CapacityQuery, value: Dict[str, float]) -> None:
    """Persist a full-fidelity answer under *query*'s canonical key.

    Best-effort: with no active store, or on any store write error,
    the answer simply isn't shared — the cache trades time, never
    correctness. Only ``OK``-status (solver) answers are stored;
    degraded rungs must never poison the cache.
    """
    store = active_store()
    if store is None:
        return
    try:
        store.put(key=query_key(query), value=value, fn_id=QUERY_FN_ID)
    except Exception:  # noqa: BLE001 — best-effort write
        pass


def coarse_bound_value(query: CapacityQuery) -> Dict[str, float]:
    """The coarse rung: Theorem-1 erasure bound ``N(1 - P_d)``.

    An O(1) upper bound on every kind's full answer — degraded, but
    honest and correctly oriented (never an underestimate of capacity).
    """
    return {
        "upper": erasure_upper_bound(query.bits_per_symbol, query.deletion)
    }


def resolve_degraded(
    query: CapacityQuery, *, try_cache: bool = True
) -> LadderOutcome:
    """Walk the degraded rungs for *query*: cache, then coarse bound.

    ``try_cache=False`` (the ``COARSE`` shed level, where even a store
    read is too much queueing) jumps straight to the bound. The chosen
    rung's status is recorded under ``service.shed_ladder``:
    ``CONVERGED`` for a cache hit, ``STALLED`` for a coarse-bound
    answer — a fleet-level signal of how degraded the service's answers
    currently are.
    """
    hit = cached_lookup(query) if try_cache else None
    if hit is not None:
        outcome = LadderOutcome(SolverStatus.CONVERGED, hit, "store")
    else:
        outcome = LadderOutcome(
            SolverStatus.STALLED, coarse_bound_value(query), "coarse_bound"
        )
    record_status(SHED_LADDER_SOLVER, outcome.status)
    return outcome
