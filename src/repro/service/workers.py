"""Worker-tier solve functions: module-level, picklable, fault-aware.

:func:`solve_query_batch` is the only code the service ships across the
process boundary. It is deliberately dumb: re-derive the batch's RNG
substream from ``(seed, batch_id, attempt)``, roll the fault plan's
dice (chaos testing), then solve each query with the core capacity
functions. All statefulness — retries, breakers, caching, deadlines —
stays in the parent; a worker that dies mid-batch loses nothing that
cannot be recomputed bit-identically from the payload.

``block_bound`` queries are the one kind with cross-query structure:
a batch's block_bound queries are grouped and solved by a *single*
batched Blahut-Arimoto kernel invocation
(:func:`repro.bounds.indel_block_bound_sweep`), so the worker pays one
table build plus one vectorized solver loop for the whole group instead
of one solve per query.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..bounds.indel import indel_block_bound_sweep
from ..core.capacity import erasure_upper_bound
from ..core.estimation import CapacityEstimator
from ..core.events import ChannelParameters
from ..core.theorems import capacity_bracket
from ..estimation import (
    SchedulerTimingSampler,
    bsc_sampler,
    estimate_sample_capacity,
    mary_sampler,
)
from ..estimation.samplers import ChannelSampler
from ..faults.service_faults import ServiceFaultPlan, apply_worker_faults
from ..simulation.rng import RngFactory
from .query import CapacityQuery

__all__ = [
    "BLOCK_BOUND_LENGTH",
    "BLOCK_BOUND_MAX_EXTRA",
    "SAMPLE_CAPACITY_SEED",
    "SAMPLE_CAPACITY_K",
    "SCHEDULER_BURSTS",
    "reference_sampler",
    "solve_query",
    "solve_query_batch",
]

#: Finite-block parameters for ``block_bound`` queries. Fixed (not
#: client-tunable) so every query of the kind shares one table shape —
#: the property that lets a whole group ride one batched kernel call —
#: and small enough that a single solve stays comfortably inside a
#: query deadline.
BLOCK_BOUND_LENGTH = 6
BLOCK_BOUND_MAX_EXTRA = 3

#: ``sample_capacity`` knobs are fixed server-side (not client-tunable)
#: so the answer is a pure function of the query's semantic fields —
#: the property the semantic-key cache requires — and so repeat runs
#: are bit-identical.
SAMPLE_CAPACITY_SEED = 0
SAMPLE_CAPACITY_K = 8

#: Burst-length alphabet of the ``"scheduler"`` reference sampler (the
#: §3.1 uniprocessor timing channel priced by experiment E17).
SCHEDULER_BURSTS = (1, 2, 4)


def reference_sampler(query: CapacityQuery) -> ChannelSampler:
    """Build the reference sampler a ``sample_capacity`` query names.

    The query's ``deletion`` field carries the one noise knob each
    reference channel has; normalization guarantees it is in ``[0, 1)``
    and that the alphabet-shape constraints hold.
    """
    if query.sampler == "bsc":
        return bsc_sampler(query.deletion)
    if query.sampler == "mary":
        return mary_sampler(2**query.bits_per_symbol, query.deletion)
    if query.sampler == "scheduler":
        return SchedulerTimingSampler(SCHEDULER_BURSTS, query.deletion)
    raise ValueError(f"unknown sampler {query.sampler!r}")


def _block_bound_values(
    points: List[Tuple[float, float]],
) -> List[Dict[str, float]]:
    """Solve a group of ``(P_d, P_i)`` block_bound points at once.

    One :func:`repro.bounds.indel_block_bound_sweep` call — one stacked
    table build, one batched kernel invocation.
    """
    bounds = indel_block_bound_sweep(
        points,
        block_length=BLOCK_BOUND_LENGTH,
        max_extra=BLOCK_BOUND_MAX_EXTRA,
    )
    return [
        {"lower": bound.lower_bound, "upper": bound.erasure_upper}
        for bound in bounds
    ]


def solve_query(query: CapacityQuery) -> Dict[str, float]:
    """Solve one validated query at full fidelity.

    ``estimate`` runs the §4.3 estimator (corrected capacity plus the
    Theorem-5 feedback lower bound), ``bounds`` the Theorem 4/5
    bracket, ``erasure`` the Theorem-1 bound alone, ``block_bound``
    the no-feedback finite-block bracket (a one-point batch), and
    ``sample_capacity`` the kNN sample-based estimate on the named
    reference sampler (fixed seed and neighbour order, so the answer
    is deterministic and cacheable under the semantic key; memoized
    through :mod:`repro.store` whenever the worker has an active
    store). Raises ``ValueError`` for an unknown kind — which
    normalization makes unreachable through the service front door.
    """
    n = query.bits_per_symbol
    if query.kind == "estimate":
        params = ChannelParameters(
            deletion=query.deletion,
            insertion=query.insertion,
            transmission=max(0.0, 1.0 - query.deletion - query.insertion),
        )
        report = CapacityEstimator(n).estimate(params)
        return {
            "corrected_capacity": report.corrected_capacity,
            "feedback_lower": report.feedback_lower,
        }
    if query.kind == "bounds":
        lower, upper = capacity_bracket(n, query.deletion, query.insertion)
        return {"lower": lower, "upper": upper}
    if query.kind == "erasure":
        return {"upper": erasure_upper_bound(n, query.deletion)}
    if query.kind == "block_bound":
        (value,) = _block_bound_values([(query.deletion, query.insertion)])
        return value
    if query.kind == "sample_capacity":
        result = estimate_sample_capacity(
            reference_sampler(query),
            n_samples=query.n_samples,
            seed=SAMPLE_CAPACITY_SEED,
            k=SAMPLE_CAPACITY_K,
        )
        return {
            "capacity": result.capacity,
            "mutual_information": result.bits_per_symbol,
            "mean_time": result.mean_time,
        }
    raise ValueError(f"unknown query kind {query.kind!r}")


def solve_query_batch(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Solve a batch of queries in a worker process.

    Parameters
    ----------
    payload:
        ``{"queries": [CapacityQuery, ...], "seed": int,
        "batch_id": str, "attempt": int, "faults": plan-or-None}``.
        The fault plan's dice are rolled against the substream
        ``service/batch/<batch_id>/attempt/<attempt>`` *before* any
        solving — so a crashy plan kills the worker with the whole
        batch unsolved (the supervision/retry path under test), and a
        retry (new ``attempt``) rerolls on a fresh substream instead of
        deterministically re-dying forever.

    Returns
    -------
    One entry per query, in order: ``{"query_id", "value"}`` on
    success or ``{"query_id", "error"}`` when that query's solve
    raised. Per-query errors are deterministic (same query → same
    error), so the parent treats them as non-retryable. The batch's
    ``block_bound`` queries are solved together by one batched kernel
    invocation (and fail together if that solve raises); every other
    kind is solved — and isolated — per query.
    """
    queries: List[CapacityQuery] = list(payload["queries"])
    plan: Optional[ServiceFaultPlan] = payload.get("faults")
    if plan is not None and plan.injects_faults:
        rng = RngFactory(int(payload.get("seed", 0))).fresh(
            "service/batch/{0}/attempt/{1}".format(
                payload.get("batch_id", "b0"), payload.get("attempt", 0)
            )
        )
        apply_worker_faults(plan, rng)
    results: List[Optional[Dict[str, Any]]] = [None] * len(queries)
    block_indices = [
        i for i, query in enumerate(queries) if query.kind == "block_bound"
    ]
    if block_indices:
        try:
            values = _block_bound_values(
                [
                    (queries[i].deletion, queries[i].insertion)
                    for i in block_indices
                ]
            )
            for i, value in zip(block_indices, values):
                results[i] = {
                    "query_id": queries[i].query_id,
                    "value": value,
                }
        except Exception as exc:  # noqa: BLE001 — group-level isolation
            for i in block_indices:
                results[i] = {
                    "query_id": queries[i].query_id,
                    "error": repr(exc),
                }
    for i, query in enumerate(queries):
        if results[i] is not None:
            continue
        try:
            results[i] = {
                "query_id": query.query_id,
                "value": solve_query(query),
            }
        except Exception as exc:  # noqa: BLE001 — per-query isolation
            results[i] = {"query_id": query.query_id, "error": repr(exc)}
    return [entry for entry in results if entry is not None]
