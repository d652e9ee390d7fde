"""Capacity-as-a-service: a resilient query front-end over the solvers.

The reproduction's capacity results — the §4.3 estimate, the
Theorem 4/5 feedback bracket, the Theorem-1 erasure bound — become a
*service*: :class:`CapacityService` accepts typed queries at volume,
dedups them through :mod:`repro.store` canonical keys, batches them
onto a supervised worker pool, and survives the failure modes a real
deployment meets: worker crashes (supervised restart + bounded retries
with substream-jittered backoff), hung solvers (hang detection +
termination), sick worker tiers (a closed/open/half-open circuit
breaker), malformed input (rejected at normalization), and overload
(admission control with a quality-degrading shed ladder: full solve →
cached answer → coarse erasure bound → reject).

Every submitted query terminates in exactly one :class:`QueryStatus` —
``ok / cached / degraded / timeout / shed / failed`` — and
:func:`run_load_test` proves it at ≥10k-query scale under injected
chaos. See ``docs/service.md`` for architecture and tuning.
"""

from .breaker import BreakerState, CircuitBreaker
from .loadtest import LoadTestReport, generate_trace, run_load_test
from .policy import RetryPolicy
from .query import (
    QUERY_FN_ID,
    QUERY_KINDS,
    SAMPLER_NAMES,
    CapacityQuery,
    MalformedQueryError,
    QueryResult,
    QueryStatus,
    normalize_query,
    query_key,
)
from .service import CapacityService, ServiceStats, serve_queries
from .shedding import (
    SHED_LADDER_SOLVER,
    AdmissionController,
    LadderOutcome,
    ShedLevel,
    cached_lookup,
    coarse_bound_value,
    resolve_degraded,
)
from .workers import solve_query, solve_query_batch

__all__ = [
    "QUERY_KINDS",
    "SAMPLER_NAMES",
    "QUERY_FN_ID",
    "QueryStatus",
    "MalformedQueryError",
    "CapacityQuery",
    "QueryResult",
    "normalize_query",
    "query_key",
    "RetryPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ShedLevel",
    "AdmissionController",
    "LadderOutcome",
    "SHED_LADDER_SOLVER",
    "cached_lookup",
    "coarse_bound_value",
    "resolve_degraded",
    "solve_query",
    "solve_query_batch",
    "CapacityService",
    "ServiceStats",
    "serve_queries",
    "LoadTestReport",
    "generate_trace",
    "run_load_test",
]
