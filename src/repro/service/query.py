"""Typed capacity queries: normalization, validation, canonical keys.

A query asks one of four things about a non-synchronous covert channel
``(P_d, P_i, N)``:

* ``"estimate"`` — the §4.3 two-step estimate via
  :class:`repro.core.estimation.CapacityEstimator` (corrected capacity
  ``N(1-P_d)`` plus the Theorem-5 feedback lower bound);
* ``"bounds"`` — the Theorem 4/5 ``(lower, upper)`` feedback bracket
  from :func:`repro.core.theorems.capacity_bracket`;
* ``"erasure"`` — just the Theorem-1 erasure bound ``N(1-P_d)``;
* ``"block_bound"`` — the no-feedback finite-block bracket from
  :func:`repro.bounds.indel_block_bound_sweep` (binary alphabet only:
  ``bits_per_symbol`` must be 1, ``P_i`` strictly below 1). The worker
  tier solves every ``block_bound`` query in a batch with a single
  batched Blahut-Arimoto kernel invocation;
* ``"sample_capacity"`` — the kNN sample-based estimate from
  :func:`repro.estimation.estimate_sample_capacity` on one of the
  named reference samplers (``"bsc"``, ``"mary"``, ``"scheduler"``).
  The query's ``deletion`` field carries the sampler's noise knob
  (crossover / symmetric error / preemption probability); insertion
  must be 0. Seeds and kNN order are fixed server-side so the answer
  is a pure function of the semantic fields — the property the
  store-backed cache requires.

:func:`normalize_query` is the admission gate: raw client input (a
mapping or an existing :class:`CapacityQuery`) either coerces into a
validated query or raises :class:`MalformedQueryError` — malformed
input must be rejected *before* it can reach a worker. Normalized
queries are canonical, so :func:`query_key` (a
:func:`repro.store.canonical_key` content address over the semantic
fields only — never the query id or deadline) makes duplicate requests
collide: the service dedups in-flight work and shares store entries on
that key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

from ..infotheory.probability import is_zero
from ..store import canonical_key

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
]

#: The query kinds the worker tier knows how to solve.
QUERY_KINDS = (
    "estimate",
    "bounds",
    "erasure",
    "block_bound",
    "sample_capacity",
)

#: Reference samplers a ``sample_capacity`` query may name.
SAMPLER_NAMES = ("bsc", "mary", "scheduler")

#: Admissible sample-count range for ``sample_capacity`` queries. The
#: lower edge keeps every symbol class above the kNN order for the
#: largest admissible alphabet; the upper edge bounds worker time.
MIN_SAMPLES = 512
MAX_SAMPLES = 65536

#: Store function-id under which solved queries are cached (and the
#: canonical-key namespace for dedup).
QUERY_FN_ID = "service.capacity_query"


class QueryStatus(str, enum.Enum):
    """Terminal disposition of one query — every query gets exactly one.

    Extends the :class:`repro.numerics.SolverStatus` pattern (a str
    enum whose values read naturally in reports) to the service layer:

    * ``OK`` — solved by the worker tier at full fidelity.
    * ``CACHED`` — answered from the result store or by coalescing
      onto an identical in-flight query; full fidelity, no solve paid.
    * ``DEGRADED`` — answered by a lower rung of the shed ladder
      (cache-only or the coarse erasure bound ``N(1-P_d)``) because of
      overload, breaker state, or exhausted retries. An ``erasure``
      query answered by the coarse rung is ``OK``: that bound is its
      full answer.
    * ``TIMEOUT`` — the query's deadline expired before an answer.
    * ``SHED`` — rejected by admission control (queue saturated).
    * ``FAILED`` — malformed input, or a non-retryable solve error.
    """

    OK = "ok"
    CACHED = "cached"
    DEGRADED = "degraded"
    TIMEOUT = "timeout"
    SHED = "shed"
    FAILED = "failed"


class MalformedQueryError(ValueError):
    """Raw query input that cannot be coerced into a valid query."""


@dataclass(frozen=True)
class CapacityQuery:
    """One validated capacity query.

    ``query_id`` names this *request* (it appears in results and
    logs); the semantic identity used for dedup and caching is
    :func:`query_key`, which deliberately ignores ``query_id`` and
    ``deadline_seconds``.
    """

    query_id: str
    kind: str
    deletion: float
    insertion: float
    bits_per_symbol: int = 1
    deadline_seconds: Optional[float] = None
    sampler: Optional[str] = None
    n_samples: int = 0

    def semantic_params(self) -> Dict[str, Any]:
        """The fields that define *what* is being computed.

        The sampler fields join the key only for ``sample_capacity``
        queries, so every legacy kind keeps the exact cache keys it
        had before the kind existed (warm stores stay warm).
        """
        params: Dict[str, Any] = {
            "kind": self.kind,
            "deletion": self.deletion,
            "insertion": self.insertion,
            "bits_per_symbol": self.bits_per_symbol,
        }
        if self.kind == "sample_capacity":
            params["sampler"] = self.sampler
            params["n_samples"] = self.n_samples
        return params


@dataclass(frozen=True)
class QueryResult:
    """Terminal record for one submitted query.

    Attributes
    ----------
    query_id:
        Echo of the request's id (or a synthesized one for raw input
        so malformed queries are still accounted for).
    key:
        Canonical dedup/store key, or ``None`` for malformed input.
    status:
        The :class:`QueryStatus` disposition.
    value:
        Metric mapping for answered queries (``None`` for
        timeout/shed/failed). Keys depend on the query kind:
        ``estimate`` → ``corrected_capacity`` / ``feedback_lower``;
        ``bounds`` and ``block_bound`` → ``lower`` / ``upper``;
        ``erasure`` and the coarse degraded rung → ``upper``;
        ``sample_capacity`` → ``capacity`` / ``mutual_information`` /
        ``mean_time``.
    source:
        Where the answer came from: ``"solver"``, ``"store"``,
        ``"inflight"``, ``"coarse_bound"``, or ``"none"``.
    attempts:
        Worker-tier attempts spent on this query's batch (0 when no
        worker was involved).
    latency_seconds:
        Submit-to-terminal wall-clock, as observed by the service
        clock.
    error:
        Diagnostic text for ``FAILED`` / ``TIMEOUT`` / ``SHED``.
    """

    query_id: str
    key: Optional[str]
    status: QueryStatus
    value: Optional[Dict[str, float]] = None
    source: str = "none"
    attempts: int = 0
    latency_seconds: float = 0.0
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (CLI output, load-test reports)."""
        return {
            "query_id": self.query_id,
            "key": self.key,
            "status": self.status.value,
            "value": dict(self.value) if self.value is not None else None,
            "source": self.source,
            "attempts": self.attempts,
            "latency_seconds": self.latency_seconds,
            "error": self.error,
        }


def _coerce_float(raw: Mapping[str, Any], name: str) -> float:
    if name not in raw:
        raise MalformedQueryError(f"missing required field {name!r}")
    value = raw[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedQueryError(
            f"field {name!r} must be a number, got {value!r}"
        )
    return float(value)


def normalize_query(
    raw: Union[CapacityQuery, Mapping[str, Any]],
    *,
    default_deadline: Optional[float] = None,
    query_id: Optional[str] = None,
) -> CapacityQuery:
    """Coerce *raw* into a validated :class:`CapacityQuery`.

    Accepts an existing query (re-validated — a hand-constructed query
    gets no trust) or a mapping with fields ``kind``, ``deletion``,
    ``insertion`` and optional ``bits_per_symbol`` / ``deadline_seconds``
    / ``query_id``. Raises :class:`MalformedQueryError` with a reason on
    any invalid input; never raises anything else for mapping input.
    """
    if isinstance(raw, CapacityQuery):
        mapping: Mapping[str, Any] = {
            "query_id": raw.query_id,
            "kind": raw.kind,
            "deletion": raw.deletion,
            "insertion": raw.insertion,
            "bits_per_symbol": raw.bits_per_symbol,
            "deadline_seconds": raw.deadline_seconds,
            "sampler": raw.sampler,
            "n_samples": raw.n_samples,
        }
    elif isinstance(raw, Mapping):
        mapping = raw
    else:
        raise MalformedQueryError(
            f"query must be a mapping or CapacityQuery, got {type(raw).__name__}"
        )

    kind = mapping.get("kind")
    if kind not in QUERY_KINDS:
        raise MalformedQueryError(
            f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}"
        )
    deletion = _coerce_float(mapping, "deletion")
    insertion = _coerce_float(mapping, "insertion")
    for name, value in (("deletion", deletion), ("insertion", insertion)):
        if not 0.0 <= value <= 1.0:
            raise MalformedQueryError(
                f"{name} probability must be in [0, 1], got {value}"
            )
    if deletion + insertion > 1.0 + 1e-12:
        raise MalformedQueryError(
            "deletion + insertion must not exceed 1 "
            f"(got {deletion} + {insertion})"
        )
    bits_raw = mapping.get("bits_per_symbol", 1)
    if isinstance(bits_raw, bool) or not isinstance(bits_raw, (int, float)):
        raise MalformedQueryError(
            f"bits_per_symbol must be a positive integer, got {bits_raw!r}"
        )
    if float(bits_raw) != int(bits_raw) or int(bits_raw) < 1:
        raise MalformedQueryError(
            f"bits_per_symbol must be a positive integer, got {bits_raw!r}"
        )
    if kind == "block_bound":
        # The finite-block solver is binary-alphabet and needs a
        # non-degenerate transmission path; reject here so a worker
        # never sees an unsolvable block_bound query.
        if int(bits_raw) != 1:
            raise MalformedQueryError(
                "block_bound queries require bits_per_symbol == 1, "
                f"got {bits_raw!r}"
            )
        if insertion >= 1.0:
            raise MalformedQueryError(
                f"block_bound queries require insertion < 1, got {insertion}"
            )
    sampler: Optional[str] = None
    n_samples = 0
    if kind == "sample_capacity":
        sampler_raw = mapping.get("sampler")
        if sampler_raw not in SAMPLER_NAMES:
            raise MalformedQueryError(
                f"sample_capacity queries require a sampler from "
                f"{SAMPLER_NAMES}, got {sampler_raw!r}"
            )
        sampler = str(sampler_raw)
        if not is_zero(insertion):
            raise MalformedQueryError(
                "sample_capacity queries require insertion == 0 "
                "(the deletion field carries the sampler's noise knob); "
                f"got {insertion}"
            )
        if deletion >= 1.0:
            raise MalformedQueryError(
                "sample_capacity noise (deletion field) must be < 1, "
                f"got {deletion}"
            )
        if sampler in ("bsc", "scheduler") and int(bits_raw) != 1:
            raise MalformedQueryError(
                f"{sampler} sample_capacity queries require "
                f"bits_per_symbol == 1, got {bits_raw!r}"
            )
        if sampler == "mary" and not 1 <= int(bits_raw) <= 3:
            raise MalformedQueryError(
                "mary sample_capacity queries require bits_per_symbol "
                f"in [1, 3], got {bits_raw!r}"
            )
        samples_raw = mapping.get("n_samples", 2048)
        if isinstance(samples_raw, bool) or not isinstance(
            samples_raw, (int, float)
        ):
            raise MalformedQueryError(
                f"n_samples must be an integer, got {samples_raw!r}"
            )
        if float(samples_raw) != int(samples_raw) or not (
            MIN_SAMPLES <= int(samples_raw) <= MAX_SAMPLES
        ):
            raise MalformedQueryError(
                f"n_samples must be an integer in [{MIN_SAMPLES}, "
                f"{MAX_SAMPLES}], got {samples_raw!r}"
            )
        n_samples = int(samples_raw)
    deadline = mapping.get("deadline_seconds", default_deadline)
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            raise MalformedQueryError(
                f"deadline_seconds must be a positive number, got {deadline!r}"
            )
        deadline = float(deadline)
        if deadline <= 0:
            raise MalformedQueryError(
                f"deadline_seconds must be positive, got {deadline}"
            )
    qid = mapping.get("query_id", query_id)
    if qid is None:
        qid = query_id if query_id is not None else "q"
    return CapacityQuery(
        query_id=str(qid),
        kind=str(kind),
        deletion=deletion,
        insertion=insertion,
        bits_per_symbol=int(bits_raw),
        deadline_seconds=deadline,
        sampler=sampler,
        n_samples=n_samples,
    )


def query_key(query: CapacityQuery) -> str:
    """Canonical content address of *query*'s semantic fields.

    Two requests asking the same question — whatever their ids or
    deadlines — share this key, which is what makes in-flight
    coalescing and store-backed caching correct.
    """
    return canonical_key(QUERY_FN_ID, query.semantic_params())
