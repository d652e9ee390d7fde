"""The resilient capacity-query service front-end.

:class:`CapacityService` accepts typed capacity queries and answers
every one of them — that is the contract. A query terminates in exactly
one :class:`~repro.service.query.QueryStatus`; under worker crashes,
hung solvers, malformed input, or overload the *quality* of answers
degrades (cached → coarse bound) long before availability does.

The moving parts, front to back:

1. **Normalization** (:func:`~repro.service.query.normalize_query`) —
   malformed input terminates as ``failed`` before touching any shared
   resource.
2. **Dedup** — identical in-flight queries (same canonical key)
   coalesce onto one shared future; the result store answers repeats
   across runs.
3. **Admission control** (:class:`~repro.service.shedding.
   AdmissionController`) — queue depth picks a shed level; overloaded
   queries are answered from the degraded ladder or shed outright.
4. **Batching** — admitted queries are drained into batches (any mix of
   kinds is compatible; the worker solves per-query) to amortize
   process-pool IPC.
5. **Dispatch** — batches run on a :class:`~repro.simulation.pool.
   SupervisedPool` via a thread bridge, guarded by a
   :class:`~repro.service.breaker.CircuitBreaker` and retried under the
   :class:`~repro.service.policy.RetryPolicy` with substream-jittered
   backoff. Crashed/hung workers are restarted by the pool; retries
   reroll injected faults on fresh substreams.
6. **Fallback** — when retries or the breaker give up, the batch's
   queries are answered by the shed ladder (``degraded``), never
   dropped. An ``erasure`` query's coarse answer ``N(1-P_d)`` is its
   full answer, so it stays ``ok``.

Blocking solver work never runs inside a coroutine (enforced by lint
rule ``SVC001``): coroutines call the synchronous ladder in
:mod:`repro.service.shedding` for O(1) fallbacks and push everything
heavier through the worker tier.
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

import numpy as np

from ..faults.service_faults import ServiceFaultPlan, TransientWorkerError
from ..numerics import collect_store_events, record_stage_seconds
from ..simulation.pool import (
    PoolTaskError,
    SupervisedPool,
    WorkerCrashedError,
    WorkerHungError,
)
from ..store import publish
from .breaker import CircuitBreaker
from .policy import RetryPolicy
from .query import (
    QUERY_FN_ID,
    CapacityQuery,
    MalformedQueryError,
    QueryResult,
    QueryStatus,
    normalize_query,
    query_key,
)
from .shedding import (
    AdmissionController,
    ShedLevel,
    cached_lookup,
    resolve_degraded,
)
from .workers import solve_query_batch

__all__ = ["ServiceStats", "CapacityService", "serve_queries"]

RawQuery = Union[CapacityQuery, Mapping[str, Any]]

#: How many of the most recent latencies the percentiles are taken over.
LATENCY_WINDOW = 1 << 14


def _coarse_is_exact(query: CapacityQuery, source: str) -> bool:
    """Whether a shed-ladder answer is already full fidelity: the
    coarse rung's ``N(1-P_d)`` is exactly what an ``erasure`` query
    solves to."""
    return source == "coarse_bound" and query.kind == "erasure"


@dataclass
class _Solved:
    """What a shared in-flight future resolves to."""

    status: QueryStatus
    value: Optional[Dict[str, float]]
    source: str
    attempts: int
    error: Optional[str] = None


@dataclass
class _Pending:
    """One admitted query waiting in the dispatch queue."""

    query: CapacityQuery
    key: str
    future: "asyncio.Future[_Solved]"


@dataclass
class ServiceStats:
    """Mutable service observability: the ``service stats`` payload.

    Latencies are submit-to-terminal per query. The count and max are
    exact over the service's life; the p50/p99 of :meth:`to_dict` are
    taken over the most recent :data:`LATENCY_WINDOW` latencies, so a
    long-lived service holds bounded memory. Everything here is
    observability — it never feeds back into any answer.
    """

    status_counts: Dict[str, int] = field(default_factory=dict)
    shed_levels: Dict[str, int] = field(default_factory=dict)
    latencies_seconds: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )
    latency_count: int = 0
    latency_max: float = 0.0
    queue_depth_peak: int = 0
    submitted: int = 0
    batches: int = 0
    fallback_batches: int = 0
    retries: int = 0

    def record_result(self, result: QueryResult) -> None:
        """Fold one terminal result into the counters."""
        key = result.status.value
        self.status_counts[key] = self.status_counts.get(key, 0) + 1
        self.latencies_seconds.append(result.latency_seconds)
        self.latency_count += 1
        self.latency_max = max(self.latency_max, result.latency_seconds)

    def record_shed_level(self, level: ShedLevel) -> None:
        """Count one admission decision above ``FULL``."""
        key = level.name.lower()
        self.shed_levels[key] = self.shed_levels.get(key, 0) + 1

    def observe_queue_depth(self, depth: int) -> None:
        """Track the high-water queue depth."""
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth

    def latency_percentile(self, q: float) -> float:
        """The *q*-th latency percentile (0 with no samples yet)."""
        if not self.latencies_seconds:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_seconds), q))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON stats payload."""
        return {
            "submitted": self.submitted,
            "status_counts": dict(self.status_counts),
            "shed_levels": dict(self.shed_levels),
            "queue_depth_peak": self.queue_depth_peak,
            "batches": self.batches,
            "fallback_batches": self.fallback_batches,
            "retries": self.retries,
            "latency_seconds": {
                "count": self.latency_count,
                "p50": self.latency_percentile(50.0),
                "p99": self.latency_percentile(99.0),
                "max": self.latency_max,
            },
        }


class CapacityService:
    """Asyncio capacity-query service over a supervised worker pool.

    Use as an async context manager (or call :meth:`start` /
    :meth:`stop`); submit with :meth:`submit` or :meth:`serve`.

    Parameters
    ----------
    root_seed:
        Seeds every service substream (backoff jitter, worker fault
        dice), making a replayed trace deterministic.
    workers:
        Worker-process count of the supervised pool (and the size of
        the thread bridge that feeds it).
    batch_size / batch_window_seconds:
        Dispatch drains up to ``batch_size`` queued queries per batch,
        waiting at most the window for stragglers.
    admission:
        The queue-depth → shed-level policy; its ``queue_limit`` also
        bounds the dispatch queue.
    retry_policy:
        Backoff schedule for transient worker-tier failures.
    breaker:
        Circuit breaker gating dispatch; defaults to a
        consecutive-failure breaker with a short cooldown.
    default_deadline_seconds:
        Deadline applied to queries that don't carry their own.
    fault_plan:
        Optional :class:`~repro.faults.ServiceFaultPlan` shipped to
        workers — the chaos-testing hook.
    worker_hang_seconds:
        Per-batch hang threshold: a batch exceeding it has its worker
        terminated and counts as a (retryable) failure.
    clock:
        Monotonic time source for latencies and deadlines; injectable
        for tests. Observability and flow control only — answers are
        functions of the query alone.
    """

    def __init__(
        self,
        *,
        root_seed: int = 0,
        workers: int = 2,
        batch_size: int = 8,
        batch_window_seconds: float = 0.002,
        admission: Optional[AdmissionController] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        default_deadline_seconds: Optional[float] = None,
        fault_plan: Optional[ServiceFaultPlan] = None,
        worker_hang_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if batch_window_seconds < 0:
            raise ValueError("batch_window_seconds must be non-negative")
        self.root_seed = root_seed
        self.workers = workers
        self.batch_size = batch_size
        self.batch_window_seconds = batch_window_seconds
        self.admission = admission or AdmissionController()
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=5, cooldown_seconds=0.25
        )
        self.default_deadline_seconds = default_deadline_seconds
        self.fault_plan = fault_plan
        self.worker_hang_seconds = worker_hang_seconds
        self.stats = ServiceStats()
        self._store_events: Dict[str, int] = {}
        self._telemetry = ExitStack()
        self._clock = clock
        self._pool: Optional[SupervisedPool] = None
        self._threads: Optional[ThreadPoolExecutor] = None
        self._queue: Optional["asyncio.Queue[_Pending]"] = None
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._batch_tasks: Set["asyncio.Task[None]"] = set()
        self._inflight: Dict[str, "asyncio.Future[_Solved]"] = {}
        self._batch_counter = 0
        self._query_counter = 0
        self._final_pool_restarts = 0

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Bring up the pool, the thread bridge, and the dispatcher."""
        if self._dispatcher is not None:
            raise RuntimeError("service already started")
        self._pool = SupervisedPool(
            self.workers,
            max_restarts=None,  # the breaker, not a cap, governs giving up
            hang_seconds=None,
        )
        self._threads = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="svc-dispatch"
        )
        self._queue = asyncio.Queue(maxsize=self.admission.queue_limit)
        self._store_events = self._telemetry.enter_context(
            collect_store_events()
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Drain in-flight batches, then tear everything down."""
        if self._dispatcher is None:
            return
        queue = self._queue
        assert queue is not None
        while not queue.empty() or self._batch_tasks:
            if self._batch_tasks:
                await asyncio.wait(set(self._batch_tasks))
            else:
                # Queued queries the dispatcher hasn't batched yet.
                await asyncio.sleep(self.batch_window_seconds or 0.001)
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        self._dispatcher = None
        for future in self._inflight.values():
            if not future.done():
                future.set_result(
                    _Solved(
                        status=QueryStatus.FAILED,
                        value=None,
                        source="none",
                        attempts=0,
                        error="service stopped",
                    )
                )
        self._inflight.clear()
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        if self._pool is not None:
            self._final_pool_restarts = self._pool.restarts
            self._pool.shutdown()
        self._telemetry.close()

    async def __aenter__(self) -> "CapacityService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    @property
    def pool_restarts(self) -> int:
        """Worker-pool rebuilds so far (crashes and hangs)."""
        if self._pool is not None:
            return self._pool.restarts
        return self._final_pool_restarts

    # ------------------------------------------------------------------
    # submission

    async def submit(
        self, raw: RawQuery, *, query_id: Optional[str] = None
    ) -> QueryResult:
        """Submit one query; always returns a terminal
        :class:`QueryResult` — this method never raises for bad input.
        """
        if self._dispatcher is None or self._queue is None:
            raise RuntimeError("service not started (use 'async with')")
        t0 = self._clock()
        self.stats.submitted += 1
        self._query_counter += 1
        fallback_id = query_id or f"q{self._query_counter}"
        try:
            query = normalize_query(
                raw,
                default_deadline=self.default_deadline_seconds,
                query_id=fallback_id,
            )
        except MalformedQueryError as exc:
            return self._finish(
                QueryResult(
                    query_id=fallback_id,
                    key=None,
                    status=QueryStatus.FAILED,
                    source="none",
                    latency_seconds=self._clock() - t0,
                    error=f"malformed query: {exc}",
                )
            )
        key = query_key(query)

        # Coalesce onto identical in-flight work before anything else:
        # a duplicate must never consume queue capacity.
        existing = self._inflight.get(key)
        if existing is not None:
            return await self._await_solved(
                query, key, existing, t0, coalesced=True
            )

        hit = cached_lookup(key)
        if hit is not None:
            return self._finish(
                QueryResult(
                    query_id=query.query_id,
                    key=key,
                    status=QueryStatus.CACHED,
                    value=hit,
                    source="store",
                    latency_seconds=self._clock() - t0,
                )
            )

        depth = self._queue.qsize()
        self.stats.observe_queue_depth(depth)
        level = self.admission.level(depth)
        if level is not ShedLevel.FULL:
            self.stats.record_shed_level(level)
        if level is ShedLevel.REJECT:
            return self._finish(
                QueryResult(
                    query_id=query.query_id,
                    key=key,
                    status=QueryStatus.SHED,
                    source="none",
                    latency_seconds=self._clock() - t0,
                    error=f"admission control: queue depth {depth} at limit",
                )
            )
        if level in (ShedLevel.CACHE_ONLY, ShedLevel.COARSE):
            return self._finish(
                self._degraded_result(
                    query,
                    key,
                    t0,
                    try_cache=level is ShedLevel.CACHE_ONLY,
                    attempts=0,
                    error=f"admission control: shed level {level.name.lower()}",
                )
            )

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[_Solved]" = loop.create_future()
        self._inflight[key] = future
        try:
            self._queue.put_nowait(_Pending(query=query, key=key, future=future))
        except asyncio.QueueFull:
            # Raced past the admission check; degrade instead of block.
            self._inflight.pop(key, None)
            self.stats.record_shed_level(ShedLevel.COARSE)
            return self._finish(
                self._degraded_result(
                    query,
                    key,
                    t0,
                    try_cache=True,
                    attempts=0,
                    error="dispatch queue full",
                )
            )
        return await self._await_solved(query, key, future, t0, coalesced=False)

    async def serve(
        self,
        raw_queries: Iterable[RawQuery],
        *,
        concurrency: int = 64,
    ) -> List[QueryResult]:
        """Submit many queries with bounded client concurrency;
        results come back in input order, one per query."""
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        semaphore = asyncio.Semaphore(concurrency)

        async def one(index: int, raw: RawQuery) -> QueryResult:
            async with semaphore:
                return await self.submit(raw, query_id=f"q{index}")

        return list(
            await asyncio.gather(
                *(one(i, raw) for i, raw in enumerate(raw_queries))
            )
        )

    # ------------------------------------------------------------------
    # internals

    def _finish(self, result: QueryResult) -> QueryResult:
        self.stats.record_result(result)
        return result

    def _degraded_result(
        self,
        query: CapacityQuery,
        key: str,
        t0: float,
        *,
        try_cache: bool,
        attempts: int,
        error: Optional[str],
    ) -> QueryResult:
        outcome = resolve_degraded(query, key, try_cache=try_cache)
        if outcome.source == "store":
            status = QueryStatus.CACHED
        elif _coarse_is_exact(query, outcome.source):
            status = QueryStatus.OK
        else:
            status = QueryStatus.DEGRADED
        return QueryResult(
            query_id=query.query_id,
            key=key,
            status=status,
            value=outcome.value,
            source=outcome.source,
            attempts=attempts,
            latency_seconds=self._clock() - t0,
            error=error if status is QueryStatus.DEGRADED else None,
        )

    async def _await_solved(
        self,
        query: CapacityQuery,
        key: str,
        future: "asyncio.Future[_Solved]",
        t0: float,
        *,
        coalesced: bool,
    ) -> QueryResult:
        deadline = query.deadline_seconds
        try:
            if deadline is None:
                solved = await asyncio.shield(future)
            else:
                remaining = deadline - (self._clock() - t0)
                if remaining <= 0:
                    raise asyncio.TimeoutError
                # shield: one waiter's deadline must not cancel the
                # shared computation other waiters still want.
                solved = await asyncio.wait_for(
                    asyncio.shield(future), timeout=remaining
                )
        except asyncio.TimeoutError:
            return self._finish(
                QueryResult(
                    query_id=query.query_id,
                    key=key,
                    status=QueryStatus.TIMEOUT,
                    source="none",
                    latency_seconds=self._clock() - t0,
                    error=f"deadline {deadline}s expired",
                )
            )
        status = solved.status
        source = solved.source
        if coalesced and status is QueryStatus.OK:
            status = QueryStatus.CACHED
            source = "inflight"
        return self._finish(
            QueryResult(
                query_id=query.query_id,
                key=key,
                status=status,
                value=solved.value,
                source=source,
                attempts=solved.attempts,
                latency_seconds=self._clock() - t0,
                error=solved.error,
            )
        )

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < self.batch_size:
                try:
                    batch.append(
                        await asyncio.wait_for(
                            self._queue.get(),
                            timeout=self.batch_window_seconds,
                        )
                    )
                except asyncio.TimeoutError:
                    break
            self._batch_counter += 1
            batch_id = f"b{self._batch_counter}"
            task = asyncio.create_task(self._dispatch_batch(batch_id, batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _dispatch_batch(
        self, batch_id: str, batch: Sequence[_Pending]
    ) -> None:
        assert self._pool is not None and self._threads is not None
        loop = asyncio.get_running_loop()
        self.stats.batches += 1
        queries = [p.query for p in batch]
        attempts = 0
        last_error: Optional[str] = None
        for attempt in range(self.retry_policy.max_attempts):
            if not self.breaker.allow():
                last_error = "circuit breaker open"
                break
            attempts = attempt + 1
            payload = {
                "queries": queries,
                "seed": self.root_seed,
                "batch_id": batch_id,
                "attempt": attempt,
                "faults": self.fault_plan,
            }
            t0 = self._clock()
            try:
                results = await loop.run_in_executor(
                    self._threads,
                    functools.partial(
                        self._pool.run,
                        solve_query_batch,
                        payload,
                        timeout=self.worker_hang_seconds,
                    ),
                )
            except (
                WorkerCrashedError,
                WorkerHungError,
                TransientWorkerError,
            ) as exc:
                self.breaker.record_failure()
                last_error = repr(exc)
                if attempt + 1 < self.retry_policy.max_attempts:
                    self.stats.retries += 1
                    rng = self.retry_policy.backoff_rng(
                        self.root_seed, batch_id, attempt + 1
                    )
                    await asyncio.sleep(
                        self.retry_policy.delay_seconds(attempt + 1, rng)
                    )
                continue
            except (PoolTaskError, RuntimeError) as exc:
                # Pool exhausted / torn down: not retryable here.
                self.breaker.record_failure()
                last_error = repr(exc)
                break
            latency = self._clock() - t0
            self.breaker.record_success(latency)
            record_stage_seconds("service:worker_batch", latency)
            self._resolve_batch(batch, results, attempts)
            return
        # Retries/breaker gave up: answer every query from the degraded
        # ladder. Queries are never lost.
        self.stats.fallback_batches += 1
        for pending in batch:
            outcome = resolve_degraded(pending.query, pending.key, try_cache=True)
            exact = _coarse_is_exact(pending.query, outcome.source)
            self._resolve_pending(
                pending,
                _Solved(
                    status=QueryStatus.OK if exact else QueryStatus.DEGRADED,
                    value=outcome.value,
                    source=outcome.source,
                    attempts=attempts,
                    error=None if exact else last_error,
                ),
            )

    def _resolve_batch(
        self,
        batch: Sequence[_Pending],
        results: Sequence[Mapping[str, Any]],
        attempts: int,
    ) -> None:
        by_id: Dict[str, Mapping[str, Any]] = {
            str(r["query_id"]): r for r in results
        }
        for pending in batch:
            entry = by_id.get(pending.query.query_id)
            if entry is None:
                solved = _Solved(
                    status=QueryStatus.FAILED,
                    value=None,
                    source="solver",
                    attempts=attempts,
                    error="worker returned no result for query",
                )
            elif "error" in entry:
                solved = _Solved(
                    status=QueryStatus.FAILED,
                    value=None,
                    source="solver",
                    attempts=attempts,
                    error=str(entry["error"]),
                )
            else:
                value = {
                    str(k): float(v) for k, v in entry["value"].items()
                }
                # Only solver answers are shared: degraded rungs must
                # never poison the cache.
                publish(QUERY_FN_ID, pending.key, value)
                solved = _Solved(
                    status=QueryStatus.OK,
                    value=value,
                    source="solver",
                    attempts=attempts,
                )
            self._resolve_pending(pending, solved)

    def _resolve_pending(self, pending: _Pending, solved: _Solved) -> None:
        self._inflight.pop(pending.key, None)
        if not pending.future.done():
            pending.future.set_result(solved)

    # ------------------------------------------------------------------
    # observability

    def stats_snapshot(self) -> Dict[str, Any]:
        """The full ``service stats`` payload: query counters, latency
        percentiles, breaker state/transitions, shed counts, pool
        restarts, and the store's hit/miss counters for query keys seen
        while this service was running."""
        payload = self.stats.to_dict()
        payload["breaker"] = self.breaker.snapshot()
        payload["pool_restarts"] = self.pool_restarts
        payload["store_events"] = {
            k: v
            for k, v in self._store_events.items()
            if k.startswith(QUERY_FN_ID)
        }
        return payload


def serve_queries(
    raw_queries: Sequence[RawQuery],
    *,
    concurrency: int = 64,
    **service_kwargs: Any,
) -> "tuple[List[QueryResult], Dict[str, Any]]":
    """Synchronous convenience: serve *raw_queries* on a fresh service.

    Builds a :class:`CapacityService` with *service_kwargs*, serves the
    whole sequence under one event loop, and returns
    ``(results, stats_snapshot)``.
    """

    async def main() -> "tuple[List[QueryResult], Dict[str, Any]]":
        service = CapacityService(**service_kwargs)
        async with service:
            results = await service.serve(
                raw_queries, concurrency=concurrency
            )
        return results, service.stats_snapshot()

    return asyncio.run(main())
