"""CapacityService behavior: lifecycle, dedup, deadlines, shedding,
fault recovery. Driven with plain ``asyncio.run`` (no plugin needed).
"""

import asyncio

import pytest

from repro.core.capacity import erasure_upper_bound
from repro.core.estimation import CapacityEstimator
from repro.core.events import ChannelParameters
from repro.core.theorems import capacity_bracket
from repro.faults import ServiceFaultPlan
from repro.service import (
    AdmissionController,
    CapacityService,
    CircuitBreaker,
    QueryStatus,
    RetryPolicy,
    normalize_query,
    serve_queries,
    solve_query,
)
from repro.store import ResultStore, use_store


def _raw(**overrides):
    base = {
        "kind": "estimate",
        "deletion": 0.1,
        "insertion": 0.05,
        "bits_per_symbol": 4,
    }
    base.update(overrides)
    return base


def _serve(queries, **kwargs):
    kwargs.setdefault("workers", 2)
    return serve_queries(queries, **kwargs)


# ----------------------------------------------------------------------
# lifecycle


def test_submit_requires_started_service():
    async def main():
        service = CapacityService()
        with pytest.raises(RuntimeError, match="not started"):
            await service.submit(_raw())

    asyncio.run(main())


def test_double_start_is_refused():
    async def main():
        async with CapacityService() as service:
            with pytest.raises(RuntimeError, match="already started"):
                await service.start()

    asyncio.run(main())


def test_constructor_validation():
    with pytest.raises(ValueError):
        CapacityService(workers=0)
    with pytest.raises(ValueError):
        CapacityService(batch_size=0)
    with pytest.raises(ValueError):
        CapacityService(batch_window_seconds=-1.0)


# ----------------------------------------------------------------------
# answers match the solvers they front


def test_ok_answers_match_direct_solver_calls():
    queries = [
        _raw(kind="estimate"),
        _raw(kind="bounds"),
        _raw(kind="erasure"),
    ]
    results, stats = _serve(queries)
    assert [r.status for r in results] in (
        [QueryStatus.OK] * 3,
        [QueryStatus.OK, QueryStatus.OK, QueryStatus.OK],
    )
    report = CapacityEstimator(4).estimate(
        ChannelParameters.from_rates(deletion=0.1, insertion=0.05)
    )
    assert results[0].value == {
        "corrected_capacity": report.corrected_capacity,
        "feedback_lower": report.feedback_lower,
    }
    lower, upper = capacity_bracket(4, 0.1, 0.05)
    assert results[1].value == {"lower": lower, "upper": upper}
    assert results[2].value == {"upper": erasure_upper_bound(4, 0.1)}
    assert stats["submitted"] == 3


def test_block_bound_answers_match_the_batched_sweep():
    from repro.bounds import indel_block_bound_sweep
    from repro.service.workers import (
        BLOCK_BOUND_LENGTH,
        BLOCK_BOUND_MAX_EXTRA,
    )

    grid = [(0.1, 0.05), (0.25, 0.1)]
    queries = [
        _raw(
            kind="block_bound",
            bits_per_symbol=1,
            deletion=pd,
            insertion=pi,
        )
        for pd, pi in grid
    ]
    # An unrelated kind rides in the same batch without disturbing the
    # grouped block_bound solve.
    queries.append(_raw(kind="erasure", deletion=0.3, insertion=0.0))
    results, _stats = _serve(queries, batch_size=8)
    expected = indel_block_bound_sweep(
        grid,
        block_length=BLOCK_BOUND_LENGTH,
        max_extra=BLOCK_BOUND_MAX_EXTRA,
    )
    for result, bound in zip(results, expected):
        assert result.status is QueryStatus.OK
        assert result.value == {
            "lower": bound.lower_bound,
            "upper": bound.erasure_upper,
        }
        assert 0.0 <= result.value["lower"] <= result.value["upper"]
    assert results[2].status is QueryStatus.OK
    assert results[2].value == {"upper": erasure_upper_bound(4, 0.3)}


def test_results_come_back_in_input_order():
    queries = [_raw(deletion=round(0.05 * i, 2)) for i in range(8)]
    results, _ = _serve(queries)
    assert [r.query_id for r in results] == [f"q{i}" for i in range(8)]


# ----------------------------------------------------------------------
# dedup and caching


def test_identical_inflight_queries_coalesce():
    # A wide batch window holds the first query in the queue long
    # enough for its duplicates to coalesce instead of recomputing.
    queries = [_raw()] * 6
    results, _ = _serve(queries, batch_window_seconds=0.1)
    statuses = sorted(r.status.value for r in results)
    assert statuses.count("ok") == 1  # exactly one paid the solve
    assert statuses.count("cached") == 5
    values = {tuple(sorted(r.value.items())) for r in results}
    assert len(values) == 1  # everyone got the same answer
    assert {r.source for r in results} == {"solver", "inflight"}


def test_store_serves_repeat_queries(tmp_path):
    with use_store(ResultStore(tmp_path)):
        first, _ = _serve([_raw()])
        assert first[0].status is QueryStatus.OK
        second, stats = _serve([_raw()])
    assert second[0].status is QueryStatus.CACHED
    assert second[0].source == "store"
    assert second[0].value == first[0].value
    assert stats["store_events"]  # hit/miss counters surfaced


# ----------------------------------------------------------------------
# failure dispositions


def test_malformed_queries_fail_without_raising():
    results, stats = _serve([_raw(kind="bogus"), _raw()])
    assert results[0].status is QueryStatus.FAILED
    assert "malformed" in results[0].error
    assert results[0].key is None
    assert results[1].status is QueryStatus.OK
    assert stats["status_counts"]["failed"] == 1


def test_deadline_expiry_yields_timeout():
    slow = ServiceFaultPlan(slow_prob=1.0, slow_seconds=0.5)
    results, _ = _serve(
        [_raw(deadline_seconds=0.05)], fault_plan=slow, workers=1
    )
    assert results[0].status is QueryStatus.TIMEOUT
    assert results[0].value is None


def test_saturation_sheds_rather_than_blocks():
    slow = ServiceFaultPlan(slow_prob=1.0, slow_seconds=0.2)
    queries = [_raw(deletion=round(0.01 * i, 3)) for i in range(30)]
    results, stats = _serve(
        queries,
        fault_plan=slow,
        workers=1,
        batch_size=1,
        concurrency=30,
        admission=AdmissionController(queue_limit=1),
    )
    statuses = {r.status for r in results}
    assert len(results) == 30  # every query terminated
    assert statuses <= set(QueryStatus)
    # With a one-slot queue and slow workers, overload must surface.
    overloaded = {QueryStatus.SHED, QueryStatus.DEGRADED} & statuses
    assert overloaded
    assert stats["shed_levels"]  # the ladder was exercised
    for r in results:
        if r.status is QueryStatus.SHED:
            assert "admission control" in r.error
        if r.status is QueryStatus.DEGRADED:
            assert r.value is not None  # degraded still answers


def test_total_worker_failure_degrades_and_opens_the_breaker():
    crashy = ServiceFaultPlan(worker_crash_prob=1.0)
    queries = [_raw(deletion=round(0.02 * i, 3)) for i in range(6)]
    results, stats = _serve(
        queries,
        fault_plan=crashy,
        workers=1,
        batch_size=2,
        retry_policy=RetryPolicy(max_retries=1, base_delay_seconds=0.01),
        breaker=CircuitBreaker(failure_threshold=2, cooldown_seconds=30.0),
    )
    # Every query still terminates — with a degraded (coarse) answer.
    assert len(results) == 6
    for r in results:
        assert r.status is QueryStatus.DEGRADED
        assert r.value is not None
        assert r.source == "coarse_bound"
    assert stats["pool_restarts"] >= 1  # crashes rebuilt the pool
    assert stats["retries"] >= 1  # the retry policy fired
    assert stats["fallback_batches"] >= 1
    assert stats["breaker"]["transitions"].get("closed->open", 0) >= 1


def test_worker_failure_answers_erasure_exactly():
    # The coarse rung's N(1 - P_d) is the erasure kind's full answer, so
    # only the other kinds are degraded when every worker crashes.
    crashy = ServiceFaultPlan(worker_crash_prob=1.0)
    erasure = _raw(kind="erasure")
    results, stats = _serve(
        [erasure, _raw()],
        fault_plan=crashy,
        workers=1,
        retry_policy=RetryPolicy(max_retries=0),
    )
    assert stats["fallback_batches"] >= 1
    exact, estimate = results
    assert exact.status is QueryStatus.OK
    assert exact.source == "coarse_bound"
    assert exact.error is None
    assert exact.value == solve_query(normalize_query(erasure))
    assert estimate.status is QueryStatus.DEGRADED
    assert estimate.source == "coarse_bound"


# ----------------------------------------------------------------------
# observability


def test_stats_snapshot_shape():
    results, stats = _serve([_raw(), _raw(kind="erasure")])
    assert {r.status for r in results} <= set(QueryStatus)
    for key in (
        "submitted",
        "status_counts",
        "shed_levels",
        "queue_depth_peak",
        "batches",
        "fallback_batches",
        "retries",
        "latency_seconds",
        "breaker",
        "pool_restarts",
        "store_events",
    ):
        assert key in stats
    assert stats["submitted"] == 2
    assert sum(stats["status_counts"].values()) == 2
    assert {"p50", "p99", "max", "count"} <= set(stats["latency_seconds"])


# ----------------------------------------------------------------------
# sample_capacity kind


def test_sample_capacity_answers_match_direct_estimation():
    from repro.estimation import estimate_sample_capacity
    from repro.service.query import normalize_query
    from repro.service.workers import (
        SAMPLE_CAPACITY_K,
        SAMPLE_CAPACITY_SEED,
        reference_sampler,
    )

    raw = _raw(
        kind="sample_capacity",
        deletion=0.1,
        insertion=0.0,
        bits_per_symbol=1,
        sampler="bsc",
        n_samples=1024,
    )
    results, stats = _serve([raw])
    assert results[0].status is QueryStatus.OK
    direct = estimate_sample_capacity(
        reference_sampler(normalize_query(raw)),
        n_samples=1024,
        seed=SAMPLE_CAPACITY_SEED,
        k=SAMPLE_CAPACITY_K,
    )
    assert results[0].value == {
        "capacity": direct.capacity,
        "mutual_information": direct.bits_per_symbol,
        "mean_time": direct.mean_time,
    }
    assert stats["submitted"] == 1


def test_sample_capacity_served_from_store_on_repeat(tmp_path):
    raw = _raw(
        kind="sample_capacity",
        deletion=0.2,
        insertion=0.0,
        bits_per_symbol=1,
        sampler="scheduler",
        n_samples=512,
    )
    store = ResultStore(tmp_path)
    with use_store(store):
        first, _ = _serve([raw])
        second, stats = _serve([raw])
    assert first[0].status is QueryStatus.OK
    assert second[0].status is QueryStatus.CACHED
    assert second[0].source == "store"
    assert second[0].value == first[0].value
    assert stats["store_events"]  # hit/miss counters surfaced
