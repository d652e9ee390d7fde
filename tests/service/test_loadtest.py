"""Trace generation and the fault-injected load test.

``test_acceptance_ten_thousand_chaotic_queries`` is the ISSUE-6
acceptance experiment itself: >=10k queries with injected worker
crashes, slow solvers, transient errors, and malformed input — and
every single query accounted for with a terminal status.
"""

import pytest

from repro.faults import SERVICE_SCENARIOS, get_service_scenario
from repro.service import (
    MalformedQueryError,
    QueryStatus,
    generate_trace,
    normalize_query,
    run_load_test,
)

# ----------------------------------------------------------------------
# scenarios


def test_scenario_registry():
    names = sorted(SERVICE_SCENARIOS)
    assert {"none", "crashy_workers", "slow_solvers", "flaky_solvers",
            "chaos"} <= set(names)
    assert get_service_scenario("chaos") is SERVICE_SCENARIOS["chaos"]
    with pytest.raises(KeyError):
        get_service_scenario("nope")
    assert not SERVICE_SCENARIOS["none"].injects_faults
    assert SERVICE_SCENARIOS["chaos"].injects_faults


# ----------------------------------------------------------------------
# trace generation


def test_trace_is_deterministic_in_seed():
    a = generate_trace(300, seed=5, malformed_rate=0.1)
    b = generate_trace(300, seed=5, malformed_rate=0.1)
    assert a == b
    c = generate_trace(300, seed=6, malformed_rate=0.1)
    assert a != c


def test_trace_validation():
    with pytest.raises(ValueError):
        generate_trace(0)
    with pytest.raises(ValueError):
        generate_trace(10, malformed_rate=1.5)


def test_clean_trace_is_entirely_well_formed():
    for raw in generate_trace(200, seed=1):
        normalize_query(raw)  # must not raise


def test_malformed_rate_actually_corrupts():
    trace = generate_trace(400, seed=2, malformed_rate=0.2)
    bad = 0
    for raw in trace:
        try:
            normalize_query(raw)
        except MalformedQueryError:
            bad += 1
    # ~80 expected; generous brackets keep this non-flaky.
    assert 30 <= bad <= 160


def test_trace_deadline_rides_along():
    trace = generate_trace(20, seed=0, deadline_seconds=3.0)
    assert all(q.get("deadline_seconds") == 3.0 for q in trace)


# ----------------------------------------------------------------------
# the load test harness


def test_clean_load_test_accounts_for_everything():
    report = run_load_test(
        300, seed=11, scenario="none", workers=2, concurrency=64,
        deadline_seconds=30.0,
    )
    assert report.lost == 0
    assert sum(report.status_counts.values()) == 300
    assert report.deadline_p99_ok
    assert report.status_counts.get("failed", 0) == 0  # nothing malformed
    assert report.throughput_qps > 0
    payload = report.to_dict()
    assert payload["n_queries"] == 300
    assert payload["stats"]["submitted"] == 300


def test_acceptance_ten_thousand_chaotic_queries():
    """The ISSUE-6 acceptance bar, verbatim: >=10k queries under the
    chaos scenario (worker crashes + slow solvers + transient errors +
    malformed input), zero lost, admitted deadlines honored at p99,
    breaker/shed/retry counters surfaced."""
    report = run_load_test(
        10_000,
        seed=0,
        scenario="chaos",
        workers=2,
        concurrency=256,
        queue_limit=128,
        batch_size=32,
        deadline_seconds=30.0,
    )
    # Accountability: every query terminated in exactly one status.
    assert report.lost == 0
    assert sum(report.status_counts.values()) == 10_000
    assert set(report.status_counts) <= {s.value for s in QueryStatus}
    # Malformed injection (2%) really flowed through as FAILED.
    assert report.status_counts.get("failed", 0) > 0
    # Admitted queries met their deadline at p99.
    assert report.deadline_p99_ok
    # The observability surface the CLI prints.
    stats = report.stats
    assert stats["submitted"] == 10_000
    assert stats["batches"] > 0
    assert "breaker" in stats and "transitions" in stats["breaker"]
    assert isinstance(stats["shed_levels"], dict)
    assert stats["latency_seconds"]["count"] > 0


def test_crashy_scenario_exercises_pool_supervision():
    report = run_load_test(
        600,
        seed=3,
        scenario="crashy_workers",
        workers=2,
        concurrency=64,
        queue_limit=64,
        batch_size=8,
        deadline_seconds=30.0,
    )
    assert report.lost == 0
    # Crash probability 0.05/batch over ~dozens of batches: the pool
    # supervision path runs with overwhelming probability; retries or
    # restarts must be visible.
    assert report.pool_restarts + report.stats["retries"] >= 1
