"""The one collector stack (repro.numerics.telemetry): solver statuses,
stage timings and store events share one set of collector semantics.

Kind-specific cases live beside their users: the status collector in
test_guard.py, the stage timings in test_profiling.py."""

import pytest

from repro.numerics import (
    SolverStatus,
    collect_solver_statuses,
    collect_stage_timings,
    collect_store_events,
    record_cache_event,
    record_stage_seconds,
    record_status,
    stage,
    telemetry,
)

#: kind -> (collector, record one unit under a name, key for a name, unit)
KINDS = {
    "status": (
        collect_solver_statuses,
        lambda name: record_status(name, SolverStatus.STALLED),
        "{}:stalled",
        1,
    ),
    "stage": (
        collect_stage_timings,
        lambda name: record_stage_seconds(name, 0.25),
        "{}",
        0.25,
    ),
    "store": (
        collect_store_events,
        lambda name: record_cache_event(name, "hit"),
        "{}:hit",
        1,
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_collector_semantics(kind):
    collect, record, key, unit = KINDS[kind]

    # No collector open: recording is a silent no-op.
    record("orphan")
    with collect() as empty:
        pass
    assert empty == {}

    # Records accumulate per key.
    with collect() as totals:
        record("a")
        record("a")
        record("b")
    assert totals == {key.format("a"): 2 * unit, key.format("b"): unit}

    # Nested collectors both receive every record.
    with collect() as outer:
        record("a")
        with collect() as inner:
            record("a")
        record("b")
    assert inner == {key.format("a"): unit}
    assert outer == {key.format("a"): 2 * unit, key.format("b"): unit}

    # Both still empty, so the two dicts compare equal: exiting the
    # inner collector must remove it by identity, not the outer one.
    with collect() as outer:
        with collect():
            pass
        record("a")
    assert outer == {key.format("a"): unit}

    # An exception closes the collector.
    with pytest.raises(RuntimeError):
        with collect() as closed:
            raise RuntimeError("boom")
    record("a")
    assert closed == {}


def test_stage_reads_the_clock_only_under_a_timing_collector(monkeypatch):
    def no_clock():
        raise AssertionError("stage() read the clock")

    monkeypatch.setattr(telemetry.time, "perf_counter", no_clock)
    with collect_solver_statuses() as statuses, collect_store_events() as events:
        with stage("lattice"):
            record_status("s", SolverStatus.CONVERGED)
            record_cache_event("fn", "miss")
    assert statuses == {"s:converged": 1}
    assert events == {"fn:miss": 1}

