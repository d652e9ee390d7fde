"""Stage-timing collector semantics (repro.numerics.profiling)."""

from repro.numerics import (
    collect_stage_timings,
    collect_store_events,
    record_stage_seconds,
    record_store_event,
    stage,
    timing_active,
)


def test_no_collector_is_a_noop():
    assert not timing_active()
    with stage("lattice"):
        pass
    record_stage_seconds("lattice", 1.0)  # silently dropped
    with collect_stage_timings() as totals:
        pass
    assert totals == {}


def test_stage_accumulates_into_open_collector():
    with collect_stage_timings() as totals:
        assert timing_active()
        with stage("lattice"):
            pass
        with stage("lattice"):
            pass
        record_stage_seconds("solver", 0.25)
    assert not timing_active()
    assert totals["lattice"] >= 0.0
    assert totals["solver"] == 0.25


def test_nested_collectors_both_receive_records():
    with collect_stage_timings() as outer:
        record_stage_seconds("a", 1.0)
        with collect_stage_timings() as inner:
            record_stage_seconds("a", 2.0)
        record_stage_seconds("b", 0.5)
    assert inner == {"a": 2.0}
    assert outer == {"a": 3.0, "b": 0.5}

    # Both still empty, so the two dicts compare equal: exiting the
    # inner collector must remove it, not the outer one.
    with collect_stage_timings() as outer:
        with collect_stage_timings():
            pass
        record_stage_seconds("a", 1.0)
    assert outer == {"a": 1.0}
    with collect_store_events() as outer_events:
        with collect_store_events():
            pass
        record_store_event("fn", "hit")
    assert outer_events == {"fn:hit": 1}


def test_stages_nest_and_sum():
    with collect_stage_timings() as totals:
        with stage("trial"):
            with stage("lattice"):
                pass
    # Inner stage time is attributed to both enclosing names.
    assert set(totals) == {"trial", "lattice"}
    assert totals["trial"] >= totals["lattice"]
