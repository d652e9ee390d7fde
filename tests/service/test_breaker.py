"""Circuit breaker transitions, driven by a fake clock (no sleeping)."""

import pytest

from repro.service import BreakerState, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_breaker():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown_seconds=10.0)
    breaker._clock = clock
    return breaker, clock


def test_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(cooldown_seconds=-1.0)


def test_consecutive_failures_trip_the_breaker():
    breaker, _ = make_breaker()
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.allow() is False  # fails fast inside the cooldown


def test_success_resets_the_failure_streak():
    breaker, _ = make_breaker()
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED  # streak never reached 3


def test_cooldown_admits_exactly_one_half_open_probe():
    breaker, clock = make_breaker()
    for _ in range(3):
        breaker.record_failure()
    clock.now = 9.9
    assert breaker.allow() is False
    clock.now = 10.1
    assert breaker.allow() is True  # the probe
    assert breaker.state is BreakerState.HALF_OPEN
    assert breaker.allow() is False  # concurrent dispatch refused


def test_probe_success_closes_probe_failure_reopens():
    breaker, clock = make_breaker()
    for _ in range(3):
        breaker.record_failure()
    clock.now = 11.0
    assert breaker.allow()
    breaker.record_success(latency_seconds=0.01)
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow() is True

    for _ in range(3):
        breaker.record_failure()
    clock.now = 23.0
    assert breaker.allow()
    breaker.record_failure()  # the probe fails
    assert breaker.state is BreakerState.OPEN
    assert breaker.allow() is False  # a fresh cooldown started


def test_transitions_are_counted_for_observability():
    breaker, clock = make_breaker()
    for _ in range(3):
        breaker.record_failure()
    clock.now = 11.0
    breaker.allow()
    breaker.record_success()
    snapshot = breaker.snapshot()
    assert snapshot["state"] == "closed"
    assert snapshot["transitions"] == {
        "closed->open": 1,
        "open->half_open": 1,
        "half_open->closed": 1,
    }


def test_snapshot_reports_latency_ewma():
    breaker, _ = make_breaker()
    assert breaker.snapshot()["latency_ewma_seconds"] is None
    breaker.record_success(latency_seconds=0.25)
    assert breaker.snapshot()["latency_ewma_seconds"] == 0.25
    breaker.record_success(latency_seconds=1.25)
    assert breaker.snapshot()["latency_ewma_seconds"] == pytest.approx(0.55)
    assert breaker.state is BreakerState.CLOSED
