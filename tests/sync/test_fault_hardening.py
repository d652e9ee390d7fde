"""Hardened protocol behaviour under fault injection.

Covers the RetryPolicy-driven ResendProtocol sender, the
CounterProtocol resynchronization epochs, and — critically — that the
fault-free default paths are bit-identical to the original
perfect-feedback implementations.
"""

import numpy as np
import pytest

from repro.core.events import ChannelParameters
from repro.faults.injector import FaultInjector
from repro.faults.models import FeedbackFaultModel, IIDEventModel
from repro.faults.scenarios import get_scenario
from repro.sync import feedback
from repro.sync.feedback import CounterProtocol, ResendProtocol
from repro.sync.protocols import RetryPolicy

DEL_ONLY = ChannelParameters.from_rates(deletion=0.2, insertion=0.0)
DEL_INS = ChannelParameters.from_rates(deletion=0.1, insertion=0.05)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(ack_timeout_slots=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(ack_timeout_slots=8, max_timeout_slots=4)

    def test_backoff_growth_and_cap(self):
        policy = RetryPolicy(ack_timeout_slots=2, backoff=2.0, max_timeout_slots=16)
        assert [policy.timeout_after(f) for f in range(6)] == [2, 4, 8, 16, 16, 16]

    def test_flat_by_default(self):
        policy = RetryPolicy()
        assert policy.timeout_after(0) == policy.timeout_after(10) == 1


class TestResendHardened:
    def test_policy_alone_still_delivers_exactly(self, rng):
        """A retry policy without faults changes the sender machinery but
        not correctness: every symbol arrives intact."""
        proto = ResendProtocol(
            DEL_ONLY, retry_policy=RetryPolicy(max_retries=None)
        )
        msg = rng.integers(0, 2, 4000)
        run = proto.run(msg, rng)
        assert np.array_equal(run.delivered, msg)
        assert run.symbol_errors == 0
        assert not run.degraded
        assert run.fault_counts.get("symbols_abandoned", 0) == 0
        # Rate still converges to the Theorem-3 value.
        assert run.throughput_per_use == pytest.approx(0.8, abs=0.03)

    def test_lossy_acks_cause_duplicates_not_errors(self, rng):
        injector = FaultInjector(
            IIDEventModel(DEL_ONLY),
            FeedbackFaultModel(ack_loss_prob=0.3),
            seed=2,
        )
        proto = ResendProtocol(DEL_ONLY, retry_policy=RetryPolicy())
        msg = rng.integers(0, 2, 3000)
        with injector.active():
            run = proto.run(msg, rng)
        assert np.array_equal(run.delivered, msg)
        assert run.fault_counts.get("duplicates", 0) > 0
        assert run.fault_counts.get("acks_lost", 0) > 0
        assert not run.degraded
        # Duplicates burn uses: rate drops below the Theorem-3 value.
        assert run.throughput_per_use < 0.8

    def test_retry_exhaustion_abandons_and_flags_degraded(self, rng):
        injector = FaultInjector(
            IIDEventModel(DEL_ONLY),
            FeedbackFaultModel(ack_loss_prob=0.6),
            seed=2,
        )
        proto = ResendProtocol(
            DEL_ONLY, retry_policy=RetryPolicy(max_retries=1)
        )
        msg = rng.integers(0, 2, 3000)
        with injector.active():
            run = proto.run(msg, rng)
        assert run.symbols_delivered == msg.size  # abandoned -> guessed
        assert run.fault_counts.get("symbols_abandoned", 0) > 0
        assert run.degraded
        assert run.symbol_errors <= run.fault_counts.get("symbols_abandoned", 0)

    def test_delayed_acks_wait_out_timeouts(self, rng):
        injector = FaultInjector(
            IIDEventModel(DEL_ONLY),
            FeedbackFaultModel(ack_delay_prob=0.4),
            seed=6,
        )
        proto = ResendProtocol(
            DEL_ONLY, retry_policy=RetryPolicy(ack_timeout_slots=3)
        )
        msg = rng.integers(0, 2, 2000)
        with injector.active():
            run = proto.run(msg, rng)
        assert np.array_equal(run.delivered, msg)
        assert run.fault_counts.get("acks_delayed", 0) > 0
        counts = run.fault_counts
        assert counts.get("timeout_slots_waited", 0) >= 3 * counts["acks_delayed"]

    def test_backoff_waits_longer(self, rng):
        def waited(policy):
            injector = FaultInjector(
                IIDEventModel(DEL_ONLY),
                FeedbackFaultModel(ack_loss_prob=0.4),
                seed=8,
            )
            proto = ResendProtocol(DEL_ONLY, retry_policy=policy)
            msg = np.random.default_rng(8).integers(0, 2, 2000)
            with injector.active():
                run = proto.run(msg, np.random.default_rng(9))
            return run.fault_counts.get("timeout_slots_waited", 0)

        assert waited(RetryPolicy(backoff=2.0)) > waited(RetryPolicy(backoff=1.0))

class TestCounterHardened:
    def test_desync_recovery_engages(self, rng):
        injector = get_scenario("counter_desync").build(DEL_INS, seed=4)
        proto = CounterProtocol(DEL_INS, bits_per_symbol=2)
        msg = rng.integers(0, 4, 20_000)
        injector.reset()
        with injector.active():
            run = proto.run(msg, rng)
        assert run.symbols_delivered == msg.size
        assert run.degraded
        assert run.fault_counts.get("desyncs_injected", 0) > 0
        assert run.fault_counts.get("resync_epochs", 0) > 0
        assert run.fault_counts.get("desyncs_recovered", 0) > 0
        assert run.fault_counts.get("misaligned_deliveries", 0) > 0

    def test_tighter_resync_reduces_misalignment(self, monkeypatch):
        """Shorter epochs repair desync sooner, so fewer deliveries
        happen while the counters disagree."""

        def misaligned(interval):
            monkeypatch.setattr(feedback, "RESYNC_INTERVAL", interval)
            injector = get_scenario("counter_desync").build(DEL_INS, seed=4)
            proto = CounterProtocol(DEL_INS, bits_per_symbol=2)
            msg = np.random.default_rng(4).integers(0, 4, 20_000)
            injector.reset()
            with injector.active():
                run = proto.run(msg, np.random.default_rng(5))
            return run.fault_counts.get("misaligned_deliveries", 0)

        assert misaligned(64) < misaligned(2048)

    def test_resync_costs_sender_slots(self, rng):
        injector = get_scenario("counter_desync").build(DEL_INS, seed=4)
        proto = CounterProtocol(DEL_INS, bits_per_symbol=2)
        msg = rng.integers(0, 4, 10_000)
        injector.reset()
        with injector.active():
            run = proto.run(msg, rng)
        epochs = run.fault_counts.get("resync_epochs", 0)
        assert epochs > 0
        # Slot accounting: deletions + transmissions + epoch overhead.
        assert run.sender_slots == (
            run.deletions + run.transmissions + feedback.RESYNC_COST_SLOTS * epochs
        )


class TestDefaultPathRegression:
    """The fault machinery must not perturb fault-free semantics."""

    def test_counter_run_identical_under_baseline_injector(self):
        """A baseline injector (nominal i.i.d. model, perfect feedback)
        reproduces the uninstrumented run bit for bit."""
        proto = CounterProtocol(DEL_INS, bits_per_symbol=2)
        msg = np.random.default_rng(0).integers(0, 4, 8000)
        plain = proto.run(msg, np.random.default_rng(1))
        injector = get_scenario("baseline").build(DEL_INS, seed=0)
        injector.reset()
        with injector.active():
            faulted = proto.run(msg, np.random.default_rng(1))
        assert np.array_equal(plain.delivered, faulted.delivered)
        assert plain.channel_uses == faulted.channel_uses
        assert plain.sender_slots == faulted.sender_slots
        assert not faulted.degraded

    def test_resend_legacy_path_untouched_without_policy(self):
        """No policy, no injector: the original vectorized-geometric
        sender runs, with empty fault accounting."""
        proto = ResendProtocol(DEL_ONLY)
        msg = np.random.default_rng(2).integers(0, 2, 5000)
        run = proto.run(msg, np.random.default_rng(3))
        assert run.fault_counts == {}
        assert not run.degraded
        assert np.array_equal(run.delivered, msg)

    def test_event_driven_rate_matches_legacy(self):
        """Both sender implementations converge to N(1 - p_d)."""
        msg = np.random.default_rng(4).integers(0, 2, 60_000)
        legacy = ResendProtocol(DEL_ONLY).run(msg, np.random.default_rng(5))
        hardened = ResendProtocol(
            DEL_ONLY, retry_policy=RetryPolicy()
        ).run(msg, np.random.default_rng(6))
        assert hardened.throughput_per_use == pytest.approx(
            legacy.throughput_per_use, rel=0.03
        )
