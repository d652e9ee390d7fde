"""FaultInjector: hook installation, fault streams, and the
run-under-faults harness."""

import numpy as np
import pytest

from repro.core.events import ChannelParameters, sample_events
from repro.core.events import active_fault_injector
from repro.faults.injector import (
    FaultInjector,
    FaultLog,
    run_under_faults,
)
from repro.faults.models import FeedbackFaultModel, IIDEventModel
from repro.sync.feedback import CounterProtocol

PARAMS = ChannelParameters.from_rates(deletion=0.1, insertion=0.05)
HEAVY = ChannelParameters.from_rates(deletion=0.6, insertion=0.0)


class TestFaultLog:
    def test_record_and_snapshot(self):
        log = FaultLog()
        log.record("x")
        log.record("x", 2)
        assert log.get("x") == 3
        assert log.get("missing") == 0
        snap = log.snapshot()
        log.record("x")
        assert snap == {"x": 3}  # snapshot is detached
        log.clear()
        assert log.get("x") == 0


class TestActivation:
    def test_no_injector_by_default(self):
        assert active_fault_injector() is None

    def test_hook_reroutes_sample_events(self, rng):
        """Inside active(), sample_events draws from the injector's
        model — here a much heavier channel than the one requested."""
        injector = FaultInjector(IIDEventModel(HEAVY), seed=3)
        with injector.active():
            assert active_fault_injector() is injector
            events = sample_events(PARAMS, 50_000, rng)
        assert np.mean(events == 0) == pytest.approx(0.6, abs=0.02)
        assert injector.log.get("faulted_uses") == 50_000
        assert active_fault_injector() is None  # uninstalled on exit

    def test_no_event_model_leaves_forward_path_alone(self, rng):
        injector = FaultInjector(feedback=FeedbackFaultModel(ack_loss_prob=0.5))
        baseline = sample_events(PARAMS, 2000, np.random.default_rng(11))
        with injector.active():
            hooked = sample_events(PARAMS, 2000, np.random.default_rng(11))
        assert np.array_equal(baseline, hooked)

    def test_nesting_restores_previous(self):
        outer = FaultInjector(IIDEventModel(HEAVY), seed=1)
        inner = FaultInjector(IIDEventModel(PARAMS), seed=2)
        with outer.active():
            with inner.active():
                assert active_fault_injector() is inner
            assert active_fault_injector() is outer
        assert active_fault_injector() is None


class TestFaultStreams:
    def test_feedback_stream_independent_of_protocol_rng(self, rng):
        """Drawing ack outcomes does not consume the caller's rng."""
        injector = FaultInjector(
            feedback=FeedbackFaultModel(ack_loss_prob=0.5), seed=9
        )
        state_before = rng.bit_generator.state
        for _ in range(100):
            injector.ack_outcome()
        assert rng.bit_generator.state == state_before
        assert injector.log.get("acks_lost") > 20

    def test_desync_values(self):
        injector = FaultInjector(
            feedback=FeedbackFaultModel(desync_prob=0.5), seed=4
        )
        drifts = [injector.desync() for _ in range(2000)]
        assert set(drifts) == {-1, 0, 1}
        assert injector.log.get("desyncs_injected") == sum(
            1 for d in drifts if d != 0
        )

    def test_reset_reproduces_streams(self):
        injector = FaultInjector(
            IIDEventModel(PARAMS),
            FeedbackFaultModel(ack_loss_prob=0.3, desync_prob=0.1),
            seed=21,
        )
        a = [int(injector.ack_outcome()) for _ in range(500)]
        d = [injector.desync() for _ in range(500)]
        injector.reset()
        assert [int(injector.ack_outcome()) for _ in range(500)] == a
        assert [injector.desync() for _ in range(500)] == d
        assert injector.log.get("acks_lost") == a.count(1)

    def test_abandon_guess_in_range(self):
        injector = FaultInjector(seed=5)
        guesses = [injector.abandon_guess(8) for _ in range(200)]
        assert all(0 <= g < 8 for g in guesses)
        assert len(set(guesses)) > 1


class TestRunUnderFaults:
    def test_baseline_completes_within_bound(self, rng):
        injector = FaultInjector(IIDEventModel(PARAMS), seed=0)
        proto = CounterProtocol(PARAMS, bits_per_symbol=2)
        msg = rng.integers(0, 4, 5000)
        fm = run_under_faults(proto, msg, rng, injector)
        assert fm.completed
        assert fm.within_bound
        assert fm.empirical_params.deletion == pytest.approx(0.1, abs=0.02)
        assert fm.empirical_erasure_bound == pytest.approx(
            2 * (1 - fm.empirical_params.deletion)
        )
        assert not fm.run.degraded

    def test_heavy_faults_shrink_the_bound(self, rng):
        light = FaultInjector(IIDEventModel(PARAMS), seed=0)
        heavy = FaultInjector(
            IIDEventModel(ChannelParameters.from_rates(0.5, 0.05)), seed=0
        )
        proto = CounterProtocol(PARAMS, bits_per_symbol=2)
        msg = np.random.default_rng(1).integers(0, 4, 5000)
        fm_light = run_under_faults(proto, msg, np.random.default_rng(2), light)
        fm_heavy = run_under_faults(proto, msg, np.random.default_rng(2), heavy)
        assert fm_heavy.empirical_params.deletion > 0.4
        assert fm_heavy.empirical_erasure_bound < fm_light.empirical_erasure_bound
        assert fm_heavy.within_bound

    def test_reproducible_from_seed(self):
        def one_run():
            injector = FaultInjector(
                IIDEventModel(HEAVY),
                FeedbackFaultModel(desync_prob=0.01),
                seed=13,
            )
            proto = CounterProtocol(PARAMS, bits_per_symbol=2)
            rng = np.random.default_rng(13)
            msg = rng.integers(0, 4, 3000)
            return run_under_faults(proto, msg, rng, injector)

        a, b = one_run(), one_run()
        assert np.array_equal(a.run.delivered, b.run.delivered)
        assert a.fault_counts == b.fault_counts
        assert a.information_rate_per_use == b.information_rate_per_use
