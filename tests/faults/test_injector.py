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
from repro.faults.models import IIDEventModel

PARAMS = ChannelParameters.from_rates(deletion=0.1, insertion=0.05)
HEAVY = ChannelParameters.from_rates(deletion=0.6, insertion=0.0)


class TestFaultLog:
    def test_record_and_snapshot(self):
        log = FaultLog()
        for _ in range(3):
            log.record("x")
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
        assert active_fault_injector() is None  # uninstalled on exit

    def test_nesting_restores_previous(self):
        outer = FaultInjector(IIDEventModel(HEAVY), seed=1)
        inner = FaultInjector(IIDEventModel(PARAMS), seed=2)
        with outer.active():
            with inner.active():
                assert active_fault_injector() is inner
            assert active_fault_injector() is outer
        assert active_fault_injector() is None


class TestFaultStreams:
    def test_desync_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(IIDEventModel(PARAMS), desync_prob=-0.1)
        with pytest.raises(ValueError):
            FaultInjector(IIDEventModel(PARAMS), desync_prob=1.5)

    def test_feedback_stream_independent_of_protocol_rng(self, rng):
        """Drawing desync faults does not consume the caller's rng."""
        injector = FaultInjector(IIDEventModel(PARAMS), desync_prob=0.5, seed=9)
        state_before = rng.bit_generator.state
        for _ in range(100):
            injector.desync()
        assert rng.bit_generator.state == state_before
        assert injector.log.get("desyncs_injected") > 20

    def test_no_desync_at_rate_zero(self):
        injector = FaultInjector(IIDEventModel(PARAMS), seed=9)
        assert not any(injector.desync() for _ in range(100))
        assert injector.log.get("desyncs_injected") == 0

    def test_desync_frequency(self):
        injector = FaultInjector(IIDEventModel(PARAMS), desync_prob=0.1, seed=1)
        hits = sum(injector.desync() != 0 for _ in range(20_000))
        assert hits / 20_000 == pytest.approx(0.1, abs=0.02)

    def test_desync_values(self):
        injector = FaultInjector(IIDEventModel(PARAMS), desync_prob=0.5, seed=4)
        drifts = [injector.desync() for _ in range(2000)]
        assert set(drifts) == {-1, 0, 1}
        assert injector.log.get("desyncs_injected") == sum(
            1 for d in drifts if d != 0
        )

    def test_reset_reproduces_streams(self):
        injector = FaultInjector(IIDEventModel(PARAMS), desync_prob=0.1, seed=21)
        d = [injector.desync() for _ in range(500)]
        injector.reset()
        assert [injector.desync() for _ in range(500)] == d
        assert injector.log.get("desyncs_injected") == sum(x != 0 for x in d)


class TestRunUnderFaults:
    def test_baseline_completes_within_bound(self, rng):
        injector = FaultInjector(IIDEventModel(PARAMS), seed=0)
        msg = rng.integers(0, 4, 5000)
        fm = run_under_faults(PARAMS, msg, rng, injector, bits_per_symbol=2)
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
        msg = np.random.default_rng(1).integers(0, 4, 5000)
        fm_light, fm_heavy = (
            run_under_faults(
                PARAMS, msg, np.random.default_rng(2), inj, bits_per_symbol=2
            )
            for inj in (light, heavy)
        )
        assert fm_heavy.empirical_params.deletion > 0.4
        assert fm_heavy.empirical_erasure_bound < fm_light.empirical_erasure_bound
        assert fm_heavy.within_bound

    def test_reproducible_from_seed(self):
        def one_run():
            injector = FaultInjector(IIDEventModel(HEAVY), desync_prob=0.01, seed=13)
            rng = np.random.default_rng(13)
            msg = rng.integers(0, 4, 3000)
            return run_under_faults(PARAMS, msg, rng, injector, bits_per_symbol=2)

        a, b = one_run(), one_run()
        assert np.array_equal(a.run.delivered, b.run.delivered)
        assert a.fault_counts == b.fault_counts
        assert a.information_rate_per_use == b.information_rate_per_use
