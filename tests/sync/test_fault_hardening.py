"""Hardened protocol behaviour under fault injection.

Covers the CounterProtocol resynchronization epochs and — critically —
that the fault-free default paths are bit-identical to the original
perfect-feedback implementations.
"""

import numpy as np

from repro.core.events import ChannelParameters
from repro.faults.scenarios import get_scenario
from repro.sync import feedback
from repro.sync.feedback import CounterProtocol, ResendProtocol

DEL_ONLY = ChannelParameters.from_rates(deletion=0.2, insertion=0.0)
DEL_INS = ChannelParameters.from_rates(deletion=0.1, insertion=0.05)


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
        """The vectorized-geometric sender delivers every symbol, with
        empty fault accounting."""
        proto = ResendProtocol(DEL_ONLY)
        msg = np.random.default_rng(2).integers(0, 2, 5000)
        run = proto.run(msg, np.random.default_rng(3))
        assert run.fault_counts == {}
        assert not run.degraded
        assert np.array_equal(run.delivered, msg)
