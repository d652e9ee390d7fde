"""Trace classification and scheduler measurement (paper §3.1-3.2)."""

import numpy as np
import pytest

from repro.core.events import ChannelEvent
from repro.os_model.kernel import KernelTrace
from repro.os_model.measurement import classify_trace, run_oblivious_channel
from repro.os_model.process import IdleProcess
from repro.os_model.scheduler import (
    FuzzyTimeScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)


def make_trace(annotations):
    return KernelTrace(
        schedule=list(range(len(annotations))), annotations=list(annotations)
    )


class TestClassifyTrace:
    def test_alternation_all_transmissions(self):
        events = classify_trace(make_trace(["send", "recv"] * 4))
        assert list(events) == [int(ChannelEvent.TRANSMISSION)] * 4

    def test_double_send_is_deletion(self):
        events = classify_trace(make_trace(["send", "send", "recv"]))
        assert list(events) == [
            int(ChannelEvent.DELETION),
            int(ChannelEvent.TRANSMISSION),
        ]

    def test_double_recv_is_insertion(self):
        events = classify_trace(make_trace(["send", "recv", "recv"]))
        assert list(events) == [
            int(ChannelEvent.TRANSMISSION),
            int(ChannelEvent.INSERTION),
        ]

    def test_leading_recv_is_insertion(self):
        events = classify_trace(make_trace(["recv", "send", "recv"]))
        assert list(events) == [
            int(ChannelEvent.INSERTION),
            int(ChannelEvent.TRANSMISSION),
        ]

    def test_waits_and_none_ignored(self):
        events = classify_trace(
            make_trace(["send", "send-wait", None, "recv", "recv-wait"])
        )
        assert list(events) == [int(ChannelEvent.TRANSMISSION)]

    def test_empty_trace(self):
        assert classify_trace(make_trace([])).size == 0


class TestRunObliviousChannel:
    def test_round_robin_synchronous(self, rng):
        m = run_oblivious_channel(
            RoundRobinScheduler(), rng, message_symbols=2000
        )
        assert m.params.deletion == 0.0
        assert m.params.insertion == 0.0
        assert m.report.corrected_capacity == 1.0

    def test_random_one_third_events(self, rng):
        m = run_oblivious_channel(RandomScheduler(), rng, message_symbols=20_000)
        # S/R i.i.d. fair coin: deletions, insertions, transmissions
        # each ~1/3 of channel events.
        assert m.params.deletion == pytest.approx(1 / 3, abs=0.02)
        assert m.params.insertion == pytest.approx(1 / 3, abs=0.02)

    def test_background_load_halves_quantum_rate(self, rng):
        base = run_oblivious_channel(RandomScheduler(), rng, message_symbols=10_000)
        loaded = run_oblivious_channel(
            RandomScheduler(),
            rng,
            message_symbols=10_000,
            extra_processes=[IdleProcess(9), IdleProcess(10)],
        )
        # Event *rates* are unchanged; per-quantum throughput halves.
        assert loaded.params.deletion == pytest.approx(
            base.params.deletion, abs=0.03
        )

        def corrected_per_quantum(m):
            return m.report.corrected_capacity * m.events.size / m.quanta

        assert corrected_per_quantum(loaded) == pytest.approx(
            corrected_per_quantum(base) / 2, rel=0.1
        )

    def test_achievable_ranking(self, rng):
        rr = run_oblivious_channel(RoundRobinScheduler(), rng, message_symbols=5000)
        rnd = run_oblivious_channel(RandomScheduler(), rng, message_symbols=5000)
        assert rr.achievable_per_quantum > rnd.achievable_per_quantum

    def test_sender_slots_accounting(self, rng):
        m = run_oblivious_channel(RandomScheduler(), rng, message_symbols=5000)
        counts = np.bincount(m.events, minlength=4)
        slots = counts[int(ChannelEvent.DELETION)] + counts[
            int(ChannelEvent.TRANSMISSION)
        ]
        assert m.sender_slots_per_quantum == pytest.approx(slots / m.quanta)

    def test_metrics_dict(self, rng):
        m = run_oblivious_channel(
            FuzzyTimeScheduler(0.3), rng, message_symbols=3000
        )
        assert 0 <= m.params.deletion < 1
        for value in (
            m.params.insertion,
            m.report.corrected_capacity,
            m.achievable_per_quantum,
            m.report.degradation,
        ):
            assert np.isfinite(value)
