"""Adaptive probe-estimate-transmit sessions."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.events import ChannelParameters
from repro.sync.adaptive import run_adaptive_session


class TestAdaptiveSession:
    def test_end_to_end(self, rng):
        params = ChannelParameters.from_rates(0.06, 0.04)
        session = run_adaptive_session(
            params,
            rng,
            pilot_frames=3,
            pilot_length=150,
            payload_symbols=20_000,
        )
        # The estimate lands in the right region.
        assert session.estimate.deletion_prob == pytest.approx(0.06, abs=0.05)
        assert session.estimate.insertion_prob == pytest.approx(0.04, abs=0.05)
        # Pilot overhead is small relative to the payload.
        assert session.overhead_fraction < 0.1
        # Effective rate approaches the oracle rate.
        assert session.effective_rate > 0.8 * session.oracle_rate

    def test_summary_text(self, rng):
        params = ChannelParameters.from_rates(0.05, 0.0)
        session = run_adaptive_session(
            params, rng, pilot_frames=2, pilot_length=100,
            payload_symbols=5000,
        )
        text = session.summary()
        assert "true channel" in text
        assert "effective rate" in text

    def test_overhead_shrinks_with_payload(self, rng):
        params = ChannelParameters.from_rates(0.05, 0.05)
        small = run_adaptive_session(
            params, np.random.default_rng(1), pilot_frames=2,
            pilot_length=100, payload_symbols=2000,
        )
        large = run_adaptive_session(
            params, np.random.default_rng(2), pilot_frames=2,
            pilot_length=100, payload_symbols=40_000,
        )
        assert large.overhead_fraction < small.overhead_fraction

    def test_rejects_noisy_channel(self, rng):
        with pytest.raises(ValueError):
            run_adaptive_session(
                replace(ChannelParameters.from_rates(0.1, 0.0), substitution=0.1),
                rng,
            )


class TestCountermeasures:
    def test_tradeoff_sweep(self, rng):
        from repro.os_model.countermeasures import fuzzy_scheduler_tradeoff

        points = fuzzy_scheduler_tradeoff(
            (0.0, 0.3, 0.6), rng, message_symbols=4000
        )
        assert len(points) == 3
        # More fuzz -> less covert capacity, fatter delay tail.
        assert points[0].covert_rate_per_quantum > points[-1].covert_rate_per_quantum
        assert points[-1].p99_delay >= points[0].p99_delay
        # Baseline is (near) round-robin: full rate, no events.
        assert points[0].deletion < 0.01
        assert points[0].capacity_reduction < 0.05

    def test_delay_stats(self):
        from repro.os_model.countermeasures import scheduling_delay_stats

        mean, p99 = scheduling_delay_stats([0, 1, 0, 1, 0, 1], pid=1)
        assert mean == 2.0
        assert p99 == 2.0
        with pytest.raises(ValueError):
            scheduling_delay_stats([0, 1], pid=1)
