"""Feedback protocols: Theorem 3 (resend) and Theorem 5 (counter)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capacity import alpha, converted_insertion_fraction
from repro.core.events import ChannelParameters
from repro.sync.feedback import CounterProtocol, ResendProtocol


class TestResendProtocol:
    def test_rejects_insertions(self):
        with pytest.raises(ValueError):
            ResendProtocol(ChannelParameters.from_rates(0.1, 0.1))

    def test_rejects_noisy_channel(self):
        with pytest.raises(ValueError):
            ResendProtocol(
                replace(ChannelParameters.from_rates(0.1, 0.0), substitution=0.1)
            )

    def test_lossless_delivery(self, rng):
        proto = ResendProtocol(
            ChannelParameters.from_rates(0.4, 0.0), bits_per_symbol=2
        )
        msg = rng.integers(0, 4, 3000)
        run = proto.run(msg, rng)
        assert np.array_equal(run.delivered, msg)
        assert run.symbol_errors == 0

    def test_rate_matches_theorem3(self, rng):
        for pd in (0.0, 0.1, 0.3, 0.6):
            proto = ResendProtocol(
                ChannelParameters.from_rates(pd, 0.0), bits_per_symbol=3
            )
            msg = rng.integers(0, 8, 80_000)
            run = proto.run(msg, rng)
            assert run.throughput_per_use == pytest.approx(
                3 * (1 - pd), rel=0.03
            )

    def test_zero_deletion_one_use_per_symbol(self, rng):
        proto = ResendProtocol(ChannelParameters.from_rates(0.0, 0.0))
        run = proto.run(rng.integers(0, 2, 100), rng)
        assert run.channel_uses == 100
        assert run.deletions == 0

    def test_all_uses_are_sender_slots(self, rng):
        proto = ResendProtocol(ChannelParameters.from_rates(0.3, 0.0))
        run = proto.run(rng.integers(0, 2, 1000), rng)
        assert run.sender_slots == run.channel_uses

    def test_degenerate_pd_one_requires_budget(self, rng):
        proto = ResendProtocol(ChannelParameters.from_rates(1.0, 0.0))
        with pytest.raises(ValueError, match="never delivers"):
            proto.run(np.array([0, 1]), rng)


class TestCounterProtocol:
    def test_rejects_noisy_channel(self):
        with pytest.raises(ValueError):
            CounterProtocol(
                replace(ChannelParameters.from_rates(0.1, 0.1), substitution=0.5)
            )

    def test_delivered_aligned_with_message(self, rng):
        proto = CounterProtocol(
            ChannelParameters.from_rates(0.2, 0.2), bits_per_symbol=2
        )
        msg = rng.integers(0, 4, 5000)
        run = proto.run(msg, rng)
        assert run.delivered.shape == msg.shape
        # Errors only at insertion positions; correct fraction.
        assert run.symbol_errors <= run.insertions

    def test_substitution_rate_matches_theory(self, rng):
        pd, pi, n = 0.2, 0.15, 3
        proto = CounterProtocol(
            ChannelParameters.from_rates(pd, pi), bits_per_symbol=n
        )
        msg = rng.integers(0, 8, 200_000)
        run = proto.run(msg, rng)
        expected = alpha(n) * converted_insertion_fraction(pd, pi)
        assert run.symbol_error_rate == pytest.approx(expected, rel=0.05)

    def test_no_insertions_reduces_to_lossless(self, rng):
        proto = CounterProtocol(ChannelParameters.from_rates(0.3, 0.0))
        msg = rng.integers(0, 2, 2000)
        run = proto.run(msg, rng)
        assert run.symbol_errors == 0
        assert run.insertions == 0

    def test_event_accounting(self, rng):
        proto = CounterProtocol(ChannelParameters.from_rates(0.25, 0.25))
        msg = rng.integers(0, 2, 10_000)
        run = proto.run(msg, rng)
        assert run.channel_uses == run.deletions + run.insertions + run.transmissions
        assert run.sender_slots == run.deletions + run.transmissions
        assert run.symbols_delivered == run.insertions + run.transmissions

    @given(
        st.floats(min_value=0.0, max_value=0.4),
        st.floats(min_value=0.0, max_value=0.4),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_throughput_between_bounds(self, pd, pi, seed):
        """Raw symbol throughput per slot is (1-Pd)/(1-Pi) exactly in
        expectation; information rate is below the erasure bound."""
        rng = np.random.default_rng(seed)
        proto = CounterProtocol(
            ChannelParameters.from_rates(pd, pi), bits_per_symbol=1
        )
        msg = rng.integers(0, 2, 20_000)
        run = proto.run(msg, rng)
        expected = (1 - pd) / (1 - pi) if pi < 1 else 0.0
        throughput_per_slot = run.information_rate_per_slot(run.bits_per_symbol)
        assert throughput_per_slot == pytest.approx(expected, rel=0.1)
