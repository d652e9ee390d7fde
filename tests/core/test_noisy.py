"""Noisy-channel extension of the feedback bounds."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capacity import feedback_lower_bound_exact
from repro.core.events import ChannelParameters
from repro.infotheory.channels import m_ary_symmetric_capacity
from tests.core.noisy import (
    noisy_converted_capacity,
    noisy_converted_error_probability,
    noisy_feedback_lower_bound,
)
from tests.sync.noisy import NoisyCounterProtocol


class TestClosedForms:
    def test_reduces_to_exact_theorem5_at_ps_zero(self):
        for pd, pi in [(0.1, 0.1), (0.2, 0.05), (0.0, 0.3)]:
            assert noisy_feedback_lower_bound(3, pd, pi, 0.0) == pytest.approx(
                feedback_lower_bound_exact(3, pd, pi)
            )

    def test_pure_noise_case(self):
        # No sync errors: just the M-ary symmetric capacity at Ps.
        assert noisy_feedback_lower_bound(3, 0.0, 0.0, 0.2) == pytest.approx(
            m_ary_symmetric_capacity(8, 0.2)
        )

    def test_error_probability_composition(self):
        n, pd, pi, ps = 2, 0.2, 0.1, 0.3
        q = pi / (1 - pd)
        expected = q * 3 / 4 + (1 - q) * ps
        assert noisy_converted_error_probability(n, pd, pi, ps) == pytest.approx(
            expected
        )

    def test_noise_only_reduces_capacity(self):
        base = noisy_converted_capacity(3, 0.1, 0.1, 0.0)
        noisy = noisy_converted_capacity(3, 0.1, 0.1, 0.1)
        assert noisy < base

    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=0.4),
        st.floats(min_value=0.0, max_value=0.4),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=40)
    def test_bounds_ordering(self, n, pd, pi, ps):
        noisy = noisy_feedback_lower_bound(n, pd, pi, ps)
        clean = feedback_lower_bound_exact(n, pd, pi)
        assert noisy <= clean + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            noisy_converted_error_probability(2, 0.1, 0.1, 1.5)


class TestNoisyCounterProtocol:
    def test_accepts_substitution_params(self):
        NoisyCounterProtocol(
            replace(ChannelParameters.from_rates(0.1, 0.1), substitution=0.2)
        )

    def test_substitution_rate_matches_theory(self, rng):
        n, pd, pi, ps = 2, 0.15, 0.1, 0.1
        proto = NoisyCounterProtocol(
            replace(ChannelParameters.from_rates(pd, pi), substitution=ps),
            bits_per_symbol=n,
        )
        run = proto.run(rng.integers(0, 4, 200_000), rng)
        expected = noisy_converted_error_probability(n, pd, pi, ps)
        assert run.symbol_error_rate == pytest.approx(expected, rel=0.05)

    def test_noiseless_matches_counter_protocol(self, rng):
        from repro.sync.feedback import CounterProtocol

        params = ChannelParameters.from_rates(0.1, 0.1)
        msg = rng.integers(0, 2, 50_000)
        noisy = NoisyCounterProtocol(params).run(
            msg, np.random.default_rng(1)
        )
        clean = CounterProtocol(params).run(msg, np.random.default_rng(1))
        # Identical randomness stream -> identical runs.
        assert noisy.channel_uses == clean.channel_uses
        assert np.array_equal(noisy.delivered, clean.delivered)

    def test_information_rate_matches_noisy_bound(self, rng):
        """Plug-in MI through the noisy protocol scales to the bound."""
        from repro.simulation.mutual_information import plugin_mutual_information

        n, pd, pi, ps = 3, 0.1, 0.1, 0.05
        proto = NoisyCounterProtocol(
            replace(ChannelParameters.from_rates(pd, pi), substitution=ps),
            bits_per_symbol=n,
        )
        run = proto.run(rng.integers(0, 8, 200_000), rng)
        mi = plugin_mutual_information(
            run.message[: run.symbols_delivered],
            run.delivered,
            nx=8,
            ny=8,
        )
        per_slot = mi * run.symbols_delivered / run.sender_slots
        assert per_slot == pytest.approx(
            noisy_feedback_lower_bound(n, pd, pi, ps), rel=0.03
        )
