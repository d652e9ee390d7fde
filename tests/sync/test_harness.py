"""Protocol measurement harness (simulation vs theory in one record)."""

import numpy as np
import pytest

from repro.core.events import ChannelParameters
from repro.simulation.mutual_information import plugin_mutual_information
from repro.sync.feedback import CounterProtocol, ResendProtocol
from repro.sync.harness import measure_protocol


class TestMeasureResend:
    def test_matches_theorem3(self, rng):
        proto = ResendProtocol(
            ChannelParameters.from_rates(0.25, 0.0), bits_per_symbol=2
        )
        m = measure_protocol(proto, rng.integers(0, 4, 60_000), rng)
        assert m.throughput_per_use == pytest.approx(2 * 0.75, rel=0.02)
        assert m.empirical_substitution_rate == 0.0
        assert m.theoretical_upper == pytest.approx(1.5)
        # With Pi = 0 the bracket collapses.
        assert m.theoretical_lower_paper == pytest.approx(m.theoretical_upper)
        assert m.theoretical_lower_exact == pytest.approx(m.theoretical_upper)


class TestMeasureCounter:
    def test_simulation_tracks_exact_bound(self, rng):
        proto = CounterProtocol(
            ChannelParameters.from_rates(0.15, 0.1), bits_per_symbol=3
        )
        m = measure_protocol(proto, rng.integers(0, 8, 200_000), rng)
        assert m.empirical_information_per_slot == pytest.approx(
            m.theoretical_lower_exact, rel=0.02
        )

    def test_bound_ordering(self, rng):
        proto = CounterProtocol(
            ChannelParameters.from_rates(0.2, 0.2), bits_per_symbol=2
        )
        m = measure_protocol(proto, rng.integers(0, 4, 50_000), rng)
        assert (
            m.theoretical_lower_exact
            <= m.theoretical_lower_paper + 1e-12
            <= m.theoretical_upper + 1e-12
        )

    def test_mi_close_to_converted_capacity(self, rng):
        """Plug-in MI per delivered symbol should approximate the
        converted channel capacity at the measured error rate."""
        proto = CounterProtocol(
            ChannelParameters.from_rates(0.1, 0.15), bits_per_symbol=3
        )
        m = measure_protocol(proto, rng.integers(0, 8, 200_000), rng)
        per_symbol = (
            m.empirical_information_per_slot
            * m.run.sender_slots
            / m.run.symbols_delivered
        )
        delivered = m.run.delivered
        mi = plugin_mutual_information(
            m.run.message[: delivered.size], delivered, nx=8, ny=8
        )
        assert mi == pytest.approx(per_symbol, abs=0.05)

    def test_tiny_message(self, rng):
        proto = CounterProtocol(ChannelParameters.from_rates(0.1, 0.1))
        m = measure_protocol(proto, np.array([1]), rng)
        assert m.run.symbols_delivered == 1

    def test_throughput_properties_exposed(self, rng):
        proto = CounterProtocol(ChannelParameters.from_rates(0.1, 0.1))
        m = measure_protocol(proto, rng.integers(0, 2, 1000), rng)
        assert m.throughput_per_use > 0
        assert m.run.information_rate_per_slot(m.run.bits_per_symbol) > 0
