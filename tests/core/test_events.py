"""ChannelParameters and event-stream utilities (Definition 1)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import (
    ChannelEvent,
    ChannelParameters,
    empirical_parameters,
    event_counts,
    sample_events,
)


class TestChannelParameters:
    def test_from_rates(self):
        p = ChannelParameters.from_rates(deletion=0.1, insertion=0.2)
        assert p.transmission == pytest.approx(0.7)

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            ChannelParameters(deletion=0.5, insertion=0.5, transmission=0.5)

    def test_from_rates_rejects_excess(self):
        with pytest.raises(ValueError):
            ChannelParameters.from_rates(deletion=0.7, insertion=0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ChannelParameters(deletion=-0.1, insertion=0.1, transmission=1.0)
        with pytest.raises(ValueError):
            replace(ChannelParameters.from_rates(0.1, 0.1), substitution=1.5)

    def test_event_distribution_sums_to_one(self):
        p = replace(ChannelParameters.from_rates(0.2, 0.1), substitution=0.3)
        dist = p.event_distribution()
        assert dist.sum() == pytest.approx(1.0)
        # SUBSTITUTION share = Pt * Ps
        assert dist[int(ChannelEvent.SUBSTITUTION)] == pytest.approx(0.7 * 0.3)

    def test_frozen(self):
        p = ChannelParameters.from_rates(0.1, 0.1)
        with pytest.raises(AttributeError):
            p.deletion = 0.5  # type: ignore[misc]

    @given(
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=50)
    def test_from_rates_valid_when_feasible(self, pd, pi):
        if pd + pi <= 1.0:
            p = ChannelParameters.from_rates(pd, pi)
            assert p.deletion + p.insertion + p.transmission == pytest.approx(1.0)


class TestSampling:
    def test_sample_length(self, rng):
        p = ChannelParameters.from_rates(0.3, 0.2)
        assert sample_events(p, 1000, rng).shape == (1000,)

    def test_sample_statistics(self, rng):
        p = replace(ChannelParameters.from_rates(0.3, 0.2), substitution=0.1)
        events = sample_events(p, 200_000, rng)
        counts = event_counts(events)
        total = sum(counts.values())
        assert counts[ChannelEvent.DELETION] / total == pytest.approx(0.3, abs=0.01)
        assert counts[ChannelEvent.INSERTION] / total == pytest.approx(0.2, abs=0.01)
        sub_frac = counts[ChannelEvent.SUBSTITUTION] / total
        assert sub_frac == pytest.approx(0.5 * 0.1, abs=0.005)

    def test_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_events(ChannelParameters.from_rates(0.1, 0.1), -1, rng)

    def test_zero_uses(self, rng):
        assert sample_events(ChannelParameters.from_rates(0.1, 0.1), 0, rng).size == 0


class TestEmpiricalParameters:
    def test_roundtrip(self, rng):
        p = replace(ChannelParameters.from_rates(0.25, 0.15), substitution=0.05)
        events = sample_events(p, 300_000, rng)
        est = empirical_parameters(events)
        assert est.deletion == pytest.approx(0.25, abs=0.01)
        assert est.insertion == pytest.approx(0.15, abs=0.01)
        assert est.substitution == pytest.approx(0.05, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_parameters([])

    def test_pure_transmissions(self):
        est = empirical_parameters([int(ChannelEvent.TRANSMISSION)] * 10)
        assert est.deletion == 0.0 and est.insertion == 0.0
        assert est.transmission == 1.0

    def test_substitution_conditional_on_transmission(self):
        events = [int(ChannelEvent.TRANSMISSION)] * 3 + [
            int(ChannelEvent.SUBSTITUTION)
        ]
        est = empirical_parameters(events)
        assert est.substitution == pytest.approx(0.25)
        assert est.transmission == 1.0
