"""The two-step capacity-estimation recipe (paper §4.3)."""

import numpy as np
import pytest

from repro.core.capacity import feedback_time_coefficient
from repro.core.estimation import CapacityEstimator, CapacityReport
from repro.core.events import (
    ChannelEvent,
    ChannelParameters,
    empirical_parameters,
    sample_events,
)


class TestCapacityEstimator:
    def test_basic_report(self):
        params = ChannelParameters.from_rates(0.1, 0.05)
        report = CapacityEstimator(4).estimate(params)
        assert report.synchronous_capacity == 4.0
        assert report.corrected_capacity == pytest.approx(3.6)
        assert report.degradation == pytest.approx(0.1)
        assert 0 < report.feedback_lower < report.corrected_capacity

    def test_physical_correction(self):
        params = ChannelParameters.from_rates(0.25, 0.0)
        report = CapacityEstimator(1, physical_capacity=100.0).estimate(params)
        assert report.corrected_physical == pytest.approx(75.0)

    def test_no_physical_capacity_leaves_none(self):
        report = CapacityEstimator(1).estimate(
            ChannelParameters.from_rates(0.1, 0.0)
        )
        assert report.physical_capacity is None
        assert report.corrected_physical is None

    def test_synchronous_channel_no_degradation(self):
        report = CapacityEstimator(2).estimate(
            ChannelParameters.from_rates(0.0, 0.0)
        )
        assert report.degradation == 0.0
        assert report.corrected_capacity == 2.0
        assert report.feedback_lower == pytest.approx(2.0)

    def test_degenerate_all_insertions(self):
        params = ChannelParameters.from_rates(0.0, 1.0)
        report = CapacityEstimator(2).estimate(params)
        assert report.feedback_lower == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityEstimator(0)
        with pytest.raises(ValueError):
            CapacityEstimator(1, physical_capacity=-5.0)

    def test_time_coefficient(self):
        params = ChannelParameters.from_rates(0.2, 0.2)
        assert feedback_time_coefficient(
            params.deletion, params.insertion
        ) == pytest.approx(1.0)

    def test_summary_mentions_key_numbers(self):
        params = ChannelParameters.from_rates(0.1, 0.05)
        text = CapacityEstimator(4, physical_capacity=10.0).estimate(params).summary()
        assert "3.6000" in text
        assert "10.0000" in text
        assert "P_d=0.1000" in text


class TestFromEvents:
    def test_estimate_from_sampled_events(self, rng):
        params = ChannelParameters.from_rates(0.3, 0.1)
        events = sample_events(params, 200_000, rng)
        report = CapacityEstimator(2).estimate(empirical_parameters(events))
        assert report.params.deletion == pytest.approx(0.3, abs=0.01)
        assert report.corrected_capacity == pytest.approx(2 * 0.7, abs=0.02)

    def test_physical_passthrough(self, rng):
        events = [int(ChannelEvent.TRANSMISSION)] * 7 + [
            int(ChannelEvent.DELETION)
        ] * 3
        report = CapacityEstimator(
            physical_capacity=50.0
        ).estimate(empirical_parameters(events))
        assert report.corrected_physical == pytest.approx(35.0)

    def test_report_is_frozen(self):
        report = CapacityEstimator().estimate(empirical_parameters(
            [int(ChannelEvent.TRANSMISSION)] * 10
        ))
        assert isinstance(report, CapacityReport)
        with pytest.raises(AttributeError):
            report.corrected_capacity = 9.0  # type: ignore[misc]


class TestDegenerateStreams:
    """Regression: degenerate input raises clearly instead of
    propagating NaN ratios into the CapacityReport."""

    def test_empty_stream_raises_value_error(self):
        with pytest.raises(ValueError, match="empty stream"):
            CapacityEstimator().estimate(empirical_parameters([]))

    def test_empty_ndarray_stream_raises(self):
        with pytest.raises(ValueError, match="empty stream"):
            CapacityEstimator().estimate(empirical_parameters(np.array([], dtype=np.int64)))

    def test_unknown_event_codes_are_named_not_masked(self):
        # A stream of out-of-vocabulary codes used to count as zero
        # events of every kind and be reported as "empty"; it must
        # name the offending code instead.
        with pytest.raises(ValueError, match="invalid event code 9"):
            CapacityEstimator().estimate(empirical_parameters([9, 9, 9]))

    def test_mixed_invalid_code_rejected(self):
        events = [int(ChannelEvent.TRANSMISSION)] * 10 + [-2]
        with pytest.raises(ValueError, match="invalid event code"):
            CapacityEstimator().estimate(empirical_parameters(events))

    def test_nan_event_codes_rejected(self):
        with pytest.raises(ValueError, match="invalid event code"):
            CapacityEstimator().estimate(empirical_parameters(np.array([2.0, np.nan, 2.0])))

    def test_valid_stream_report_is_finite(self):
        events = [int(ChannelEvent.TRANSMISSION)] * 8 + [
            int(ChannelEvent.DELETION)
        ] * 2
        report = CapacityEstimator(
            physical_capacity=10.0
        ).estimate(empirical_parameters(events))
        assert report.params.deletion == pytest.approx(0.2)
        assert np.isfinite(report.corrected_capacity)
        assert report.corrected_physical == pytest.approx(8.0)

    def test_nan_physical_capacity_rejected(self):
        # NaN sails through a bare `< 0` check; it must be rejected at
        # construction, not surface as a NaN corrected_physical.
        with pytest.raises(ValueError, match="finite non-negative"):
            CapacityEstimator(1, physical_capacity=float("nan"))

    def test_inf_physical_capacity_rejected(self):
        with pytest.raises(ValueError, match="finite non-negative"):
            CapacityEstimator(1, physical_capacity=float("inf"))

    def test_negative_physical_capacity_still_rejected(self):
        with pytest.raises(ValueError, match="finite non-negative"):
            CapacityEstimator(1, physical_capacity=-0.5)
