"""Timed Z-channel (Moskowitz, Greenwald & Kang 1996)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infotheory.channels import z_channel_capacity
from repro.infotheory.noiseless import noiseless_capacity_per_second
from tests.timing.timed_z import (
    TimedZChannel,
    timed_z_capacity,
    timed_z_information_rate,
    timed_z_optimality_residual,
)


class TestReductions:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.8])
    def test_unit_times_recover_classic_z(self, p):
        assert timed_z_capacity(1.0, 1.0, p) == pytest.approx(
            z_channel_capacity(p), abs=1e-8
        )

    @pytest.mark.parametrize("t0,t1", [(1.0, 2.0), (2.0, 1.0), (1.0, 5.0)])
    def test_noiseless_recovers_shannon(self, t0, t1):
        assert timed_z_capacity(t0, t1, 0.0) == pytest.approx(
            noiseless_capacity_per_second([t0, t1]), abs=1e-7
        )

    def test_total_noise_zero_capacity(self):
        assert timed_z_capacity(1.0, 2.0, 1.0) == 0.0


class TestStructure:
    def test_capacity_decreasing_in_noise(self):
        caps = [timed_z_capacity(1, 2, p) for p in (0.0, 0.1, 0.3, 0.6, 0.9)]
        assert caps == sorted(caps, reverse=True)

    def test_faster_one_symbol_higher_capacity(self):
        assert timed_z_capacity(1, 1.5, 0.1) > timed_z_capacity(1, 3.0, 0.1)

    def test_time_scaling(self):
        # Doubling all durations halves bits per time unit.
        assert timed_z_capacity(2, 4, 0.2) == pytest.approx(
            timed_z_capacity(1, 2, 0.2) / 2, abs=1e-8
        )

    def test_information_rate_at_endpoints(self):
        ch = TimedZChannel(1, 2, 0.2)
        assert ch.information_per_symbol(0.0) == 0.0
        assert ch.information_rate(1.0) >= 0.0

    def test_stationarity_residual_zero_at_optimum(self):
        c, q = TimedZChannel(1.0, 2.5, 0.15).capacity()
        assert timed_z_optimality_residual(1.0, 2.5, 0.15, q) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_residual_nonzero_off_optimum(self):
        _, q = TimedZChannel(1.0, 2.5, 0.15).capacity()
        off = min(0.9, q + 0.2)
        assert abs(timed_z_optimality_residual(1.0, 2.5, 0.15, off)) > 1e-4

    @given(
        st.floats(min_value=0.5, max_value=3.0),
        st.floats(min_value=0.5, max_value=3.0),
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_capacity_dominates_any_input(self, t0, t1, p, q):
        c = timed_z_capacity(t0, t1, p)
        assert c >= timed_z_information_rate(t0, t1, p, q) - 1e-7


class TestValidation:
    def test_rejects_bad_durations(self):
        with pytest.raises(ValueError):
            TimedZChannel(0.0, 1.0, 0.1)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            TimedZChannel(1.0, 1.0, 1.5)

    def test_rejects_bad_q(self):
        ch = TimedZChannel(1, 2, 0.1)
        with pytest.raises(ValueError):
            ch.information_per_symbol(1.5)
        with pytest.raises(ValueError):
            timed_z_optimality_residual(1, 2, 0.1, 0.0)
