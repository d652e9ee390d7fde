"""Degradation analysis (§4.3: degradation roughly proportional to P_d)."""

import numpy as np
import pytest

from repro.core.degradation import (
    degradation_series,
    fit_degradation,
    relative_degradation_lower,
    relative_degradation_upper,
)


class TestUpperDegradation:
    def test_exactly_pd(self):
        for pd in (0.0, 0.1, 0.5, 1.0):
            assert relative_degradation_upper(pd) == pd

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_degradation_upper(1.5)


class TestLowerDegradation:
    def test_zero_at_synchronous(self):
        assert relative_degradation_lower(4, 0.0, 0.0) == pytest.approx(0.0)

    def test_insertion_adds_penalty(self):
        base = relative_degradation_lower(4, 0.1, 0.0)
        with_ins = relative_degradation_lower(4, 0.1, 0.1)
        assert with_ins > base

    def test_no_insertion_matches_pd(self):
        assert relative_degradation_lower(4, 0.3, 0.0) == pytest.approx(0.3)


class TestFit:
    def test_perfect_line(self):
        x = np.linspace(0, 0.4, 9)
        fit = fit_degradation(x, 2 * x + 0.1)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.1)
        assert fit.r_squared == pytest.approx(1.0)
        np.testing.assert_allclose(
            fit.slope * x + fit.intercept, 2 * x + 0.1, rtol=0, atol=1e-12
        )

    def test_erasure_series_slope_one(self):
        pds = np.linspace(0, 0.5, 11)
        fit = fit_degradation(pds, pds)
        assert fit.slope == pytest.approx(1.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_degradation([0.1], [0.1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_degradation([0.1, 0.2], [0.1])


class TestSeries:
    def test_no_insertion_series_identity(self):
        pds = np.linspace(0, 0.4, 5)
        series = degradation_series(4, pds, insertion_prob=0.0)
        assert np.allclose(series, pds)

    def test_series_monotone_in_pd(self):
        pds = np.linspace(0, 0.4, 9)
        series = degradation_series(4, pds, insertion_prob=0.1)
        assert np.all(np.diff(series) > 0)

    def test_paper_claim_slope_near_one(self):
        """The §4.3 claim: fit of degradation vs P_d has slope ~1 even
        with insertions present."""
        pds = np.linspace(0.0, 0.4, 17)
        series = degradation_series(8, pds, insertion_prob=0.05)
        fit = fit_degradation(pds, series)
        assert abs(fit.slope - 1.0) < 0.05
        assert fit.r_squared > 0.999

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            degradation_series(4, np.zeros((2, 2)))
