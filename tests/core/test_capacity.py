"""Closed-form capacity expressions (paper equations 1-7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capacity import (
    alpha,
    converted_capacity,
    converted_insertion_fraction,
    convergence_ratio,
    convergence_ratio_limit,
    deletion_feedback_capacity,
    erasure_upper_bound,
    feedback_lower_bound,
    feedback_lower_bound_exact,
    feedback_time_coefficient,
)
from repro.infotheory.entropy import binary_entropy


class TestAlpha:
    def test_values(self):
        assert alpha(1) == 0.5
        assert alpha(3) == pytest.approx(7 / 8)

    def test_tends_to_one(self):
        assert alpha(20) == pytest.approx(1.0, abs=1e-5)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            alpha(0)


class TestErasureUpperBound:
    @pytest.mark.parametrize(
        "n,pd,expected", [(1, 0.0, 1.0), (4, 0.1, 3.6), (2, 1.0, 0.0)]
    )
    def test_values(self, n, pd, expected):
        assert erasure_upper_bound(n, pd) == pytest.approx(expected)

    def test_equals_theorem3(self):
        assert erasure_upper_bound(3, 0.2) == deletion_feedback_capacity(3, 0.2)

    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40)
    def test_linear_in_pd(self, n, pd):
        assert erasure_upper_bound(n, pd) == pytest.approx(n * (1 - pd))


class TestTimeCoefficient:
    def test_symmetric_case_is_one(self):
        assert feedback_time_coefficient(0.2, 0.2) == pytest.approx(1.0)

    def test_deletion_only(self):
        assert feedback_time_coefficient(0.3, 0.0) == pytest.approx(0.7)

    def test_insertion_only_above_one(self):
        assert feedback_time_coefficient(0.0, 0.3) == pytest.approx(1 / 0.7)

    def test_rejects_pi_one(self):
        with pytest.raises(ValueError):
            feedback_time_coefficient(0.0, 1.0)
        with pytest.raises(ValueError, match=r"insertion_prob must be in \[0, 1\]"):
            feedback_time_coefficient(0.0, 1.5)


class TestConvertedCapacity:
    def test_large_n_approximation_converges(self):
        # For large N, C_conv -> N (1 - P_i) - H(P_i).
        exact = converted_capacity(16, 0.1)
        approx = 16 * (1 - 0.1) - binary_entropy(0.1)
        assert exact == pytest.approx(approx, abs=1e-3)

    def test_large_n_form(self):
        # C_conv - (N (1 - P_i) - H(P_i)) shrinks as N grows.
        pi = 0.2
        gaps = [
            abs(converted_capacity(n, pi) - (n * (1 - pi) - binary_entropy(pi)))
            for n in (2, 4, 8, 16)
        ]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3

    def test_insertion_fraction(self):
        assert converted_insertion_fraction(0.2, 0.1) == pytest.approx(0.125)
        assert converted_insertion_fraction(0.0, 0.1) == pytest.approx(0.1)

    def test_insertion_fraction_rejects_degenerate(self):
        with pytest.raises(ValueError):
            converted_insertion_fraction(1.0, 0.0)
        with pytest.raises(ValueError):
            converted_insertion_fraction(0.5, 0.6)


class TestFeedbackBounds:
    def test_reduces_to_theorem3_when_no_insertions(self):
        for n in (1, 2, 4):
            for pd in (0.0, 0.1, 0.3):
                assert feedback_lower_bound(n, pd, 0.0) == pytest.approx(
                    n * (1 - pd)
                )
                assert feedback_lower_bound_exact(n, pd, 0.0) == pytest.approx(
                    n * (1 - pd)
                )

    def test_paper_and_exact_agree_at_pd_zero(self):
        assert feedback_lower_bound(3, 0.0, 0.2) == pytest.approx(
            feedback_lower_bound_exact(3, 0.0, 0.2)
        )

    def test_exact_never_above_paper(self):
        for pd in (0.05, 0.1, 0.3):
            for pi in (0.05, 0.1, 0.3):
                assert (
                    feedback_lower_bound_exact(4, pd, pi)
                    <= feedback_lower_bound(4, pd, pi) + 1e-12
                )

    @given(
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.45),
    )
    @settings(max_examples=60)
    def test_lower_below_upper(self, n, pd, pi):
        if pd + pi >= 1.0:
            return
        lower = feedback_lower_bound(n, pd, pi)
        upper = erasure_upper_bound(n, pd)
        assert lower <= upper + 1e-9
        assert feedback_lower_bound_exact(n, pd, pi) <= upper + 1e-9

    def test_monotone_decreasing_in_pd(self):
        values = [feedback_lower_bound(4, pd, 0.1) for pd in (0.0, 0.1, 0.2, 0.4)]
        assert values == sorted(values, reverse=True)


class TestConvergenceRatio:
    def test_ratio_in_unit_interval(self):
        for n in (1, 2, 8):
            for p in (0.05, 0.2, 0.5):
                assert 0.0 <= convergence_ratio(n, p) <= 1.0 + 1e-12

    def test_increasing_in_n(self):
        for p in (0.05, 0.2):
            ratios = [convergence_ratio(n, p) for n in (1, 2, 4, 8, 16)]
            assert ratios == sorted(ratios)

    def test_limit_form(self):
        n, p = 8, 0.1
        expected = (n * (1 - p) - binary_entropy(p)) / (n * (1 - p))
        assert convergence_ratio_limit(n, p) == pytest.approx(expected)

    def test_approaches_one(self):
        assert convergence_ratio(64, 0.1) > 0.99

    def test_degenerate_p_one(self):
        assert convergence_ratio(4, 1.0) == 1.0
        assert convergence_ratio_limit(4, 1.0) == 1.0
