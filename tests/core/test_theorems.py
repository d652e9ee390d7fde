"""Theorem-level API (statements, bounds, brackets)."""

import pytest

from repro.core.capacity import convergence_ratio
from repro.core.theorems import (
    THEOREMS,
    capacity_bracket,
    theorem1_upper_bound,
    theorem2_feedback_upper_bound,
    theorem3_feedback_capacity,
    theorem4_feedback_upper_bound,
    theorem5_feedback_lower_bound,
)


class TestRegistry:
    def test_all_five_present(self):
        assert sorted(THEOREMS) == [1, 2, 3, 4, 5]

    def test_statements_nonempty(self):
        for t in THEOREMS.values():
            assert t.title and t.statement
            assert str(t.number) in t.statement or t.number in (1, 2, 3, 4, 5)

    def test_callable(self):
        assert THEOREMS[1](4, 0.25) == pytest.approx(3.0)
        assert THEOREMS[5](4, 0.1, 0.1) == pytest.approx(
            theorem5_feedback_lower_bound(4, 0.1, 0.1)
        )


class TestBounds:
    def test_theorem1_values(self):
        assert theorem1_upper_bound(2, 0.5) == pytest.approx(1.0)

    def test_theorems_1_2_4_coincide(self):
        # All three bounds are the erasure capacity N(1-Pd).
        assert (
            theorem1_upper_bound(3, 0.2)
            == theorem2_feedback_upper_bound(3, 0.2)
            == theorem4_feedback_upper_bound(3, 0.2, 0.1)
        )

    def test_theorem4_ignores_insertions(self):
        assert theorem4_feedback_upper_bound(3, 0.2, 0.0) == pytest.approx(
            theorem4_feedback_upper_bound(3, 0.2, 0.4)
        )

    def test_theorem4_validates_pi(self):
        with pytest.raises(ValueError):
            theorem4_feedback_upper_bound(3, 0.2, 1.5)

    def test_theorem3_achieves_theorem2(self):
        assert theorem3_feedback_capacity(5, 0.3) == pytest.approx(
            theorem2_feedback_upper_bound(5, 0.3)
        )


class TestBracket:
    def test_bracket_order(self):
        lower, upper = capacity_bracket(4, 0.1, 0.1)
        assert 0.0 < lower < upper

    def test_bracket_collapses_without_insertions(self):
        lower, upper = capacity_bracket(4, 0.2, 0.0)
        assert lower == pytest.approx(upper)

    def test_asymptotic_gap_decreases(self):
        # 1 - C_lower/C_upper at P_i = P_d (eqs. 6-7) tends to 0.
        gaps = [1.0 - convergence_ratio(n, 0.1) for n in (1, 2, 4, 8, 16)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.05

    def test_asymptotic_gap_nonnegative(self):
        assert 1.0 - convergence_ratio(1, 0.4) >= 0.0
