"""Simple Timing Channels (Moskowitz & Miller 1994)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.timing.stc import SimpleTimingChannel, stc_capacity, stc_capacity_bounds


class TestSTC:
    def test_uniform_times(self):
        stc = SimpleTimingChannel([2.0, 2.0, 2.0, 2.0])
        assert stc.capacity() == pytest.approx(1.0)

    def test_golden_case(self):
        assert stc_capacity([1, 2]) == pytest.approx(0.6942, abs=1e-4)

    def test_optimal_distribution_sums_to_one(self):
        stc = SimpleTimingChannel([1.0, 2.0, 3.0])
        p = stc.optimal_distribution()
        assert p.sum() == pytest.approx(1.0)
        # Faster symbols are used more.
        assert p[0] > p[1] > p[2]

    def test_capacity_identity(self):
        """C = H(p*) / E[T] under the optimal distribution."""
        stc = SimpleTimingChannel([1.0, 1.5, 4.0])
        assert stc.capacity() == pytest.approx(
            stc.bits_per_symbol() / stc.mean_symbol_time()
        )

    def test_single_symbol_zero_capacity(self):
        assert stc_capacity([5.0]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SimpleTimingChannel([])
        with pytest.raises(ValueError):
            SimpleTimingChannel([1.0, -1.0])

    @given(
        st.lists(
            st.floats(min_value=0.5, max_value=8.0), min_size=2, max_size=6
        )
    )
    @settings(max_examples=40)
    def test_bounds_bracket_capacity(self, times):
        lower, upper = stc_capacity_bounds(times)
        c = stc_capacity(times)
        assert lower - 1e-9 <= c <= upper + 1e-9

    def test_bounds_tight_for_uniform(self):
        lower, upper = stc_capacity_bounds([3.0, 3.0])
        assert lower == pytest.approx(upper)
        assert lower == pytest.approx(stc_capacity([3.0, 3.0]))

    def test_bounds_single_symbol(self):
        assert stc_capacity_bounds([2.0]) == (0.0, 0.0)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            stc_capacity_bounds([])
        with pytest.raises(ValueError):
            stc_capacity_bounds([0.0, 1.0])

    def test_adding_symbol_never_hurts(self):
        assert stc_capacity([1, 2, 5]) >= stc_capacity([1, 2]) - 1e-12
