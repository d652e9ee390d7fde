"""Shannon noiseless channels with non-uniform symbol durations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infotheory.noiseless import (
    characteristic_root,
    noiseless_capacity_per_second,
)
from tests.infotheory.noiseless import uniform_duration_capacity


class TestCharacteristicRoot:
    def test_golden_ratio_case(self):
        # Durations {1, 2}: X0 is the golden ratio.
        root = characteristic_root([1.0, 2.0])
        assert root == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-10)

    def test_uniform_durations(self):
        # k symbols of duration t: X0^t = k.
        root = characteristic_root([2.0, 2.0, 2.0, 2.0])
        assert root == pytest.approx(2.0)

    def test_single_symbol_is_one(self):
        assert characteristic_root([3.0]) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            characteristic_root([1.0, 0.0])
        with pytest.raises(ValueError):
            characteristic_root([])

    @given(
        st.lists(
            st.floats(min_value=0.5, max_value=10.0), min_size=2, max_size=6
        )
    )
    @settings(max_examples=40)
    def test_root_satisfies_equation(self, durations):
        x0 = characteristic_root(durations)
        assert sum(x0 ** (-t) for t in durations) == pytest.approx(1.0, abs=1e-8)


class TestCapacity:
    def test_uniform_matches_direct_formula(self):
        assert noiseless_capacity_per_second([1.0] * 8) == pytest.approx(3.0)
        assert uniform_duration_capacity(8, 1.0) == pytest.approx(3.0)

    def test_slower_symbols_lower_capacity(self):
        fast = noiseless_capacity_per_second([1.0, 1.0])
        slow = noiseless_capacity_per_second([2.0, 2.0])
        assert slow == pytest.approx(fast / 2)

    def test_telegraph_classic(self):
        # Shannon's 1948 value for durations {1,2}: log2(golden) ~ 0.6942.
        assert noiseless_capacity_per_second([1, 2]) == pytest.approx(
            0.6942, abs=1e-4
        )

    def test_adding_a_symbol_increases_capacity(self):
        assert noiseless_capacity_per_second([1, 2, 3]) > \
            noiseless_capacity_per_second([1, 2])

    def test_uniform_duration_capacity_validation(self):
        with pytest.raises(ValueError):
            uniform_duration_capacity(0)
        with pytest.raises(ValueError):
            uniform_duration_capacity(4, -1.0)
