"""Interleavers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.coding.interleaver import BlockInterleaver, RandomInterleaver


class TestBlockInterleaver:
    def test_roundtrip(self, rng):
        il = BlockInterleaver(4, 5)
        data = rng.integers(0, 2, 20)
        assert np.array_equal(il.deinterleave(il.interleave(data)), data)

    def test_known_pattern(self):
        il = BlockInterleaver(2, 3)
        data = np.arange(6)
        # Row-in [[0,1,2],[3,4,5]], column-out 0,3,1,4,2,5.
        assert list(il.interleave(data)) == [0, 3, 1, 4, 2, 5]

    def test_burst_dispersion(self):
        il = BlockInterleaver(5, 10)
        data = np.zeros(50, dtype=int)
        out = il.interleave(data.copy())
        # Mark a burst in the interleaved domain and bring it back.
        out[:5] = 1
        back = il.deinterleave(out)
        positions = np.nonzero(back)[0]
        assert positions.size == 5
        assert np.diff(positions).min() >= 5  # spread apart

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockInterleaver(0, 5)
        il = BlockInterleaver(2, 3)
        with pytest.raises(ValueError):
            il.interleave(np.zeros(5))
        with pytest.raises(ValueError):
            il.deinterleave(np.zeros(7))


class TestRandomInterleaver:
    def test_roundtrip(self, rng):
        il = RandomInterleaver(64, seed=3)
        data = rng.integers(0, 256, 64)
        assert np.array_equal(il.deinterleave(il.interleave(data)), data)

    def test_is_permutation(self):
        il = RandomInterleaver(100, seed=1)
        out = il.interleave(np.arange(100))
        assert sorted(out) == list(range(100))

    def test_seed_determinism(self):
        a = RandomInterleaver(32, seed=9).interleave(np.arange(32))
        b = RandomInterleaver(32, seed=9).interleave(np.arange(32))
        c = RandomInterleaver(32, seed=10).interleave(np.arange(32))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25)
    def test_property_roundtrip(self, length, seed):
        il = RandomInterleaver(length, seed=seed)
        data = np.arange(length)
        assert np.array_equal(il.deinterleave(il.interleave(data)), data)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomInterleaver(0)
