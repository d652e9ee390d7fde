"""Varshamov-Tenengolts single-deletion codes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.coding.vt import VTCode, is_vt_codeword, vt_codewords, vt_syndrome


class TestSyndrome:
    def test_known_values(self):
        assert vt_syndrome(np.array([0, 0, 0])) == 0
        assert vt_syndrome(np.array([1, 0, 0])) == 1
        assert vt_syndrome(np.array([0, 1, 1])) == (2 + 3) % 4

    def test_validation(self):
        with pytest.raises(ValueError):
            vt_syndrome(np.array([0, 2]))
        with pytest.raises(ValueError):
            vt_syndrome(np.zeros((2, 2), dtype=int))


class TestEnumeration:
    def test_membership(self):
        for cw in vt_codewords(6, 0):
            assert is_vt_codeword(cw, 0)

    def test_partition_of_space(self):
        """The VT classes a = 0..n partition {0,1}^n."""
        n = 7
        total = sum(vt_codewords(n, a).shape[0] for a in range(n + 1))
        assert total == 2**n

    def test_vt0_is_largest_or_tied(self):
        n = 8
        sizes = [vt_codewords(n, a).shape[0] for a in range(n + 1)]
        assert sizes[0] == max(sizes)

    def test_known_size(self):
        # |VT_0(n)| >= 2^n / (n+1); exact for small n known values.
        assert vt_codewords(4, 0).shape[0] == 4
        assert vt_codewords(5, 0).shape[0] == 6


class TestVTCode:
    def test_rate_and_size(self):
        code = VTCode(8)
        assert code.size == 30
        assert code.message_bits == 4
        assert 0 < code.rate < 1

    def test_encode_decode_index_roundtrip(self):
        code = VTCode(7)
        for k in range(code.size):
            assert code.decode_index(code.encode_index(k)) == k

    def test_encode_index_range_check(self):
        code = VTCode(6)
        with pytest.raises(ValueError):
            code.encode_index(code.size)
        with pytest.raises(ValueError):
            code.encode_index(-1)

    def test_decode_index_rejects_noncodeword(self):
        code = VTCode(6, 0)
        bad = np.array([1, 0, 0, 0, 0, 0])  # syndrome 1
        with pytest.raises(ValueError):
            code.decode_index(bad)

    @pytest.mark.parametrize("n,a", [(6, 0), (8, 0), (9, 3), (11, 0)])
    def test_exhaustive_single_deletion_correction(self, n, a):
        code = VTCode(n, a)
        for k in range(code.size):
            cw = code.encode_index(k)
            for pos in range(n):
                received = np.delete(cw, pos)
                assert code.decode(received) == k

    def test_decode_full_length_word(self):
        code = VTCode(8)
        cw = code.encode_index(3)
        assert code.decode(cw) == 3

    def test_decode_rejects_wrong_length(self):
        code = VTCode(8)
        with pytest.raises(ValueError):
            code.decode(np.zeros(5, dtype=int))

    def test_correct_deletion_validates(self):
        code = VTCode(8)
        with pytest.raises(ValueError):
            code.correct_deletion(np.zeros(8, dtype=int))  # wrong length
        with pytest.raises(ValueError):
            code.correct_deletion(np.array([0, 1, 2, 0, 0, 0, 0]))

    @given(
        st.integers(min_value=5, max_value=14),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_deletion_corrected(self, n, seed):
        rng = np.random.default_rng(seed)
        code = VTCode(n, 0)
        k = int(rng.integers(0, code.size))
        cw = code.encode_index(k)
        pos = int(rng.integers(0, n))
        assert code.decode(np.delete(cw, pos)) == k

    def test_validation(self):
        with pytest.raises(ValueError):
            VTCode(1)
        with pytest.raises(ValueError):
            VTCode(25)
