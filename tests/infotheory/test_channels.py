"""Standard channel factories and their closed-form capacities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infotheory.blahut_arimoto import blahut_arimoto
from repro.infotheory.channels import (
    bec_capacity,
    binary_symmetric_channel,
    converted_channel_capacity,
    m_ary_erasure_capacity,
    m_ary_erasure_channel,
    m_ary_symmetric_capacity,
    m_ary_symmetric_channel,
    z_channel,
    z_channel_capacity,
)
from repro.infotheory.entropy import binary_entropy
from tests.infotheory.oracles import converted_channel


class TestBSC:
    def test_capacity_endpoints(self):
        def capacity(p):
            w = binary_symmetric_channel(p).transition_matrix
            return blahut_arimoto(w).capacity

        assert capacity(0.0) == pytest.approx(1.0)
        assert capacity(0.5) == pytest.approx(0.0, abs=1e-9)
        assert capacity(1.0) == pytest.approx(1.0)  # invertible flip

    def test_matrix(self):
        w = binary_symmetric_channel(0.2).transition_matrix
        assert w[0, 1] == pytest.approx(0.2)
        assert w[1, 0] == pytest.approx(0.2)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            binary_symmetric_channel(1.5)


class TestErasure:
    @pytest.mark.parametrize("m,eps", [(2, 0.2), (4, 0.5), (8, 0.0)])
    def test_capacity_formula(self, m, eps):
        assert m_ary_erasure_capacity(m, eps) == pytest.approx(
            np.log2(m) * (1 - eps)
        )

    def test_bec_is_m2(self):
        assert bec_capacity(0.3) == m_ary_erasure_capacity(2, 0.3)

    def test_matrix_structure(self):
        w = m_ary_erasure_channel(4, 0.25).transition_matrix
        assert w.shape == (4, 5)
        assert np.allclose(np.diag(w[:, :4]), 0.75)
        assert np.allclose(w[:, 4], 0.25)
        # No cross-symbol confusion.
        off = w[:, :4] - np.diag(np.diag(w[:, :4]))
        assert np.allclose(off, 0.0)

    def test_rejects_small_alphabet(self):
        with pytest.raises(ValueError):
            m_ary_erasure_channel(1, 0.1)
        with pytest.raises(ValueError):
            m_ary_erasure_capacity(1, 0.1)


class TestZChannel:
    def test_capacity_endpoints(self):
        assert z_channel_capacity(0.0) == 1.0
        assert z_channel_capacity(1.0) == 0.0

    def test_known_value(self):
        # C(Z, p=0.5) = log2(5/4) ~ 0.3219
        assert z_channel_capacity(0.5) == pytest.approx(np.log2(1.25), abs=1e-9)

    def test_zero_row_noiseless(self):
        w = z_channel(0.4).transition_matrix
        assert w[0, 0] == 1.0
        assert w[0, 1] == 0.0

    @given(st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=40)
    def test_above_bsc(self, p):
        # One-sided noise beats symmetric noise of the same rate (for
        # p <= 1/2; beyond that the BSC flip becomes invertible again).
        assert z_channel_capacity(p) >= 1.0 - binary_entropy(p) - 1e-12


class TestMArySymmetric:
    def test_reduces_to_bsc(self):
        assert m_ary_symmetric_capacity(2, 0.2) == pytest.approx(
            1.0 - binary_entropy(0.2)
        )

    def test_zero_error_full_capacity(self):
        assert m_ary_symmetric_capacity(8, 0.0) == pytest.approx(3.0)

    def test_matrix_rows(self):
        w = m_ary_symmetric_channel(4, 0.3).transition_matrix
        assert np.allclose(np.diag(w), 0.7)
        assert np.allclose(w.sum(axis=1), 1.0)


class TestConvertedChannel:
    """The Appendix-A / Figure-5 channel of the paper."""

    def test_alpha_scaling(self):
        # N=1: alpha = 1/2, so error prob is pi/2.
        w = converted_channel(1, 0.4).transition_matrix
        assert w[0, 1] == pytest.approx(0.2)

    def test_matches_m_ary_formula(self):
        n, pi = 3, 0.15
        alpha = (2**n - 1) / 2**n
        assert converted_channel_capacity(n, pi) == pytest.approx(
            m_ary_symmetric_capacity(2**n, alpha * pi)
        )

    def test_paper_equation_3_form(self):
        # C_conv = N - alpha*Pi*log2(2^N - 1) - H(alpha*Pi)
        n, pi = 4, 0.1
        alpha = (2**n - 1) / 2**n
        e = alpha * pi
        expected = n - e * np.log2(2**n - 1) - binary_entropy(e)
        assert converted_channel_capacity(n, pi) == pytest.approx(expected)

    def test_no_insertions_full_capacity(self):
        assert converted_channel_capacity(5, 0.0) == pytest.approx(5.0)

    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_capacity_in_range_and_decreasing_near_zero(self, n, pi):
        c = converted_channel_capacity(n, pi)
        assert -1e-9 <= c <= n
        if pi <= 0.5:
            assert c <= converted_channel_capacity(n, pi / 2) + 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            converted_channel_capacity(0, 0.1)
        with pytest.raises(ValueError):
            converted_channel_capacity(3, 1.5)
