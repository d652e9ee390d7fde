"""Blahut-Arimoto vs closed-form capacities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infotheory.blahut_arimoto import blahut_arimoto
from repro.infotheory.channels import (
    bec_capacity,
    binary_erasure_channel,
    binary_symmetric_channel,
    m_ary_symmetric_capacity,
    m_ary_symmetric_channel,
    z_channel,
    z_channel_capacity,
)
from repro.infotheory.entropy import binary_entropy


class TestAgainstClosedForms:
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.11, 0.3, 0.5])
    def test_bsc(self, p):
        cap = blahut_arimoto(binary_symmetric_channel(p).transition_matrix).capacity
        assert cap == pytest.approx(1.0 - binary_entropy(p), abs=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 0.9])
    def test_bec(self, eps):
        cap = blahut_arimoto(binary_erasure_channel(eps).transition_matrix).capacity
        assert cap == pytest.approx(bec_capacity(eps), abs=1e-6)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.6])
    def test_z_channel(self, p):
        cap = blahut_arimoto(z_channel(p).transition_matrix).capacity
        assert cap == pytest.approx(z_channel_capacity(p), abs=1e-6)

    @pytest.mark.parametrize("m,e", [(4, 0.1), (8, 0.2), (16, 0.05)])
    def test_m_ary_symmetric(self, m, e):
        cap = blahut_arimoto(m_ary_symmetric_channel(m, e).transition_matrix).capacity
        assert cap == pytest.approx(m_ary_symmetric_capacity(m, e), abs=1e-6)


class TestAlgorithmBehavior:
    def test_converges_flag(self):
        result = blahut_arimoto(
            binary_symmetric_channel(0.1).transition_matrix, tol=1e-10
        )
        assert result.converged
        assert result.gap < 1e-10

    def test_optimal_input_uniform_for_symmetric(self):
        result = blahut_arimoto(
            m_ary_symmetric_channel(4, 0.15).transition_matrix
        )
        assert np.allclose(result.input_distribution, 0.25, atol=1e-4)

    def test_z_channel_optimal_input_biased(self):
        result = blahut_arimoto(z_channel(0.3).transition_matrix)
        # Z-channel favors input 0 (the noiseless symbol).
        assert result.input_distribution[0] > 0.5

    def test_useless_channel_zero_capacity(self):
        w = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert blahut_arimoto(w).capacity == pytest.approx(0.0, abs=1e-9)

    def test_identity_channel(self):
        assert blahut_arimoto(np.eye(8)).capacity == pytest.approx(3.0, abs=1e-8)

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            blahut_arimoto(np.array([[0.9, 0.2], [0.1, 0.9]]))
        with pytest.raises(ValueError):
            blahut_arimoto(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            blahut_arimoto(np.array([[1.1, -0.1], [0.5, 0.5]]))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_capacity_bounded_by_alphabets(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(2, 6, size=2)
        w = rng.random((nx, ny))
        w /= w.sum(axis=1, keepdims=True)
        cap = blahut_arimoto(w, tol=1e-8).capacity
        assert -1e-9 <= cap <= np.log2(min(nx, ny)) + 1e-6
