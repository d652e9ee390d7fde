"""DiscreteMemorylessChannel behavior."""

import numpy as np
import pytest

from repro.infotheory.channels import (
    binary_erasure_channel,
    binary_symmetric_channel,
    m_ary_symmetric_channel,
    z_channel,
)
from repro.infotheory.dmc import DiscreteMemorylessChannel
from repro.infotheory.entropy import binary_entropy


class TestConstruction:
    def test_basic_properties(self):
        ch = binary_symmetric_channel(0.1)
        assert ch.num_inputs == 2
        assert ch.num_outputs == 2
        assert np.allclose(ch.transition_matrix.sum(axis=1), 1.0)

    def test_transition_matrix_is_copy(self):
        ch = binary_symmetric_channel(0.1)
        m = ch.transition_matrix
        m[0, 0] = 0.0
        assert ch.transition_matrix[0, 0] == 0.9

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            DiscreteMemorylessChannel(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscreteMemorylessChannel(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            DiscreteMemorylessChannel(np.eye(2), input_labels=["a"])


class TestInformation:
    def test_mutual_information_uniform_bsc(self):
        ch = binary_symmetric_channel(0.2)
        assert ch.mutual_information([0.5, 0.5]) == pytest.approx(
            1 - binary_entropy(0.2)
        )

    def test_capacity_result_has_distribution(self):
        result = binary_symmetric_channel(0.3).capacity_result()
        assert result.input_distribution.shape == (2,)
        assert result.converged

    def test_output_distribution(self, rng):
        ch = binary_erasure_channel(0.25)
        y = ch.transmit(rng.integers(0, 2, 200_000), rng)
        out = np.bincount(y, minlength=3) / y.size
        assert out == pytest.approx([0.375, 0.375, 0.25], abs=0.01)

    def test_output_distribution_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            binary_symmetric_channel(0.1).mutual_information([1.0])


def _weakly_symmetric_capacity(ch):
    """``log2|Y| - H(row)``: the capacity of a weakly symmetric channel
    (Cover & Thomas, Thm 7.2.1)."""
    row = ch.transition_matrix[0]
    row = row[row > 0]
    return np.log2(ch.num_outputs) + float((row * np.log2(row)).sum())


class TestSymmetryPredicates:
    """Symmetric channels are those a uniform input drives to capacity."""

    def test_bsc_symmetric(self):
        result = binary_symmetric_channel(0.1).capacity_result()
        assert result.input_distribution == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_m_ary_symmetric(self):
        result = m_ary_symmetric_channel(4, 0.2).capacity_result()
        assert result.input_distribution == pytest.approx([0.25] * 4, abs=1e-6)

    def test_z_channel_not_symmetric(self):
        result = z_channel(0.2).capacity_result()
        assert abs(result.input_distribution[0] - 0.5) > 0.01

    def test_bec_weakly_symmetric_fails_columns(self):
        # BEC columns sums differ (erasure column sums to 2 eps), so the
        # weakly symmetric formula overstates its capacity 1 - eps.
        ch = binary_erasure_channel(0.3)
        assert ch.capacity() == pytest.approx(0.7, abs=1e-6)
        assert ch.capacity() < _weakly_symmetric_capacity(ch) - 1e-3

    def test_symmetric_implies_weakly_symmetric(self):
        ch = m_ary_symmetric_channel(3, 0.3)
        assert ch.capacity() == pytest.approx(
            _weakly_symmetric_capacity(ch), abs=1e-6
        )


class TestSampling:
    def test_transmit_noiseless(self, rng):
        ch = DiscreteMemorylessChannel(np.eye(4))
        x = rng.integers(0, 4, 1000)
        assert np.array_equal(ch.transmit(x, rng), x)

    def test_transmit_statistics(self, rng):
        ch = binary_symmetric_channel(0.3)
        x = np.zeros(200_000, dtype=int)
        y = ch.transmit(x, rng)
        assert y.mean() == pytest.approx(0.3, abs=0.01)

    def test_transmit_rejects_bad_symbols(self, rng):
        ch = binary_symmetric_channel(0.1)
        with pytest.raises(ValueError):
            ch.transmit(np.array([0, 2]), rng)
        with pytest.raises(ValueError):
            ch.transmit(np.array([[0, 1]]), rng)

    def test_transmit_empty(self, rng):
        ch = binary_symmetric_channel(0.1)
        assert ch.transmit(np.array([], dtype=int), rng).size == 0


class TestComposition:
    def test_cascade_of_bscs(self):
        # Two BSC(p) in series = BSC(2p(1-p)).
        p = 0.1
        w = binary_symmetric_channel(p).transition_matrix
        ch = DiscreteMemorylessChannel(w @ w)
        expected = 2 * p * (1 - p)
        assert ch.transition_matrix[0, 1] == pytest.approx(expected)
        assert ch.capacity() == pytest.approx(
            1 - binary_entropy(expected), abs=1e-6
        )

    def test_product_capacity_adds(self):
        ch = binary_symmetric_channel(0.1)
        w = ch.transition_matrix
        prod = DiscreteMemorylessChannel(np.kron(w, w))
        assert prod.capacity() == pytest.approx(2 * ch.capacity(), abs=1e-5)

    def test_product_shape(self):
        bsc = binary_symmetric_channel(0.1)
        bec = binary_erasure_channel(0.2)
        prod = DiscreteMemorylessChannel(
            np.kron(bsc.transition_matrix, bec.transition_matrix)
        )
        assert prod.num_inputs == 4
        assert prod.num_outputs == 6
        assert prod.capacity() == pytest.approx(
            bsc.capacity() + bec.capacity(), abs=1e-5
        )
