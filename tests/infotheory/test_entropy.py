"""Unit and property tests for entropy primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infotheory.entropy import (
    binary_entropy,
    mutual_information,
    mutual_information_from_joint,
    validate_distribution,
)
from tests.infotheory.entropy import (
    binary_entropy_derivative,
    conditional_entropy,
    cross_entropy,
    entropy,
    inverse_binary_entropy,
    joint_entropy,
    kl_divergence,
    normalize_distribution,
)


class TestBinaryEntropy:
    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.4):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p))

    def test_known_value(self):
        # H(0.11) ~ 0.4999 (classic BSC example value)
        assert binary_entropy(0.11) == pytest.approx(0.49992, abs=1e-4)

    def test_array_input(self):
        out = binary_entropy(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(out, [0.0, 1.0, 0.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)
        with pytest.raises(ValueError):
            binary_entropy(-0.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_bounded(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0 + 1e-12

    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
    @settings(max_examples=50)
    def test_derivative_matches_finite_difference(self, p):
        eps = 1e-7
        lo = max(p - eps, 1e-9)
        hi = min(p + eps, 1 - 1e-9)
        fd = (binary_entropy(hi) - binary_entropy(lo)) / (hi - lo)
        assert binary_entropy_derivative(p) == pytest.approx(fd, abs=1e-3)


class TestInverseBinaryEntropy:
    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_roundtrip_lower_branch(self, h):
        p = inverse_binary_entropy(h, branch="lower")
        assert 0.0 <= p <= 0.5
        assert binary_entropy(p) == pytest.approx(h, abs=1e-6)

    def test_upper_branch(self):
        p = inverse_binary_entropy(0.5, branch="upper")
        assert p > 0.5
        assert binary_entropy(p) == pytest.approx(0.5, abs=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            inverse_binary_entropy(1.5)
        with pytest.raises(ValueError):
            inverse_binary_entropy(0.5, branch="middle")


class TestEntropy:
    def test_uniform(self):
        assert entropy([0.25] * 4) == pytest.approx(2.0)

    def test_deterministic(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.6])
        with pytest.raises(ValueError):
            entropy([-0.1, 1.1])

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8)
    )
    @settings(max_examples=50)
    def test_upper_bounded_by_log_alphabet(self, weights):
        p = normalize_distribution(weights)
        assert entropy(p) <= np.log2(len(p)) + 1e-9


class TestKLAndCrossEntropy:
    def test_kl_zero_iff_equal(self):
        p = [0.2, 0.3, 0.5]
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_kl_positive(self):
        assert kl_divergence([0.9, 0.1], [0.5, 0.5]) > 0

    def test_kl_infinite_on_support_mismatch(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == float("inf")

    def test_cross_entropy_decomposition(self):
        p = [0.3, 0.7]
        q = [0.6, 0.4]
        assert cross_entropy(p, q) == pytest.approx(
            entropy(p) + kl_divergence(p, q)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [0.4, 0.3, 0.3])


class TestJointQuantities:
    def test_independent_joint_entropy_adds(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.4, 0.6])
        joint = np.outer(px, py)
        assert joint_entropy(joint) == pytest.approx(entropy(px) + entropy(py))

    def test_conditional_entropy_of_identity(self):
        joint = np.eye(3) / 3
        assert conditional_entropy(joint) == pytest.approx(0.0, abs=1e-12)

    def test_mi_zero_for_independent(self):
        joint = np.outer([0.3, 0.7], [0.4, 0.6])
        assert mutual_information_from_joint(joint) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_mi_of_identity_channel(self):
        joint = np.eye(4) / 4
        assert mutual_information_from_joint(joint) == pytest.approx(2.0)

    def test_mi_via_transition_matrix(self):
        # BSC with p=0.1, uniform input: I = 1 - H(0.1)
        w = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert mutual_information([0.5, 0.5], w) == pytest.approx(
            1.0 - binary_entropy(0.1)
        )

    def test_transition_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            mutual_information([0.5, 0.5], np.array([[0.9, 0.2], [0.1, 0.9]]))

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_mi_nonnegative_and_bounded(self, size, seed):
        rng = np.random.default_rng(seed)
        joint = rng.random((size, size))
        joint /= joint.sum()
        mi = mutual_information_from_joint(joint)
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        assert 0.0 <= mi <= min(entropy(px), entropy(py)) + 1e-9


class TestValidation:
    def test_normalize(self):
        out = normalize_distribution([2.0, 2.0])
        assert np.allclose(out, [0.5, 0.5])

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize_distribution([0.0, 0.0])

    def test_validate_passes_through(self):
        arr = validate_distribution([0.5, 0.5])
        assert isinstance(arr, np.ndarray)
