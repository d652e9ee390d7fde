"""Markov-chain utilities."""

import numpy as np
import pytest

from repro.infotheory.entropy import binary_entropy
from tests.infotheory.markov import (
    entropy_rate,
    is_irreducible,
    simulate_chain,
    stationary_distribution,
    validate_stochastic_matrix,
)


def two_state(a: float, b: float) -> np.ndarray:
    """P(0->1)=a, P(1->0)=b."""
    return np.array([[1 - a, a], [b, 1 - b]])


class TestValidation:
    def test_accepts_valid(self):
        validate_stochastic_matrix(two_state(0.3, 0.4))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            validate_stochastic_matrix(np.ones((2, 3)) / 3)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            validate_stochastic_matrix(np.array([[0.5, 0.6], [0.5, 0.5]]))


class TestStationary:
    def test_two_state_closed_form(self):
        a, b = 0.3, 0.1
        pi = stationary_distribution(two_state(a, b))
        assert pi == pytest.approx([b / (a + b), a / (a + b)])

    def test_doubly_stochastic_uniform(self):
        p = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        pi = stationary_distribution(p)
        assert pi == pytest.approx([1 / 3] * 3)

    def test_fixed_point(self):
        rng = np.random.default_rng(0)
        p = rng.random((5, 5))
        p /= p.sum(axis=1, keepdims=True)
        pi = stationary_distribution(p)
        assert np.allclose(pi @ p, pi, atol=1e-10)


class TestEntropyRate:
    def test_iid_chain(self):
        # Rows identical => i.i.d. process; rate = H(row).
        p = np.array([[0.7, 0.3], [0.7, 0.3]])
        assert entropy_rate(p) == pytest.approx(binary_entropy(0.3))

    def test_deterministic_cycle_zero(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert entropy_rate(p) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_two_state(self):
        p = two_state(0.2, 0.2)
        assert entropy_rate(p) == pytest.approx(binary_entropy(0.2))


class TestIrreducibility:
    def test_connected(self):
        assert is_irreducible(two_state(0.5, 0.5))

    def test_absorbing_not_irreducible(self):
        p = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert not is_irreducible(p)


class TestSimulation:
    def test_trajectory_length_and_range(self, rng):
        traj = simulate_chain(two_state(0.3, 0.3), 500, rng)
        assert traj.shape == (500,)
        assert set(np.unique(traj)) <= {0, 1}

    def test_occupancy_matches_stationary(self, rng):
        p = two_state(0.3, 0.1)
        traj = simulate_chain(p, 100_000, rng)
        pi = stationary_distribution(p)
        assert traj.mean() == pytest.approx(pi[1], abs=0.01)

    def test_initial_state_respected(self, rng):
        traj = simulate_chain(two_state(0.0, 0.0), 10, rng, initial_state=1)
        assert np.all(traj == 1)

    def test_rejects_bad_initial(self, rng):
        with pytest.raises(ValueError):
            simulate_chain(two_state(0.1, 0.1), 5, rng, initial_state=7)

    def test_zero_steps(self, rng):
        assert simulate_chain(two_state(0.1, 0.1), 0, rng).size == 0
