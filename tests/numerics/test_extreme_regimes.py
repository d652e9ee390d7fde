"""Extreme-regime regression suite (stress-marked).

The paper's interesting limits — ``P_d -> 1``, ``P_i + P_d -> 1``,
degenerate transition tables — are exactly where unguarded capacity
solvers NaN out or spin. Every test here asserts the guarded solvers
return *finite* estimates with *honest* statuses; none may raise.
"""

import numpy as np
import pytest

from repro.experiments import run_experiment
from repro.experiments.e16_extreme_regimes import extreme_grid
from repro.infotheory import (
    bec_capacity,
    binary_erasure_channel,
    blahut_arimoto,
    blahut_arimoto_batch,
    z_channel,
    z_channel_capacity,
)
from repro.numerics import SolverStatus, collect_solver_statuses
from tests.infotheory.oracles import converted_channel

pytestmark = pytest.mark.stress

EXTREME_PD = (0.999, 1.0 - 1e-12)


def assert_honest(result):
    """Finite estimate, finite input distribution, taxonomy status."""
    assert np.isfinite(result.capacity)
    assert result.capacity >= 0.0
    assert np.all(np.isfinite(result.input_distribution))
    assert result.input_distribution.sum() == pytest.approx(1.0)
    assert isinstance(result.status, SolverStatus)
    assert result.converged == (result.status is SolverStatus.CONVERGED)


class TestDeletionLimit:
    @pytest.mark.parametrize("pd", EXTREME_PD)
    def test_erasure_channel_near_pd_one(self, pd):
        w = binary_erasure_channel(pd).transition_matrix
        result = blahut_arimoto(w)
        assert_honest(result)
        if result.converged:
            tolerance = max(1e-8, 10.0 * result.gap)
            assert abs(result.capacity - bec_capacity(pd)) <= tolerance

    @pytest.mark.parametrize("pd", EXTREME_PD)
    def test_z_channel_near_pd_one(self, pd):
        result = blahut_arimoto(z_channel(pd).transition_matrix)
        assert_honest(result)
        # The capacity-achieving input mass vanishes as pd -> 1; the
        # solve may honestly report max_iter, but the best-so-far
        # estimate must still be close.
        assert abs(result.capacity - z_channel_capacity(pd)) <= 1e-6

    def test_exact_pd_one_is_zero_capacity(self):
        result = blahut_arimoto(binary_erasure_channel(1.0).transition_matrix)
        assert_honest(result)
        assert result.capacity == pytest.approx(0.0, abs=1e-9)


class TestInsertionPlusDeletionLimit:
    def test_pi_plus_pd_approaching_one(self):
        # Composite erase-or-flip channel: survive with prob
        # 1 - pd - pi, flip with prob pi, erase with prob pd. With
        # pi -> (1 - pd)/2 the surviving symbol is a coin flip and
        # capacity collapses to ~0 — the P_i + P_d -> 1 wall.
        pd = 0.999
        pi = (1.0 - pd) / 2.0 - 1e-9
        keep = 1.0 - pd - pi
        w = np.array([[keep, pi, pd], [pi, keep, pd]])
        result = blahut_arimoto(w)
        assert_honest(result)
        assert result.capacity <= 1e-6

    def test_converted_channel_at_full_insertion(self):
        # insertion_prob = 1 drives the converted M-ary channel to the
        # uniform (zero-capacity) table.
        w = converted_channel(2, 1.0).transition_matrix
        result = blahut_arimoto(w)
        assert_honest(result)
        assert result.capacity == pytest.approx(0.0, abs=1e-9)


class TestDegenerateTables:
    def test_one_column_channel(self):
        # Every input maps to the same output: capacity exactly 0.
        result = blahut_arimoto(np.ones((4, 1)))
        assert_honest(result)
        assert result.status is SolverStatus.CONVERGED
        assert result.capacity == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_row_channel(self):
        # Two indistinguishable inputs; capacity of the merged channel.
        w = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9]])
        result = blahut_arimoto(w)
        assert_honest(result)
        assert result.converged


class TestHonestPartialAnswers:
    def test_truncated_run_is_finite_with_honest_status(self):
        # Starve the solver of iterations: the status must say so and
        # the best-so-far estimate stays finite.
        w = z_channel(0.999).transition_matrix
        [result] = blahut_arimoto_batch(w[None], max_iter=20).unbatch()
        assert np.isfinite(result.capacity)
        assert not result.converged
        assert result.status in (
            SolverStatus.MAX_ITER,
            SolverStatus.STALLED,
        )

    def test_statuses_surface_through_collector(self):
        # E16 records one blahut_arimoto status per grid channel.
        with collect_solver_statuses() as counts:
            result = run_experiment("E16")
        assert all(np.isfinite(row["BA C"]) for row in result.rows)
        recorded = sum(
            count
            for key, count in counts.items()
            if key.startswith("blahut_arimoto:")
        )
        assert recorded == len(extreme_grid())
