"""Batched kernels vs. the scalar oracle: property-style parity at 1e-12.

The batched kernels promise *semantic* equality with the scalar
Blahut-Arimoto loop — same capacity, same input distribution, same
iteration count and terminal status per channel — while iterating a
whole ``(k, nx, ny)`` stack at once. These tests hold them to that over
randomized stacks (structural zeros, near-deterministic rows, shared
and per-channel starting points).
"""

import numpy as np
import pytest

from repro.infotheory import (
    BatchedBAResult,
    blahut_arimoto,
    blahut_arimoto_batch,
    penalized_blahut_arimoto_batch,
    validate_transition_stack,
)
from repro.infotheory.kernels import BATCH_SOLVER, _divergence_step
from repro.numerics import SolverStatus, masked_log2, safe_log2

PARITY = 1e-12


def random_stack(
    k, nx, ny, *, seed, zero_fraction=0.0, near_deterministic=False
):
    """A ``(k, nx, ny)`` stack of random row-stochastic channels."""
    rng = np.random.default_rng(seed)
    w = rng.random((k, nx, ny))
    if zero_fraction:
        mask = rng.random((k, nx, ny)) < zero_fraction
        # Never zero a whole row (it could not renormalize).
        mask[:, :, 0] = False
        w[mask] = 0.0
    if near_deterministic:
        # Rows dominated by one output — the regime with the largest
        # divergence values, where log-floor handling matters most.
        peaks = rng.integers(0, ny, (k, nx))
        w *= 1e-6
        w[np.arange(k)[:, None], np.arange(nx)[None, :], peaks] = 1.0
    return w / w.sum(axis=2, keepdims=True)


def assert_batch_matches_scalar(stack, *, tol=1e-10, max_iter=10_000):
    batch = blahut_arimoto_batch(stack, tol=tol, max_iter=max_iter)
    for i in range(stack.shape[0]):
        scalar = blahut_arimoto(stack[i], tol=tol, max_iter=max_iter)
        assert abs(batch.capacity[i] - scalar.capacity) < PARITY
        assert np.max(
            np.abs(batch.input_distribution[i] - scalar.input_distribution)
        ) < PARITY
        assert batch.iterations[i] == scalar.iterations
        assert batch.statuses[i] is scalar.status
        if np.isfinite(scalar.gap):
            assert abs(batch.gap[i] - scalar.gap) < PARITY
    return batch


class TestDivergenceStep:
    def test_matches_scalar_divergence(self):
        rng = np.random.default_rng(3)
        k, nx, ny = 4, 3, 5
        w = rng.random((k, nx, ny))
        w /= w.sum(axis=2, keepdims=True)
        p = rng.random((k, nx))
        p /= p.sum(axis=1, keepdims=True)
        log_w = masked_log2(w)
        d = _divergence_step(p, w, log_w)
        assert d.shape == (k, nx)
        for i in range(k):
            q = p[i] @ w[i]
            expected = np.einsum(
                "xy,xy->x", w[i], log_w[i] - safe_log2(q)[None, :]
            )
            np.testing.assert_allclose(d[i], expected, atol=1e-13)


class TestBatchScalarParity:
    def test_random_stacks(self):
        for seed, (k, nx, ny) in enumerate(
            [(4, 2, 2), (6, 3, 5), (5, 7, 3), (3, 4, 9)]
        ):
            stack = random_stack(k, nx, ny, seed=seed)
            assert_batch_matches_scalar(stack)

    def test_structural_zeros(self):
        stack = random_stack(8, 4, 6, seed=11, zero_fraction=0.4)
        assert_batch_matches_scalar(stack)

    def test_near_deterministic_rows(self):
        stack = random_stack(6, 3, 4, seed=13, near_deterministic=True)
        assert_batch_matches_scalar(stack)

    def test_wide_stack_32_channels(self):
        # The acceptance bar: a >= 32-channel stack matching the scalar
        # oracle on capacity and input distribution to 1e-12.
        stack = random_stack(32, 4, 5, seed=17, zero_fraction=0.2)
        batch = assert_batch_matches_scalar(stack)
        assert len(batch) == 32

    def test_early_finishers_freeze(self):
        # A noiseless channel converges in a couple of sweeps; a noisy
        # one takes many. Batching them must not make the fast one pay
        # the slow one's iterations, nor perturb either answer.
        fast = np.eye(3)[None]
        slow = random_stack(1, 3, 3, seed=23)
        stack = np.concatenate([fast, slow])
        batch = assert_batch_matches_scalar(stack)
        assert batch.iterations[0] < batch.iterations[1]


class TestBatchSemantics:
    def test_single_matrix_promoted(self):
        w = np.array([[0.9, 0.1], [0.2, 0.8]])
        batch = blahut_arimoto_batch(w)
        assert len(batch) == 1
        scalar = blahut_arimoto(w)
        assert abs(batch.capacity[0] - scalar.capacity) < PARITY

    def test_unbatch_mirrors_scalar_results(self):
        stack = random_stack(5, 3, 4, seed=29)
        parts = blahut_arimoto_batch(stack).unbatch()
        assert len(parts) == 5
        for part, w in zip(parts, stack):
            scalar = blahut_arimoto(w)
            assert abs(part.capacity - scalar.capacity) < PARITY
            assert part.converged == scalar.converged
            assert part.status is scalar.status

    def test_shared_and_per_channel_initial_input(self):
        stack = random_stack(3, 4, 4, seed=31)
        shared = np.array([0.4, 0.3, 0.2, 0.1])
        batch = blahut_arimoto_batch(stack, initial_input=shared)
        for i in range(3):
            scalar = blahut_arimoto(stack[i], initial_input=shared)
            assert abs(batch.capacity[i] - scalar.capacity) < PARITY
        per_channel = np.tile(shared, (3, 1))
        batch2 = blahut_arimoto_batch(stack, initial_input=per_channel)
        np.testing.assert_array_equal(batch.capacity, batch2.capacity)

    def test_diagnostics_report_statuses(self):
        stack = random_stack(4, 3, 3, seed=37)
        batch = blahut_arimoto_batch(stack)
        assert isinstance(batch, BatchedBAResult)
        assert batch.diagnostics.solver == BATCH_SOLVER
        assert batch.diagnostics.notes == ("converged=4",)

    def test_max_iter_exhaustion_reports_honestly(self):
        stack = random_stack(3, 4, 6, seed=41)
        batch = blahut_arimoto_batch(stack, tol=1e-15, max_iter=3)
        assert not batch.converged.any()
        assert all(s is not SolverStatus.CONVERGED for s in batch.statuses)
        assert np.all(batch.iterations == 3)
        # Best-so-far fallback keeps estimates finite and non-negative.
        assert np.all(np.isfinite(batch.capacity))
        assert np.all(batch.capacity >= 0.0)

    def test_validation_rejects_bad_stacks(self):
        with pytest.raises(ValueError, match="empty"):
            validate_transition_stack(np.zeros((0, 2, 2)))
        with pytest.raises(ValueError, match="channel stack"):
            validate_transition_stack(np.zeros(4))
        bad = np.full((1, 2, 2), 0.5)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            validate_transition_stack(bad)
        neg = np.array([[[1.5, -0.5], [0.5, 0.5]]])
        with pytest.raises(ValueError, match="non-negative"):
            validate_transition_stack(neg)
        unnorm = np.array([[[0.5, 0.4], [0.5, 0.5]]])
        with pytest.raises(ValueError, match="sum to 1"):
            validate_transition_stack(unnorm)


class TestPenalizedBatch:
    def test_zero_penalty_recovers_capacity_input(self):
        stack = random_stack(4, 3, 5, seed=43)
        result = penalized_blahut_arimoto_batch(
            stack, np.zeros((4, 3)), tol=1e-11
        )
        assert result.converged.all()
        reference = blahut_arimoto_batch(stack, tol=1e-11)
        # Same fixed point (up to each iteration's own tolerance).
        assert np.max(
            np.abs(result.input_distribution - reference.input_distribution)
        ) < 1e-6

    def test_penalty_shifts_mass_off_expensive_inputs(self):
        stack = random_stack(1, 3, 4, seed=47)
        free = penalized_blahut_arimoto_batch(stack, np.zeros((1, 3)))
        pen = np.array([[5.0, 0.0, 0.0]])
        taxed = penalized_blahut_arimoto_batch(stack, pen)
        assert (
            taxed.input_distribution[0, 0] < free.input_distribution[0, 0]
        )

    def test_tiny_max_iter_reports_unconverged(self):
        # Regression for the silent-exhaustion bug: the batch must say
        # so when a channel runs out of iterations, not return a stale
        # iterate as if it had converged.
        stack = random_stack(3, 4, 6, seed=53)
        result = penalized_blahut_arimoto_batch(
            stack, np.zeros((3, 4)), tol=1e-14, max_iter=2
        )
        assert not result.converged.any()
        assert np.all(result.iterations == 2)
        # Frozen iterates are still valid distributions.
        np.testing.assert_allclose(
            result.input_distribution.sum(axis=1), 1.0, atol=1e-12
        )

    def test_mixed_convergence_freezes_independently(self):
        easy = np.eye(3)[None]
        hard = random_stack(1, 3, 3, seed=59)
        stack = np.concatenate([easy, hard])
        result = penalized_blahut_arimoto_batch(
            stack, np.zeros((2, 3)), tol=1e-11, max_iter=4
        )
        assert bool(result.converged[0])
        assert not bool(result.converged[1])
        assert result.iterations[0] <= result.iterations[1]

    def test_bad_penalty_shape_rejected(self):
        stack = random_stack(2, 3, 3, seed=61)
        with pytest.raises(ValueError, match="penalties"):
            penalized_blahut_arimoto_batch(stack, np.zeros((2, 4)))
