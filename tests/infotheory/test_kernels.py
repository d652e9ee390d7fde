"""Batched kernels vs. the scalar oracle: property-style parity at 1e-12.

The batched kernel is the package's one Blahut-Arimoto loop and
promises *semantic* equality with a scalar loop
(:func:`tests.infotheory.oracles.reference_blahut_arimoto`) — same
capacity, same input distribution, same iteration count and terminal
status per channel — while iterating a whole ``(k, nx, ny)`` stack at
once. These tests hold it to that over randomized and generated stacks
(structural zeros, near-deterministic rows, erasure rows at P_d -> 1),
hold it to the plain-step loop
(:func:`tests.infotheory.oracles.reference_plain_blahut_arimoto`), and
check that every exit, plain or timed, whatever its status,
brackets the optimum between ``capacity`` and ``capacity + gap``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infotheory import (
    blahut_arimoto,
    blahut_arimoto_batch,
    validate_transition_stack,
)
from repro.infotheory.entropy import mutual_information
from repro.infotheory.kernels import _divergence_step, _neg_entropy
from repro.numerics import (
    LOG_FLOOR,
    SolverStatus,
    collect_solver_statuses,
    masked_log2,
    safe_log2,
)

from .oracles import reference_blahut_arimoto, reference_plain_blahut_arimoto

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
        scalar = reference_blahut_arimoto(stack[i], tol=tol, max_iter=max_iter)
        assert abs(batch.capacity[i] - scalar.capacity) < PARITY
        assert np.max(
            np.abs(batch.input_distribution[i] - scalar.input_distribution)
        ) < PARITY
        assert batch.iterations[i] == scalar.iterations
        assert batch.statuses[i] is scalar.status
        if np.isfinite(scalar.gap):
            assert abs(batch.gap[i] - scalar.gap) < PARITY
    return batch


def _reference_divergence(p, w):
    """``sum_y W (log2 W - log2 q)`` one channel at a time."""
    log_w = masked_log2(w)
    out = np.empty(p.shape)
    for i in range(w.shape[0]):
        q = p[i] @ w[i]
        out[i] = np.einsum(
            "xy,xy->x", w[i], log_w[i] - safe_log2(q)[None, :]
        )
    return out


class TestDivergenceStep:
    def test_matches_scalar_divergence(self):
        rng = np.random.default_rng(3)
        k, nx, ny = 4, 3, 5
        w = rng.random((k, nx, ny))
        w /= w.sum(axis=2, keepdims=True)
        p = rng.random((k, nx))
        p /= p.sum(axis=1, keepdims=True)
        d = _divergence_step(p, w, _neg_entropy(w))
        assert d.shape == (k, nx)
        np.testing.assert_allclose(d, _reference_divergence(p, w), atol=1e-13)

    def test_structural_zeros_contribute_nothing(self):
        w = random_stack(5, 4, 6, seed=7, zero_fraction=0.5)
        assert np.any(w == 0)
        p = np.full((5, 4), 0.25)
        h = _neg_entropy(w)
        assert np.all(np.isfinite(h))
        d = _divergence_step(p, w, h)
        np.testing.assert_allclose(d, _reference_divergence(p, w), atol=1e-13)

    def test_underflowed_output_stays_finite(self):
        # Output 1 is reachable only from input 1, which carries no
        # mass, so q(1) = 1e-310 * 1 falls below LOG_FLOOR and its log
        # is floored: input 1's divergence is large but finite.
        w = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        p = np.array([[1.0 - 1e-310, 1e-310]])
        assert (p[0] @ w[0])[1] < LOG_FLOOR
        d = _divergence_step(p, w, _neg_entropy(w))
        assert np.all(np.isfinite(d))
        assert d[0, 1] == pytest.approx(-np.log2(LOG_FLOOR))
        np.testing.assert_allclose(d, _reference_divergence(p, w), atol=1e-13)


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


def _erasure_rows(rng, k, nx, ny):
    """Channels whose rows keep one symbol with prob 1 - P_d and erase
    it (last column) otherwise, with P_d at or near 1."""
    w = np.zeros((k, nx, ny))
    pds = rng.choice([0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-12, 1.0], (k, nx))
    keep = rng.integers(0, ny - 1, (k, nx))
    ks, xs = np.meshgrid(np.arange(k), np.arange(nx), indexing="ij")
    w[ks, xs, keep] = 1.0 - pds
    w[:, :, -1] += pds
    return w


@st.composite
def channel_stacks(draw):
    """Small stacks of one generated regime, as a normalized array."""
    k = draw(st.integers(1, 4))
    nx = draw(st.integers(1, 4))
    ny = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    regime = draw(
        st.sampled_from(["random", "zeros", "near_deterministic", "erasure"])
    )
    if regime == "erasure":
        return _erasure_rows(np.random.default_rng(seed), k, nx, ny)
    return random_stack(
        k,
        nx,
        ny,
        seed=seed,
        zero_fraction=0.5 if regime == "zeros" else 0.0,
        near_deterministic=regime == "near_deterministic",
    )


class TestGeneratedParity:
    """Generated stacks: each channel matches the scalar oracle in
    capacity, distribution, gap, iteration count and status."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(stack=channel_stacks(), tol=st.sampled_from([1e-10, 1e-6]))
    def test_kernel_matches_scalar_oracle(self, stack, tol):
        assert_batch_matches_scalar(stack, tol=tol, max_iter=500)


class TestBatchSemantics:
    def test_single_matrix_promoted(self):
        w = np.array([[0.9, 0.1], [0.2, 0.8]])
        batch = blahut_arimoto_batch(w)
        assert len(batch) == 1
        scalar = reference_blahut_arimoto(w)
        assert abs(batch.capacity[0] - scalar.capacity) < PARITY

    def test_unbatch_mirrors_scalar_results(self):
        stack = random_stack(5, 3, 4, seed=29)
        parts = blahut_arimoto_batch(stack).unbatch()
        assert len(parts) == 5
        for part, w in zip(parts, stack):
            scalar = reference_blahut_arimoto(w)
            assert abs(part.capacity - scalar.capacity) < PARITY
            assert part.converged == scalar.converged
            assert part.status is scalar.status

    def test_scalar_solver_is_a_one_stack_call(self):
        w = random_stack(1, 3, 4, seed=71)[0]
        scalar = blahut_arimoto(w)
        [part] = blahut_arimoto_batch(w[None]).unbatch()
        assert scalar.capacity == part.capacity
        np.testing.assert_array_equal(
            scalar.input_distribution, part.input_distribution
        )
        assert (scalar.iterations, scalar.status) == (
            part.iterations,
            part.status,
        )

    def test_kernel_records_no_status(self):
        with collect_solver_statuses() as counts:
            blahut_arimoto_batch(random_stack(3, 2, 2, seed=73))
            blahut_arimoto(random_stack(1, 2, 2, seed=79)[0])
        assert counts == {}

    def test_guard_arguments_validated(self):
        w = random_stack(1, 2, 2, seed=83)
        with pytest.raises(ValueError, match="max_iter"):
            blahut_arimoto_batch(w, max_iter=0)
        with pytest.raises(ValueError, match="tol"):
            blahut_arimoto_batch(w, tol=-1.0)
        with pytest.raises(ValueError, match="durations must have shape"):
            blahut_arimoto_batch(w, durations=np.ones(3))
        with pytest.raises(ValueError, match="positive and finite"):
            blahut_arimoto_batch(w, durations=np.array([1.0, 0.0]))

    def test_max_iter_exhaustion_reports_honestly(self):
        stack = random_stack(3, 4, 6, seed=41)
        batch = blahut_arimoto_batch(stack, tol=1e-15, max_iter=3)
        assert not batch.converged.any()
        assert all(s is not SolverStatus.CONVERGED for s in batch.statuses)
        assert np.all(batch.iterations == 3)
        # The best lower end keeps estimates finite and non-negative.
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
    """Tight iteration budgets: each channel stops on its own."""

    def test_tiny_max_iter_reports_unconverged(self):
        # Regression for the silent-exhaustion bug: the batch must say
        # so when a channel runs out of iterations, not return a stale
        # iterate as if it had converged.
        stack = random_stack(3, 4, 6, seed=53)
        result = blahut_arimoto_batch(stack, tol=1e-14, max_iter=2)
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
        result = blahut_arimoto_batch(stack, tol=1e-11, max_iter=4)
        assert bool(result.converged[0])
        assert not bool(result.converged[1])
        assert result.iterations[0] <= result.iterations[1]


@st.composite
def timed_problems(draw):
    """A generated stack, with unit cost or per-input durations in
    [1, 6]."""
    stack = draw(channel_stacks())
    k, nx, _ny = stack.shape
    scale = draw(st.sampled_from([0.0, 0.1, 1.0, 5.0]))
    if not scale:
        return stack, None
    seed = draw(st.integers(0, 2**32 - 1))
    return stack, 1.0 + scale * np.random.default_rng(seed).random((k, nx))


def objective(p, w, tau=None):
    """``I(p, W)``, per unit time ``p . tau`` when timed, through the
    entropy module, not the kernel."""
    value = mutual_information(p, w)
    return value if tau is None else value / float(p @ tau)


class TestPenalizedOracleParity:
    """The kernel against the scalar oracle and against the plain-step
    loop. Every channel ends on the scalar oracle's iterate, step and
    status, bit for bit. Where the plain loop converges the kernel
    converges too, and their capacities agree within tol; where the
    loop does not, the kernel's gap is no worse than the loop's last
    one. On every status the kernel's answer is certified: the loop's
    mutual information lies within the kernel's reported gap of the
    kernel's own."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(stack=channel_stacks())
    def test_kernel_matches_penalized_oracle(self, stack):
        loop = reference_plain_blahut_arimoto(stack, tol=1e-11, max_iter=500)
        kernel = blahut_arimoto_batch(stack, tol=1e-11, max_iter=500)
        for i in range(stack.shape[0]):
            p = kernel.input_distribution[i]
            scalar = reference_blahut_arimoto(stack[i], tol=1e-11, max_iter=500)
            np.testing.assert_array_equal(p, scalar.input_distribution)
            assert kernel.iterations[i] == scalar.iterations
            assert kernel.statuses[i] is scalar.status
            reached = objective(p, stack[i])
            plain = objective(loop.input_distribution[i], stack[i])
            if loop.converged[i]:
                assert bool(kernel.converged[i])
                assert abs(reached - plain) <= 1e-11
            else:
                assert kernel.gap[i] <= loop.gap[i]
            # The optimum is at most the kernel's value plus its gap,
            # and the loop's value is at most the optimum.
            assert plain <= reached + kernel.gap[i] + 1e-12
            assert np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_gap_kink_does_not_stop_the_kernel(self):
        # The single-iterate gap of this timed solve reaches its early
        # best at step 16 and stays above it until step 345, more than
        # STALL_WINDOW iterations, while the bracket keeps narrowing.
        # The kernel must run on and converge where the scalar oracle
        # does.
        w = np.array([[0.2, 0.8], [0.13, 0.87], [0.21, 0.79]])
        tau = np.array([1.2, 2.2, 1.2])
        oracle = reference_blahut_arimoto(
            w, durations=tau, tol=1e-11, max_iter=5000
        )
        kernel = blahut_arimoto_batch(
            w, durations=tau, tol=1e-11, max_iter=5000
        )
        assert oracle.status is SolverStatus.CONVERGED
        assert oracle.iterations == 521
        assert kernel.statuses == (SolverStatus.CONVERGED,)
        assert kernel.iterations[0] == 521
        np.testing.assert_array_equal(
            kernel.input_distribution[0], oracle.input_distribution
        )

    def test_tolerance_below_float_resolution_never_converges(self):
        # The bracket's width is never reported below the rounding of
        # its upper end, so a tolerance no float64 bracket can meet ends
        # every channel stalled with a positive gap. Without that floor
        # 24 of these 36 channels "converged" with a gap of exactly 0,
        # and the 1 x 4 x 5 channel at tol 0 at step 290.
        stack = np.concatenate([random_stack(6, 3, 4, seed=s) for s in range(6)])
        floor = blahut_arimoto_batch(stack, tol=1e-18, max_iter=20_000)
        zero = blahut_arimoto_batch(
            random_stack(1, 4, 5, seed=0), tol=0.0, max_iter=20_000
        )
        for result in (floor, zero):
            assert set(result.statuses) == {SolverStatus.STALLED}
            assert np.all(result.gap > 0.0)

    def test_float_floor_still_stalls(self):
        # Below float resolution neither bound can move: a tolerance no
        # iterate can meet still ends stalled, long before max_iter.
        stack = random_stack(6, 3, 4, seed=3)
        result = blahut_arimoto_batch(stack[:1], tol=1e-18, max_iter=20_000)
        assert result.statuses == (SolverStatus.STALLED,)
        assert result.iterations[0] < 2_000


class TestRunningCertificate:
    """Every exit of the kernel is certified: the optimum lies in
    ``[value, value + gap]``, where ``value`` is the objective
    ``I(p, W)`` (per unit time when timed) of the reported iterate, on
    every status. The optimum is bracketed by a tol-1e-14 solve of the
    same channel, itself certified the same way, and a channel is
    converged exactly when its gap is within tol."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        problem=timed_problems(),
        max_iter=st.sampled_from([1, 5, 50, 2000]),
        tol=st.sampled_from([1e-6, 1e-10, 1e-18]),
    )
    def test_every_status_brackets_the_optimum(self, problem, max_iter, tol):
        stack, tau = problem
        kernel = blahut_arimoto_batch(
            stack, durations=tau, tol=tol, max_iter=max_iter
        )
        tight = blahut_arimoto_batch(
            stack, durations=tau, tol=1e-14, max_iter=2000
        )
        for i in range(stack.shape[0]):
            tau_i = None if tau is None else tau[i]
            assert bool(kernel.converged[i]) == (kernel.gap[i] <= tol)
            value = objective(kernel.input_distribution[i], stack[i], tau_i)
            optimum = objective(tight.input_distribution[i], stack[i], tau_i)
            assert value <= optimum + tight.gap[i] + 1e-12
            assert optimum <= value + kernel.gap[i] + 1e-12
            # The reported capacity is the lower end.
            assert kernel.capacity[i] <= optimum + tight.gap[i] + 1e-12
            assert optimum <= kernel.capacity[i] + kernel.gap[i] + 1e-12
