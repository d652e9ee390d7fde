"""General timed-DMC capacity: the Blahut-Arimoto kernel with symbol
durations, stopped on the cost-per-unit bracket."""

import time

import numpy as np
import pytest

from repro.infotheory.channels import binary_symmetric_channel, z_channel
from repro.infotheory.entropy import binary_entropy
from repro.infotheory.kernels import blahut_arimoto_batch
from repro.infotheory.noiseless import noiseless_capacity_per_second
from repro.numerics import SolverStatus, collect_solver_statuses
from repro.timing.timed_dmc import timed_dmc_capacity
from tests.infotheory.oracles import reference_blahut_arimoto
from tests.timing.timed_z import timed_z_capacity


class TestSpecialCases:
    def test_unit_durations_recover_plain_capacity(self):
        w = binary_symmetric_channel(0.1).transition_matrix
        r = timed_dmc_capacity(w, np.array([1.0, 1.0]))
        assert r.capacity == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-8)

    def test_noiseless_channel(self):
        r = timed_dmc_capacity(np.eye(2), np.array([1.0, 2.0]))
        assert r.capacity == pytest.approx(
            noiseless_capacity_per_second([1, 2]), abs=1e-8
        )

    def test_noiseless_three_symbols(self):
        r = timed_dmc_capacity(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert r.capacity == pytest.approx(
            noiseless_capacity_per_second([1, 2, 3]), abs=1e-8
        )

    @pytest.mark.parametrize(
        "t0,t1,p", [(1.0, 2.5, 0.15), (2.0, 1.0, 0.3), (1.0, 1.0, 0.4)]
    )
    def test_timed_z_channel(self, t0, t1, p):
        w = z_channel(p).transition_matrix
        # Per-input expected durations (output-attached times).
        tau = np.array([t0, (1 - p) * t1 + p * t0])
        r = timed_dmc_capacity(w, tau)
        assert r.capacity == pytest.approx(
            timed_z_capacity(t0, t1, p), abs=1e-7
        )


class TestStructure:
    def test_identity_relation(self):
        w = binary_symmetric_channel(0.05).transition_matrix
        r = timed_dmc_capacity(w, np.array([1.0, 3.0]))
        assert r.capacity == pytest.approx(
            r.bits_per_symbol / r.mean_time, abs=1e-10
        )

    def test_scaling_durations(self):
        w = z_channel(0.2).transition_matrix
        tau = np.array([1.0, 2.0])
        r1 = timed_dmc_capacity(w, tau)
        r2 = timed_dmc_capacity(w, 2 * tau)
        assert r2.capacity == pytest.approx(r1.capacity / 2, abs=1e-8)

    def test_favors_fast_symbols(self):
        # Make symbol 0 very cheap: it should be used more than 1.
        r = timed_dmc_capacity(np.eye(2), np.array([1.0, 10.0]))
        assert r.input_distribution[0] > 0.8

    def test_dominates_uniform_input(self):
        from repro.infotheory.entropy import mutual_information

        w = z_channel(0.25).transition_matrix
        tau = np.array([1.0, 2.0])
        r = timed_dmc_capacity(w, tau)
        uniform_rate = mutual_information([0.5, 0.5], w) / 1.5
        assert r.capacity >= uniform_rate - 1e-9


class TestValidation:
    def test_rejects_bad_transition(self):
        with pytest.raises(ValueError):
            timed_dmc_capacity(np.array([[0.9, 0.2], [0.1, 0.9]]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            timed_dmc_capacity(np.array([0.5, 0.5]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_transition_entries(self, bad):
        # Regression: a NaN row previously fell through to the row-sum
        # check (NaN comparisons are False), producing the misleading
        # "rows must be distributions" — or, for a NaN that summed
        # plausibly, reaching the solver. Non-finite entries must be
        # named as such.
        w = np.array([[0.9, 0.1], [bad, 0.5]])
        with pytest.raises(ValueError, match="non-finite"):
            timed_dmc_capacity(w, np.array([1.0, 1.0]))

    def test_rejects_bad_durations(self):
        w = binary_symmetric_channel(0.1).transition_matrix
        with pytest.raises(ValueError):
            timed_dmc_capacity(w, np.array([1.0]))
        with pytest.raises(ValueError):
            timed_dmc_capacity(w, np.array([1.0, 0.0]))


class TestStarvedBudget:
    def test_exhausted_budget_reports_a_certified_bracket(self):
        # Two iterations of the kernel cannot certify this channel: the
        # status says so, and the answer is still a finite bracket on
        # the capacity the full solve reports.
        w = z_channel(0.2).transition_matrix
        tau = np.array([1.0, 2.0])
        [r] = blahut_arimoto_batch(w, durations=tau, max_iter=2).unbatch()
        assert r.status is SolverStatus.MAX_ITER
        assert np.isfinite(r.gap) and r.gap > 1e-10
        full = timed_dmc_capacity(w, tau)
        assert r.capacity <= full.capacity + full.gap
        assert full.capacity <= r.capacity + r.gap


class TestKernelInnerSolve:
    """The solve is one ``durations`` call of the one Blahut-Arimoto
    kernel."""

    def test_solver_stage_is_not_double_counted(self):
        from repro.numerics import collect_stage_timings

        w = z_channel(0.2).transition_matrix
        with collect_stage_timings() as totals:
            start = time.perf_counter()
            timed_dmc_capacity(w, np.array([1.0, 2.0]))
            wall = time.perf_counter() - start
        assert 0.0 < totals["solver"] <= wall

    def test_warm_store_replays_the_status(self, tmp_path):
        from repro.store import ResultStore, use_store

        # Draw 274 ends stalled at the default budget.
        w, tau = DRAWS[274]
        with use_store(ResultStore(tmp_path / "store")):
            with collect_solver_statuses() as cold:
                timed_dmc_capacity(w, tau)
            with collect_solver_statuses() as warm:
                timed_dmc_capacity(w, tau)
        assert dict(cold) == {"timed_dmc:stalled": 1}
        assert dict(warm) == dict(cold)


def random_timed_dmcs(seed, count):
    """Random timed DMCs, 2-5 inputs and outputs, cycling through three
    regimes: structural zeros, near-deterministic rows, dense rows."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        nx, ny = rng.integers(2, 6), rng.integers(2, 6)
        w = rng.random((nx, ny))
        if i % 3 == 0:
            w[rng.random((nx, ny)) < 0.4] = 0
            w[:, 0] += 1e-3
        if i % 3 == 1:
            w *= 1e-6
            w[np.arange(nx), rng.integers(0, ny, nx)] = 1.0
        w /= w.sum(axis=1, keepdims=True)
        yield w, 1.0 + 4 * rng.random(nx)


DRAWS = list(random_timed_dmcs(7, 300))


def assert_matches_oracle(w, tau):
    """The kernel-backed solve ends on the scalar oracle's iterate,
    iteration count and status, bit for bit; returns the solve."""
    oracle = reference_blahut_arimoto(w, durations=tau)
    result = timed_dmc_capacity(w, tau)
    assert result.capacity == oracle.capacity
    np.testing.assert_array_equal(
        result.input_distribution, oracle.input_distribution
    )
    assert (result.iterations, result.status) == (
        oracle.iterations,
        oracle.status,
    )
    return result


class TestOracleParity:
    """The kernel-backed solve against the scalar oracle given the same
    durations."""

    @pytest.mark.parametrize("draw", (41, 87, 125, 203))
    def test_bitwise_equal_where_inner_solves_converge(self, draw):
        assert_matches_oracle(*DRAWS[draw])

    def test_gap_kink_draw_is_certified(self):
        # Draw 1's single-iterate gap reaches an early best and then
        # rises while the lower end keeps rising. A solve that took that
        # early best for a stall would stop long before the width
        # reached tol; this one matches the oracle and is certified.
        result = assert_matches_oracle(*DRAWS[1])
        assert result.status is SolverStatus.CONVERGED
        assert result.gap <= 1e-10
        assert result.iterations == 50


#: C* where a tight solve is slow or cannot close the bracket.
#: Draw 98: a 95,452-iteration solve (tol 0) stalls at width 7e-15; in
#: 40-digit mpmath its iterate has I/T = 0.024366197036088 and dual end
#: max_x D(W_x || q)/tau_x = 0.0243661970360955.
#: Draw 274: the optimum lies on the face p_3 = 0; a 40-digit mpmath
#: golden-section search of I/T over each pair of inputs (two outputs,
#: so two inputs suffice) gives 5.49781183960721e-8.
PINNED_OPTIMA = {98: 0.02436619703609, 274: 5.49781183960721e-8}


class TestTimedCertificate:
    """Every exit of ``timed_dmc_capacity`` is certified: the capacity
    C* lies in ``[capacity, capacity + gap]`` on every status, and the
    solve is converged exactly when ``gap <= tol``. C* is bracketed by a
    tol-1e-14 solve of the same channel, itself certified the same way,
    or pinned (``PINNED_OPTIMA``). At the default budget draws 98 and
    274 end unconverged (max_iter and stalled): their optima sit on or
    near the boundary of the simplex, where every multiplicative step
    is slow."""

    @pytest.mark.parametrize("draw", [*range(24), 98, 274])
    def test_every_status_brackets_the_capacity(self, draw):
        w, tau = DRAWS[draw]
        result = timed_dmc_capacity(w, tau)
        assert (result.status is SolverStatus.CONVERGED) == (result.gap <= 1e-10)
        if draw in PINNED_OPTIMA:
            low = high = PINNED_OPTIMA[draw]
        else:
            [tight] = blahut_arimoto_batch(
                w, durations=tau, tol=1e-14, max_iter=20_000
            ).unbatch()
            low, high = tight.capacity, tight.capacity + tight.gap
        assert result.capacity <= high + 1e-14
        assert low <= result.capacity + result.gap + 1e-14
