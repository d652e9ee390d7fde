"""General timed-DMC capacity (Dinkelbach + penalized Blahut-Arimoto)."""

import time

import numpy as np
import pytest

from repro.infotheory.channels import binary_symmetric_channel, z_channel
from repro.infotheory.entropy import binary_entropy, mutual_information
from repro.infotheory.noiseless import noiseless_capacity_per_second
from repro.numerics import IterationGuard, SolverStatus
from repro.timing.timed_dmc import INNER_TOL, timed_dmc_capacity
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


class TestInnerConvergenceSurfacing:
    def test_healthy_solve_reports_inner_converged(self):
        w = z_channel(0.2).transition_matrix
        r = timed_dmc_capacity(w, np.array([1.0, 2.0]))
        assert r.inner_converged is True
        assert r.diagnostics is not None
        assert not any(
            "unconverged_inner" in note for note in r.diagnostics.notes
        )

    def test_exhausted_inner_budget_is_not_silent(self):
        # Regression: the inner penalized solve used to hit max_iter
        # and hand its last iterate to the outer Dinkelbach loop with
        # no trace. It must now be visible on the result.
        from repro.numerics import collect_solver_statuses
        from repro.timing.timed_dmc import INNER_SOLVER

        w = z_channel(0.2).transition_matrix
        with collect_solver_statuses() as statuses:
            r = timed_dmc_capacity(
                w, np.array([1.0, 2.0]), inner_max_iter=2
            )
        assert r.inner_converged is False
        assert any(
            "unconverged_inner_solves=" in note
            for note in r.diagnostics.notes
        )
        assert statuses[f"{INNER_SOLVER}:max_iter"] >= 1
        # The answer is still finite and sane — degraded, not garbage.
        assert np.isfinite(r.capacity) and r.capacity >= 0.0


class TestKernelInnerSolve:
    """The inner penalized solve is a ``penalties`` call of the one
    Blahut-Arimoto kernel."""

    def test_solver_stage_is_not_double_counted(self):
        from repro.numerics import collect_stage_timings

        w = z_channel(0.2).transition_matrix
        with collect_stage_timings() as totals:
            start = time.perf_counter()
            timed_dmc_capacity(w, np.array([1.0, 2.0]))
            wall = time.perf_counter() - start
        assert 0.0 < totals["solver"] <= wall

    def test_warm_store_replays_every_inner_status(self, tmp_path):
        from repro.numerics import collect_solver_statuses
        from repro.store import ResultStore, use_store
        from repro.timing.timed_dmc import INNER_SOLVER

        w = z_channel(0.2).transition_matrix
        tau = np.array([1.0, 2.0])
        with use_store(ResultStore(tmp_path / "store")):
            with collect_solver_statuses() as cold:
                r = timed_dmc_capacity(w, tau, inner_max_iter=2)
            with collect_solver_statuses() as warm:
                timed_dmc_capacity(w, tau, inner_max_iter=2)
        assert len(r.inner_statuses) > 1
        assert cold[f"{INNER_SOLVER}:max_iter"] == len(r.inner_statuses)
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


def reference_timed_dmc(w, tau, *, tol=1e-10, max_outer=100, inner_max_iter=5000):
    """``timed_dmc_capacity``'s Dinkelbach loop over the scalar
    penalized oracle: ``(capacity, p, every inner solve converged)``."""
    lam = 0.0
    guard = IterationGuard("timed_dmc", max_iter=max_outer, tol=tol, stall_window=20)
    status = None
    inner_converged = True
    while status is None:
        inner = reference_blahut_arimoto(
            w, penalties=lam * tau, tol=INNER_TOL, max_iter=inner_max_iter
        )
        p = inner.input_distribution
        inner_converged &= inner.converged
        new_lam = mutual_information(p, w) / float(p @ tau)
        status = guard.update(abs(new_lam - lam), value=(new_lam, p))
        lam = new_lam
    if status is not SolverStatus.CONVERGED:
        lam, p = guard.best_value
    return lam, p, inner_converged


class TestOracleParity:
    """The kernel-backed solve against the same Dinkelbach loop over the
    scalar penalized oracle. Draw 1 of ``random_timed_dmcs(7, 300)`` has
    an inner solve whose single-iterate gap reaches its best at step 7
    and stays above it for the other 4,993 steps of its budget, far
    longer than the kernel's stall window, while its lower end keeps
    rising."""

    @pytest.mark.parametrize("draw", (41, 87, 125, 203))
    def test_bitwise_equal_where_inner_solves_converge(self, draw):
        w, tau = list(random_timed_dmcs(7, draw + 1))[draw]
        capacity, p, inner_converged = reference_timed_dmc(w, tau)
        result = timed_dmc_capacity(w, tau)
        assert inner_converged and result.inner_converged
        assert result.capacity == capacity
        np.testing.assert_array_equal(result.input_distribution, p)

    def test_gap_kink_runs_to_the_inner_budget(self):
        # The oracle's inner solves end at max_iter; the kernel's must
        # not stop early as stalled on an early best-gap iterate.
        w, tau = list(random_timed_dmcs(7, 2))[1]
        capacity, _p, inner_converged = reference_timed_dmc(w, tau)
        result = timed_dmc_capacity(w, tau)
        assert not inner_converged
        assert set(result.inner_statuses) == {SolverStatus.MAX_ITER}
        assert abs(result.capacity - capacity) <= 1e-9
