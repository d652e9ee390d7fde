"""Capacity optimizer: projection, convergence, determinism, caching."""

import numpy as np
import pytest

from repro.estimation import (
    DMCSampler,
    bsc_sampler,
    estimate_sample_capacity,
    mary_sampler,
    project_to_simplex,
)
from repro.estimation.optimize import ESTIMATE_FN_ID, SOLVER_NAME
from repro.infotheory.blahut_arimoto import blahut_arimoto
from repro.numerics import (
    SolverStatus,
    collect_solver_statuses,
    collect_stage_timings,
    collect_store_events,
)
from repro.store import ResultStore, use_store


class TestSimplexProjection:
    def test_already_on_simplex_is_fixed_point(self):
        p = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_simplex(p), p)

    @pytest.mark.parametrize("floor", [0.0, 0.01, 0.1])
    def test_projection_is_feasible(self, floor):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=5) * 3
            p = project_to_simplex(v, floor)
            assert p.sum() == pytest.approx(1.0)
            assert np.all(p >= floor - 1e-12)

    def test_projection_minimizes_distance(self):
        # Compare against a dense grid on the 2-simplex.
        v = np.array([0.9, 0.4, -0.1])
        p = project_to_simplex(v)
        grid = [
            np.array([a, b, 1 - a - b])
            for a in np.linspace(0, 1, 101)
            for b in np.linspace(0, 1 - a, max(2, int((1 - a) * 100) + 1))
        ]
        best = min(grid, key=lambda q: float(np.sum((q - v) ** 2)))
        assert np.sum((p - v) ** 2) <= np.sum((best - v) ** 2) + 1e-6

    def test_infeasible_floor_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            project_to_simplex(np.ones(4), floor=0.3)


class TestEstimateAgainstBlahutArimoto:
    """The tier-1 agreement gate, asserted at the API level (E17
    asserts it again at the experiment level)."""

    def test_bsc_within_gate_at_4096(self):
        sampler = bsc_sampler(0.1)
        exact = blahut_arimoto(np.asarray(sampler.transition))
        result = estimate_sample_capacity(sampler, n_samples=4096, seed=0)
        assert abs(result.capacity - exact.capacity) <= 0.05

    def test_four_symbol_within_gate_at_4096(self):
        rows = (
            (0.85, 0.05, 0.05, 0.05),
            (0.05, 0.85, 0.05, 0.05),
            (0.05, 0.05, 0.85, 0.05),
            (0.10, 0.10, 0.40, 0.40),
        )
        exact = blahut_arimoto(np.asarray(rows))
        result = estimate_sample_capacity(
            DMCSampler(rows), n_samples=4096, seed=0
        )
        assert abs(result.capacity - exact.capacity) <= 0.05
        # The optimizer must also have moved toward BA's maximizer:
        # the skewed fourth symbol gets down-weighted.
        assert result.input_distribution[3] < 0.15

    def test_noiseless_4ary_near_two_bits(self):
        result = estimate_sample_capacity(
            mary_sampler(4), n_samples=2048, seed=1
        )
        assert result.capacity == pytest.approx(2.0, abs=0.05)
        assert result.mean_time == pytest.approx(1.0)


class TestDeterminismAndDiagnostics:
    def test_repeat_runs_bit_identical(self):
        sampler = bsc_sampler(0.2)
        a = estimate_sample_capacity(sampler, n_samples=1024, seed=7)
        b = estimate_sample_capacity(sampler, n_samples=1024, seed=7)
        assert a.capacity == b.capacity
        assert np.array_equal(a.input_distribution, b.input_distribution)
        assert a.split_estimates == b.split_estimates
        assert a.half_sample_mi == b.half_sample_mi

    def test_different_seed_different_draws(self):
        sampler = bsc_sampler(0.2)
        a = estimate_sample_capacity(sampler, n_samples=1024, seed=7)
        b = estimate_sample_capacity(sampler, n_samples=1024, seed=8)
        assert a.capacity != b.capacity  # same channel, fresh noise

    def test_status_recorded_and_diagnostics_noted(self):
        with collect_solver_statuses() as counts:
            result = estimate_sample_capacity(
                bsc_sampler(0.1), n_samples=1024, seed=0
            )
        key = f"{SOLVER_NAME}:{result.status.value}"
        assert counts.get(key) == 1
        notes = result.diagnostics.notes
        assert any(n.startswith("split_even=") for n in notes)
        assert any(n.startswith("split_odd=") for n in notes)
        assert any(n.startswith("half_sample_mi=") for n in notes)

    def test_split_fields_populated(self):
        result = estimate_sample_capacity(
            bsc_sampler(0.1), n_samples=1024, seed=0
        )
        even, odd = result.split_estimates
        assert np.isfinite(even) and np.isfinite(odd)
        assert result.split_spread == abs(even - odd)
        # Subsample variance at n=1024 is small but nonzero.
        assert 0 < result.split_spread < 0.2
        # Half-sample estimate exists and is in a sane range.
        assert np.isfinite(result.half_sample_mi)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            estimate_sample_capacity(mary_sampler(8), n_samples=128)


class TestStoreReplay:
    def test_warm_replay_hits_store_with_zero_optimizer_work(self, tmp_path):
        sampler = bsc_sampler(0.15)
        store = ResultStore(tmp_path)
        with use_store(store), collect_store_events() as events:
            cold = estimate_sample_capacity(sampler, n_samples=1024, seed=3)
            assert events == {f"{ESTIMATE_FN_ID}:miss": 1}
            with collect_stage_timings() as stages:
                with collect_solver_statuses() as counts:
                    warm = estimate_sample_capacity(
                        sampler, n_samples=1024, seed=3
                    )
        # Answered from the store: no optimize stage ran — zero
        # optimizer iterations paid — and the stored status replayed
        # into the collector exactly as the cold solve recorded it.
        assert events[f"{ESTIMATE_FN_ID}:hit"] == 1
        assert "estimation:optimize" not in stages
        assert counts == {f"{SOLVER_NAME}:{cold.status.value}": 1}
        assert warm.capacity == cold.capacity
        assert np.array_equal(
            warm.input_distribution, cold.input_distribution
        )
        assert warm.iterations == cold.iterations
        assert warm.status is cold.status or warm.status == cold.status

    def test_key_distinguishes_sampler_and_knobs(self, tmp_path):
        store = ResultStore(tmp_path)
        with use_store(store), collect_store_events() as events:
            estimate_sample_capacity(bsc_sampler(0.1), n_samples=1024)
            estimate_sample_capacity(bsc_sampler(0.2), n_samples=1024)
            estimate_sample_capacity(bsc_sampler(0.1), n_samples=2048)
        assert events == {f"{ESTIMATE_FN_ID}:miss": 3}

    def test_no_store_is_pure_passthrough(self):
        with collect_store_events() as events:
            result = estimate_sample_capacity(
                bsc_sampler(0.1), n_samples=1024, seed=0
            )
        assert events == {}
        assert isinstance(result.status, SolverStatus)
