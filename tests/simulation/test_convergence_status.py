"""Sequential Monte-Carlo: zero-mean relative-width fallback and the
solver-status view of a run (satellite of the guarded-numerics PR)."""

import pytest

from repro.numerics import SolverStatus, collect_solver_statuses
from tests.simulation.convergence import run_until_precise


def alternating_trial():
    """Trial returning exactly +1, -1, +1, ... so the running mean is
    exactly 0.0 whenever the CI is checked (batch-aligned even counts)."""
    calls = []

    def trial(rng):
        calls.append(None)
        return 1.0 if len(calls) % 2 else -1.0

    return trial


class TestZeroMeanFallback:
    def test_relative_only_runs_to_cap(self):
        # A zero mean makes the relative criterion unsatisfiable; with
        # no absolute criterion the run must draw until the cap and say
        # so honestly.
        result = run_until_precise(
            alternating_trial(),
            rel_half_width=0.5,
            min_replications=8,
            max_replications=32,
            batch=8,
        )
        assert result.replications == 32
        assert not result.reached_target
        assert result.status is SolverStatus.MAX_ITER
        assert result.estimate == pytest.approx(0.0, abs=1e-12)

    def test_falls_back_to_absolute_criterion_when_given(self):
        result = run_until_precise(
            alternating_trial(),
            rel_half_width=0.5,
            abs_half_width=2.0,  # loose: satisfied at the first check
            min_replications=8,
            max_replications=64,
            batch=8,
        )
        assert result.reached_target
        assert result.replications == 8
        assert result.status is SolverStatus.CONVERGED

    def test_neither_criterion_raises(self):
        with pytest.raises(ValueError, match="abs_half_width"):
            run_until_precise(alternating_trial())


class TestStatusSurface:
    def test_status_property_mirrors_reached_target(self):
        hit = run_until_precise(
            lambda rng: 5.0, abs_half_width=0.1, max_replications=64
        )
        assert hit.reached_target
        assert hit.status is SolverStatus.CONVERGED
        miss = run_until_precise(
            lambda rng: float(rng.random()),
            abs_half_width=1e-12,
            min_replications=8,
            max_replications=16,
        )
        assert not miss.reached_target
        assert miss.status is SolverStatus.MAX_ITER

    def test_terminal_status_recorded_with_collector(self):
        with collect_solver_statuses() as counts:
            run_until_precise(
                lambda rng: 5.0, abs_half_width=0.1, max_replications=64
            )
            run_until_precise(
                lambda rng: float(rng.random()),
                abs_half_width=1e-12,
                min_replications=8,
                max_replications=16,
            )
        assert counts == {
            "sequential_mc:converged": 1,
            "sequential_mc:max_iter": 1,
        }
