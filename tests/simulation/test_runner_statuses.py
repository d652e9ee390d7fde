"""ExperimentRunner surfaces guarded-solver statuses from inside trials
(satellite of the guarded-numerics PR)."""

import numpy as np

from repro.bounds.deletion import block_bound_sweep
from repro.numerics import SolverStatus, record_status
from repro.simulation.runner import ExperimentRunner


class TestSolverStatusSurface:
    def test_statuses_aggregate_across_replications(self):
        def trial(rng):
            record_status("toy_solver", SolverStatus.CONVERGED)
            if rng.random() < 2.0:  # every replication
                record_status("toy_solver", SolverStatus.STALLED)
            return {"value": float(rng.random())}

        runner = ExperimentRunner(replications=4)
        result = runner.run(trial)
        assert result.solver_statuses == {
            "toy_solver:converged": 4,
            "toy_solver:stalled": 4,
        }

    def test_real_guarded_solver_statuses_surface(self):
        def trial(rng):
            [point] = block_bound_sweep([0.1], block_length=3)
            return {"lower": point.lower_bound}

        result = ExperimentRunner(replications=3).run(trial)
        assert result.solver_statuses == {"blahut_arimoto_batch:converged": 3}
        assert result["lower"].mean > 0.0

    def test_failed_execution_contributes_no_counts(self):
        calls = []

        def trial(rng):
            record_status("toy_solver", SolverStatus.CONVERGED)
            calls.append(None)
            if len(calls) == 1:  # first execution crashes after recording
                raise RuntimeError("boom")
            return {"value": 1.0}

        runner = ExperimentRunner(replications=3, max_trial_retries=1)
        result = runner.run(trial)
        # 4 executions ran (1 failed + 3 successful); only the
        # successful ones contribute status counts.
        assert len(calls) == 4
        assert result.solver_statuses == {"toy_solver:converged": 3}
        assert len(result.failures) == 1

    def test_no_guarded_solves_means_empty_mapping(self):
        result = ExperimentRunner(replications=2).run(
            lambda rng: {"value": float(rng.random())}
        )
        assert result.solver_statuses == {}

    def test_counts_are_plain_ints(self):
        def trial(rng):
            record_status("s", SolverStatus.ABORTED)
            return {"value": 0.0}

        result = ExperimentRunner(replications=2).run(trial)
        assert all(
            isinstance(v, int) and not isinstance(v, np.bool_)
            for v in result.solver_statuses.values()
        )
