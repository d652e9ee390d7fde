"""Guarded Blahut-Arimoto behaviour: input validation and honest
statuses on E16's extreme grid."""

import numpy as np
import pytest

from repro.experiments import e16_extreme_regimes, run_experiment
from repro.experiments.e16_extreme_regimes import extreme_grid
from repro.infotheory import blahut_arimoto, blahut_arimoto_batch
from repro.numerics import SolverStatus

from .oracles import reference_blahut_arimoto


class TestInputValidation:
    def test_non_finite_transition_rejected_explicitly(self):
        w = np.array([[0.5, 0.5], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            blahut_arimoto(w)
        w_inf = np.array([[0.5, 0.5], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            blahut_arimoto(w_inf)


class TestE16Grid:
    def test_stacked_kernel_matches_per_channel_oracle(self):
        """E16's grid, one batched call per shape, against one scalar
        oracle solve per channel: same status, iterations, capacity and
        gap."""
        matrices = [factory() for _r, _pd, factory, _c in extreme_grid()]
        shapes = {m.shape for m in matrices}
        for shape in shapes:
            stack = np.stack([m for m in matrices if m.shape == shape])
            results = blahut_arimoto_batch(stack).unbatch()
            for w, result in zip(stack, results):
                oracle = reference_blahut_arimoto(w)
                assert result.status is oracle.status
                assert result.iterations == oracle.iterations
                assert abs(result.capacity - oracle.capacity) < 1e-12
                assert abs(result.gap - oracle.gap) < 1e-12

    def test_converged_rows_are_within_tol(self, monkeypatch):
        # On a 50-iteration budget the Z rows at P_d = 0.999, 1 - 1e-6
        # and 1 - 1e-9 end max_iter. A converged label on any of them
        # would claim a bracket wider than the tol the caller asked for.
        tol = e16_extreme_regimes.TOL
        monkeypatch.setattr(e16_extreme_regimes, "MAX_ITER", 50)
        result = run_experiment("E16")
        assert result.passed, result.summary()
        statuses = [row["status"] for row in result.rows]
        assert SolverStatus.MAX_ITER.value in statuses
        for row in result.rows:
            converged = row["status"] == SolverStatus.CONVERGED.value
            assert converged == (row["gap"] <= tol), row


class TestZChannelLimit:
    """E16's Z-channel rows at ``P_d -> 1``. The plain step ran the
    whole 10,000-iteration budget there; the safeguarded step converges
    on the first (and only) solve, to the exact capacity."""

    PDS = (0.999, 1.0 - 1e-6, 1.0 - 1e-9)

    def test_converges_on_the_first_rung(self):
        rows = [
            (factory(), exact)
            for regime, pd, factory, exact in extreme_grid()
            if regime == "z" and pd in self.PDS
        ]
        assert len(rows) == len(self.PDS)
        results = blahut_arimoto_batch(np.stack([w for w, _c in rows])).unbatch()
        for (_w, exact), result in zip(rows, results):
            assert result.status is SolverStatus.CONVERGED
            assert abs(result.capacity - exact) <= 1e-9
