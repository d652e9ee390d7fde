"""Guarded Blahut-Arimoto behaviour: input validation, initial-input
smoothing policy, and the degradation ladder over channel stacks."""

import numpy as np
import pytest

from repro.experiments.e16_extreme_regimes import extreme_grid
from repro.infotheory import (
    binary_symmetric_channel,
    blahut_arimoto,
    blahut_arimoto_guarded,
    mutual_information,
    z_channel,
)
from repro.numerics import SolverStatus, collect_solver_statuses
from repro.store import ResultStore, use_store

from .oracles import reference_blahut_arimoto_guarded

BSC = binary_symmetric_channel(0.1).transition_matrix
#: Needs the full ladder at ``max_iter=300``: the plain and 0.5-damped
#: solves do not converge, the relaxed 0.9-damped rung does.
Z_LIMIT = z_channel(1.0 - 1e-8).transition_matrix


class TestInputValidation:
    def test_non_finite_transition_rejected_explicitly(self):
        w = np.array([[0.5, 0.5], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            blahut_arimoto(w)
        w_inf = np.array([[0.5, 0.5], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            blahut_arimoto(w_inf)

    def test_damping_domain(self):
        with pytest.raises(ValueError, match="damping"):
            blahut_arimoto(BSC, damping=1.0)
        with pytest.raises(ValueError, match="damping"):
            blahut_arimoto(BSC, damping=-0.1)
        assert blahut_arimoto(BSC, damping=0.5).converged


class TestInitialInputPolicy:
    def test_zero_entries_are_smoothed_and_recover(self):
        # A [1, 0] start point is absorbing under the plain
        # multiplicative update; smoothing must let it reach capacity.
        result = blahut_arimoto(BSC, initial_input=np.array([1.0, 0.0]))
        assert result.converged
        exact = 1.0 - (-0.1 * np.log2(0.1) - 0.9 * np.log2(0.9))
        assert result.capacity == pytest.approx(exact, abs=1e-8)
        assert result.input_distribution == pytest.approx([0.5, 0.5], abs=1e-4)

    def test_strictly_positive_start_used_exactly(self):
        # With max_iter=1 the reported lower bound is I(p0, W) for the
        # *given* p0 — any smoothing of a strictly positive start would
        # perturb it.
        p0 = np.array([0.3, 0.7])
        result = blahut_arimoto(BSC, initial_input=p0, max_iter=1)
        assert result.capacity == pytest.approx(
            mutual_information(p0, BSC), abs=1e-12
        )

    def test_invalid_initial_input(self):
        with pytest.raises(ValueError, match="shape"):
            blahut_arimoto(BSC, initial_input=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="distribution"):
            blahut_arimoto(BSC, initial_input=np.array([0.6, 0.6]))
        with pytest.raises(ValueError, match="distribution"):
            blahut_arimoto(BSC, initial_input=np.array([1.5, -0.5]))


class TestGuardedLadder:
    def test_nominal_channel_converges_without_retries(self):
        [result] = blahut_arimoto_guarded(BSC)
        assert result.converged
        assert result.status is SolverStatus.CONVERGED
        assert result.diagnostics is not None
        assert result.diagnostics.retries == 0

    def test_result_matches_plain_solver_on_nominal_channel(self):
        plain = blahut_arimoto(BSC)
        [guarded] = blahut_arimoto_guarded(BSC)
        assert guarded.capacity == pytest.approx(plain.capacity, abs=1e-12)
        assert guarded.iterations == plain.iterations

    def test_status_recorded_for_collector(self):
        with collect_solver_statuses() as counts:
            blahut_arimoto_guarded(BSC)
        assert counts == {"blahut_arimoto:converged": 1}

    def test_diagnostics_describe_names_the_solver(self):
        result = blahut_arimoto(BSC)
        assert "blahut_arimoto" in result.diagnostics.describe()

    def test_stack_gives_one_result_and_one_status_per_channel(self):
        stack = np.stack([BSC, Z_LIMIT, BSC])
        with collect_solver_statuses() as counts:
            results = blahut_arimoto_guarded(stack, max_iter=300)
        assert [r.status for r in results] == [SolverStatus.CONVERGED] * 3
        assert [r.diagnostics.retries for r in results] == [0, 2, 0]
        assert counts == {"blahut_arimoto:converged": 3}
        # Stack-mates do not change a channel's answer.
        [alone] = blahut_arimoto_guarded(Z_LIMIT, max_iter=300)
        assert results[1].capacity == alone.capacity
        assert results[1].iterations == alone.iterations

    def test_per_channel_initial_input_reaches_every_rung(self):
        stack = np.stack([BSC, Z_LIMIT])
        init = np.array([[0.2, 0.8], [0.3, 0.7]])
        results = blahut_arimoto_guarded(stack, max_iter=300, initial_input=init)
        for w, p0, result in zip(stack, init, results):
            oracle = reference_blahut_arimoto_guarded(
                w, max_iter=300, initial_input=p0
            )
            assert result.status is oracle.status
            assert result.iterations == oracle.iterations
            assert result.diagnostics.retries == oracle.diagnostics.retries
            assert abs(result.capacity - oracle.capacity) < 1e-12

    def test_stacked_ladder_matches_per_channel_oracle_on_e16_grid(self):
        """E16's grid, one guarded call per shape, against one scalar
        ladder per channel: same status, iterations and retries."""
        matrices = [factory() for _r, _pd, factory, _c in extreme_grid()]
        shapes = {m.shape for m in matrices}
        for shape in shapes:
            stack = np.stack([m for m in matrices if m.shape == shape])
            results = blahut_arimoto_guarded(stack)
            for w, result in zip(stack, results):
                oracle = reference_blahut_arimoto_guarded(w)
                assert result.status is oracle.status
                assert result.iterations == oracle.iterations
                assert result.diagnostics.retries == oracle.diagnostics.retries
                assert abs(result.capacity - oracle.capacity) < 1e-12
                assert abs(result.gap - oracle.gap) < 1e-12

    def test_warm_call_replays_every_channel_status(self, tmp_path):
        stack = np.stack([BSC, Z_LIMIT])
        with use_store(ResultStore(tmp_path / "cache")):
            with collect_solver_statuses() as cold:
                blahut_arimoto_guarded(stack, max_iter=300)
            with collect_solver_statuses() as warm:
                blahut_arimoto_guarded(stack, max_iter=300)
        assert sum(cold.values()) == 2
        assert warm == cold


class TestZChannelLimit:
    """E16's Z-channel rows at ``P_d -> 1``. The plain step ran the
    whole 10,000-iteration budget on the ladder's first rungs there;
    the safeguarded step converges on the first rung, to the exact
    capacity."""

    PDS = (0.999, 1.0 - 1e-6, 1.0 - 1e-9)

    def test_converges_on_the_first_rung(self):
        rows = [
            (factory(), exact)
            for regime, pd, factory, exact in extreme_grid()
            if regime == "z" and pd in self.PDS
        ]
        assert len(rows) == len(self.PDS)
        results = blahut_arimoto_guarded(np.stack([w for w, _c in rows]))
        for (_w, exact), result in zip(rows, results):
            assert result.status is SolverStatus.CONVERGED
            assert result.diagnostics.retries == 0
            assert abs(result.capacity - exact) <= 1e-9
