"""Grid sweeps: the only finite-block path in ``repro.bounds``.

Every table builder must reproduce the test-side scalar oracle in
``tests/bounds/oracles.py`` (bitwise for deletion, to 1e-15 for indel),
and a point's answer must not depend on the grid it is solved in: a
one-element sweep matches the same point inside a larger batched grid
to 1e-12.
"""

import numpy as np
import pytest

from repro.bounds import (
    block_bound_sweep,
    deletion_block_transition_stack,
    indel_block_bound_sweep,
    indel_block_transition_stack,
    optimize_markov_input_sweep,
)
from repro.infotheory.kernels import blahut_arimoto_batch

from .oracles import exact_block_transition, indel_block_transition

PARITY = 1e-12

PDS = (0.05, 0.15, 0.3, 0.5)
INDEL_GRID = ((0.05, 0.02), (0.15, 0.05), (0.3, 0.1))


class TestDeletionStack:
    def test_stack_matches_scalar_tables(self):
        stack, groups = deletion_block_transition_stack(4, PDS)
        assert stack.shape[0] == len(PDS)
        for i, pd in enumerate(PDS):
            table, scalar_groups = exact_block_transition(4, pd)
            np.testing.assert_array_equal(stack[i], table)
            assert len(groups) == len(scalar_groups)

    def test_sweep_matches_scalar_bounds(self):
        sweep = block_bound_sweep(PDS, block_length=4)
        stack, _groups = deletion_block_transition_stack(4, PDS)
        grid = blahut_arimoto_batch(stack, tol=1e-9).capacity
        for i, (pd, row) in enumerate(zip(PDS, sweep)):
            [single] = block_bound_sweep([pd], block_length=4)
            assert abs(row.lower_bound - single.lower_bound) < PARITY
            alone = blahut_arimoto_batch(stack[i : i + 1], tol=1e-9).capacity[0]
            assert abs(grid[i] - alone) < PARITY
            assert row.status is single.status

    def test_empty_grid_is_empty_sweep(self):
        assert block_bound_sweep([], block_length=4) == []

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    @pytest.mark.parametrize(
        "solve",
        [
            lambda pds: deletion_block_transition_stack(4, pds),
            lambda pds: block_bound_sweep(pds, block_length=4),
            lambda pds: optimize_markov_input_sweep(4, pds),
        ],
        ids=["stack", "block_bound_sweep", "markov_sweep"],
    )
    def test_rejects_out_of_range_deletion_prob(self, solve, bad):
        with pytest.raises(ValueError, match=r"deletion_prob must be in \[0, 1\]"):
            solve([0.2, bad])


class TestIndelStack:
    def test_stack_matches_scalar_tables(self):
        stack, groups = indel_block_transition_stack(3, INDEL_GRID, max_extra=2)
        tails = stack[:, :, -1].max(axis=1)
        assert stack.shape[0] == len(INDEL_GRID)
        for i, (pd, pi) in enumerate(INDEL_GRID):
            table, scalar_groups, tail = indel_block_transition(
                3, pd, pi, max_extra=2
            )
            np.testing.assert_allclose(stack[i], table, atol=1e-15)
            assert abs(tails[i] - tail) < 1e-15
            assert len(groups) == len(scalar_groups)

    def test_sweep_matches_scalar_bounds(self):
        sweep = indel_block_bound_sweep(
            INDEL_GRID, block_length=3, max_extra=2
        )
        stack, _groups = indel_block_transition_stack(3, INDEL_GRID, max_extra=2)
        tails = stack[:, :, -1].max(axis=1)
        grid = blahut_arimoto_batch(stack, tol=1e-9).capacity
        for i, (point, row) in enumerate(zip(INDEL_GRID, sweep)):
            [single] = indel_block_bound_sweep(
                [point], block_length=3, max_extra=2
            )
            assert abs(row.lower_bound - single.lower_bound) < PARITY
            alone, _g = indel_block_transition_stack(3, [point], max_extra=2)
            assert abs(grid[i] - blahut_arimoto_batch(alone, tol=1e-9).capacity[0]) < PARITY
            assert abs(tails[i] - alone[0, :, -1].max()) < 1e-15
            assert row.erasure_upper == single.erasure_upper
            assert row.status is single.status

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="non-empty"):
            indel_block_transition_stack(3, [])
        with pytest.raises(ValueError, match="out of range"):
            indel_block_transition_stack(3, [(1.2, 0.0)])
        with pytest.raises(ValueError, match="exceed 1"):
            indel_block_transition_stack(3, [(0.7, 0.6)])


class TestMarkovSweep:
    def test_sweep_matches_scalar_optimization(self):
        pds = (0.1, 0.3)
        sweep = optimize_markov_input_sweep(4, pds)
        for pd, bound in zip(pds, sweep):
            assert optimize_markov_input_sweep(4, [pd]) == [bound]
