"""The indel stack builder's prefix-tree DP is bitwise the per-length DP.

:func:`repro.bounds.indel_block_transition_stack` prices every output
length in one DP pass over the output prefix tree. Each table entry
goes through the same float operations, in the same order, as in a
separate ``(i, j)`` DP per output length
(:func:`tests.bounds.oracles.indel_block_transition_stack_per_length`),
so stack, output groups and tail masses must be equal, not merely
close — on generated grids that include the edges P_i = 0, P_d = 0 and
P_d + P_i = 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import indel_block_transition_stack

from .oracles import indel_block_transition_stack_per_length
from .test_table_harness import _indel_point


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    max_extra=st.integers(min_value=0, max_value=4),
    grid=st.lists(_indel_point(), min_size=1, max_size=5),
)
def test_prefix_tree_is_the_per_length_dp_bitwise(n, max_extra, grid):
    stack, groups = indel_block_transition_stack(n, grid, max_extra=max_extra)
    oracle_stack, oracle_groups, oracle_tails = (
        indel_block_transition_stack_per_length(n, grid, max_extra=max_extra)
    )
    assert np.array_equal(stack, oracle_stack)
    assert np.array_equal(stack[:, :, -1].max(axis=1), oracle_tails)
    assert len(groups) == len(oracle_groups) == n + max_extra + 1
    for ys, oracle_ys in zip(groups, oracle_groups):
        assert np.array_equal(ys, oracle_ys)
