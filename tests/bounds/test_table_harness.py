"""Generated-input harness for the finite-block table builders.

Small random grids (n <= 4, max_extra <= 2, 1-4 points, with the edges
P_d = 0, P_d = 1, P_i = 0 and P_d + P_i = 1 drawn on purpose) are
pushed through every equivalence the stack builders claim:

* each stack against its test-side scalar oracle — bitwise for the
  deletion table, to 1e-15 for the indel DP;
* the indel table at P_i = 0, max_extra = 0 against the deletion table;
* at P_d = 0, the indel overflow column against the NegativeBinomial
  insertion tail;
* every row of every table sums to 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import deletion_block_transition_stack, indel_block_transition_stack

from .oracles import exact_block_transition, indel_block_transition, insertion_tail_mass

HARNESS = settings(max_examples=100, derandomize=True, deadline=None)

def _max_insertion(pd):
    """The largest P_i the channel allows: P_d + P_i <= 1 and P_i < 1."""
    pi = 1.0 - pd
    while pd + pi > 1.0 or pi >= 1.0:
        pi = float(np.nextafter(pi, 0.0))
    return pi


# Edges, grid-style decimals such as 0.05 (as sweeps use), and raw floats.
_probability = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.integers(0, 100).map(lambda k: k / 100),
    st.floats(0.0, 1.0),
)
_insertion = st.one_of(st.just(0.0), st.floats(0.0, _max_insertion(0.0)))


@st.composite
def _indel_point(draw):
    pd = draw(_probability)
    top = _max_insertion(pd)
    pi = draw(st.one_of(st.sampled_from([0.0, top]), st.floats(0.0, top)))
    return pd, pi


_block = st.integers(min_value=1, max_value=4)
_extra = st.integers(min_value=0, max_value=2)
_pd_grid = st.lists(_probability, min_size=1, max_size=4)
_indel_grid = st.lists(_indel_point(), min_size=1, max_size=4)


@HARNESS
@given(n=_block, pds=_pd_grid)
def test_deletion_stack_is_the_scalar_oracle_bitwise(n, pds):
    stack, groups = deletion_block_transition_stack(n, pds)
    assert stack.shape[0] == len(pds)
    for i, pd in enumerate(pds):
        table, oracle_groups = exact_block_transition(n, pd)
        np.testing.assert_array_equal(stack[i], table)
        assert len(groups) == len(oracle_groups)
    np.testing.assert_allclose(stack.sum(axis=2), 1.0, rtol=0, atol=1e-12)


@HARNESS
@given(n=_block, max_extra=_extra, grid=_indel_grid)
def test_indel_stack_matches_the_scalar_oracle(n, max_extra, grid):
    stack, groups = indel_block_transition_stack(n, grid, max_extra=max_extra)
    tails = stack[:, :, -1].max(axis=1)
    assert stack.shape[0] == len(grid)
    for i, (pd, pi) in enumerate(grid):
        table, oracle_groups, tail = indel_block_transition(
            n, pd, pi, max_extra=max_extra
        )
        np.testing.assert_allclose(stack[i], table, rtol=0, atol=1e-15)
        assert abs(tails[i] - tail) <= 1e-15
        assert len(groups) == len(oracle_groups)
    np.testing.assert_allclose(stack.sum(axis=2), 1.0, rtol=0, atol=1e-12)


@HARNESS
@given(n=_block, pds=_pd_grid)
def test_indel_without_insertions_is_the_deletion_table(n, pds):
    indel, _groups = indel_block_transition_stack(
        n, [(pd, 0.0) for pd in pds], max_extra=0
    )
    tails = indel[:, :, -1].max(axis=1)
    deletion, _ = deletion_block_transition_stack(n, pds)
    np.testing.assert_allclose(indel[:, :, :-1], deletion, rtol=1e-12, atol=1e-15)
    assert np.all(tails <= 1e-15)


@HARNESS
@given(
    n=_block,
    max_extra=_extra,
    pis=st.lists(_insertion, min_size=1, max_size=4),
)
def test_insertion_only_overflow_is_the_negative_binomial_tail(n, max_extra, pis):
    stack, _groups = indel_block_transition_stack(
        n, [(0.0, pi) for pi in pis], max_extra=max_extra
    )
    tails = stack[:, :, -1].max(axis=1)
    for i, pi in enumerate(pis):
        expected = insertion_tail_mass(n, pi, max_extra)
        # Every input row truncates the same insertion count.
        np.testing.assert_allclose(stack[i][:, -1], expected, rtol=0, atol=1e-14)
        assert abs(tails[i] - expected) <= 1e-14
