"""Computed finite-block lower bounds against analytic upper bounds.

For the binary deletion channel, capacity is at most ``1 - d`` (the
erasure bound, Theorem 1) and, for ``d >= 1/2``, at most
``(1 - d) log2(phi)`` with ``phi`` the golden ratio (Cheraghchi; see the
survey of Cheraghchi and Ribeiro, arXiv:1910.07199). Every computed
lower bound must sit below both. For the joint deletion-insertion
channel the erasure bound still caps capacity (Duman, arXiv:1102.2216).
"""

import numpy as np
import pytest

from repro.bounds import block_bound_sweep, indel_block_bound_sweep

LOG2_PHI = float(np.log2((1.0 + np.sqrt(5.0)) / 2.0))
SLACK = 1e-12

PDS = np.linspace(0.0, 1.0, 25)


# n = 8 also holds on this grid, but its high-d points take ~1 min of
# Blahut-Arimoto iterations, too slow for the default suite.
@pytest.mark.parametrize("n", [4, 6])
def test_deletion_block_bound_below_analytic_upper_bounds(n):
    for d, result in zip(PDS, block_bound_sweep(PDS, block_length=n)):
        assert result.lower_bound <= 1.0 - d + SLACK
        if d >= 0.5:
            assert result.lower_bound <= (1.0 - d) * LOG2_PHI + SLACK


def test_indel_block_bound_below_erasure_bound():
    grid = [(d, i) for d in (0.0, 0.1, 0.3, 0.5, 0.8) for i in (0.0, 0.05, 0.2)]
    for result in indel_block_bound_sweep(grid, block_length=4, max_extra=3):
        assert result.lower_bound <= result.erasure_upper + SLACK
