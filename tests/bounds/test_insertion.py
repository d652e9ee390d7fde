"""The insertion-only channel: the indel tables and bounds at P_d = 0."""

from collections import Counter

import numpy as np
import pytest

from repro.bounds.indel import indel_block_bound_sweep, indel_block_transition_stack
from repro.infotheory.kernels import blahut_arimoto_batch

from .oracles import insertion_tail_mass


def _insertion_table(n, insertion_prob, max_extra):
    stack, groups = indel_block_transition_stack(
        n, [(0.0, insertion_prob)], max_extra=max_extra
    )
    return stack[0], groups, float(stack[0, :, -1].max())


class TestTailMass:
    def test_zero_insertions_no_tail(self):
        assert _insertion_table(5, 0.0, 0)[2] == pytest.approx(0.0)

    def test_tail_decreases_with_budget(self):
        masses = [_insertion_table(6, 0.2, k)[2] for k in range(6)]
        assert masses == sorted(masses, reverse=True)

    def test_tail_matches_simulation(self, rng):
        n, pi, k = 5, 0.3, 3
        # Simulate number of insertions in a block: each of n inputs is
        # preceded by Geometric insertions.
        trials = 200_000
        total = rng.negative_binomial(n, 1 - pi, size=trials)
        sim = (total > k).mean()
        assert _insertion_table(n, pi, k)[2] == pytest.approx(sim, abs=0.005)


class TestBlockTransition:
    def test_rows_stochastic_with_overflow(self):
        t, _groups, tail = _insertion_table(5, 0.15, 3)
        assert np.allclose(t.sum(axis=1), 1.0)
        assert tail == pytest.approx(insertion_tail_mass(5, 0.15, 3), abs=1e-12)

    def test_zero_insertion_identity(self):
        t, _groups, tail = _insertion_table(4, 0.0, 2)
        assert tail == 0.0
        # Only the length-4 block is populated, as identity.
        offset = sum(2**m for m in range(4))
        block = t[:, offset : offset + 16]
        assert np.allclose(block, np.eye(16))
        assert np.allclose(t[:, :offset], 0.0)
        assert np.allclose(t[:, offset + 16 :], 0.0)

    def test_likelihood_consistency_with_simulation(self, rng):
        """P(y|x) from the DP matches Monte-Carlo frequency."""
        n, pi = 4, 0.25
        x = np.array([1, 0, 1, 1])
        # Simulate the Definition-1 insertion process.
        counts = Counter()
        trials = 120_000
        for _ in range(trials):
            out = []
            for b in x:
                while rng.random() < pi:
                    out.append(int(rng.integers(0, 2)))
                out.append(int(b))
            counts[tuple(out)] += 1
        t, groups, _tail = _insertion_table(n, pi, 4)
        # Locate x's row and every output column with visible mass.
        x_index = int("".join(map(str, x)), 2)
        col = 0
        for ys in groups:
            for row_idx in range(ys.shape[0]):
                y = tuple(int(v) for v in ys[row_idx])
                expected = t[x_index, col]
                if expected > 0.005:
                    sim = counts[y] / trials
                    assert sim == pytest.approx(expected, abs=0.01)
                col += 1


class TestBlockBound:
    def test_zero_insertion_full_rate(self):
        table, groups, _tail = _insertion_table(5, 0.0, max_extra=2)
        assert blahut_arimoto_batch(table[None], tol=1e-9).capacity[0] / 5 == pytest.approx(
            1.0, abs=1e-6
        )
        [r] = indel_block_bound_sweep([(0.0, 0.0)], block_length=5, max_extra=2)
        # Dobrushin's charge: log2 of the output lengths plus the overflow.
        assert r.lower_bound == pytest.approx(
            (5.0 - np.log2(len(groups) + 1)) / 5, abs=1e-6
        )

    def test_rate_decreases_with_insertion(self):
        stack, _groups = indel_block_transition_stack(
            5, [(0.0, 0.05), (0.0, 0.25)], max_extra=4
        )
        c1, c2 = blahut_arimoto_batch(stack, tol=1e-9).capacity
        assert c2 < c1

    def test_rate_in_unit_interval(self):
        table, _groups, tail = _insertion_table(6, 0.15, max_extra=4)
        assert 0.0 < blahut_arimoto_batch(table[None], tol=1e-9).capacity[0] / 6 <= 1.0
        assert tail < 0.05
