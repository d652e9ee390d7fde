"""Markov-input deletion bounds (extension E12)."""

import numpy as np
import pytest

from repro.bounds.deletion import deletion_block_transition_stack
from repro.bounds.markov_input import (
    markov_block_distribution,
    optimize_markov_input_sweep,
)
from repro.infotheory.entropy import binary_entropy, mutual_information


class TestBlockDistribution:
    @pytest.mark.parametrize("f", [0.0, 0.2, 0.5, 1.0])
    def test_normalized(self, f):
        assert markov_block_distribution(6, f).sum() == pytest.approx(1.0)

    def test_half_flip_is_iid_uniform(self):
        d = markov_block_distribution(5, 0.5)
        assert np.allclose(d, 1 / 32)

    def test_zero_flip_only_constant_blocks(self):
        d = markov_block_distribution(4, 0.0)
        support = np.nonzero(d)[0]
        assert list(support) == [0, 15]  # 0000 and 1111
        assert d[support] == pytest.approx([0.5, 0.5])

    def test_one_flip_only_alternating(self):
        d = markov_block_distribution(4, 1.0)
        support = np.nonzero(d)[0]
        assert sorted(support) == [0b0101, 0b1010]

    def test_n_one(self):
        assert np.allclose(markov_block_distribution(1, 0.3), [0.5, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            markov_block_distribution(0, 0.5)
        with pytest.raises(ValueError):
            markov_block_distribution(4, 1.5)


class TestInformation:
    def test_iid_point_matches_deletion_module(self):
        stack, _groups = deletion_block_transition_stack(6, [0.2])
        uniform = np.full(stack.shape[1], 1.0 / stack.shape[1])
        [bound] = optimize_markov_input_sweep(6, [0.2])
        assert bound.iid_information == pytest.approx(
            mutual_information(uniform, stack[0]), abs=1e-9
        )

    def test_no_deletion_gives_source_entropy(self):
        # Channel is the identity: I = H(X^n) of the Markov source.
        n, f = 5, 0.2
        stack, _ = deletion_block_transition_stack(n, [0.0])
        info = mutual_information(markov_block_distribution(n, f), stack[0])
        assert info == pytest.approx(1 + (n - 1) * binary_entropy(f), abs=1e-9)


class TestOptimization:
    def test_bursty_optimum_under_deletions(self):
        [bound] = optimize_markov_input_sweep(7, [0.3])
        assert bound.best_flip_prob < 0.5
        assert bound.improvement_over_iid > 0

    def test_gain_grows_with_deletion_rate(self):
        b1, b2 = optimize_markov_input_sweep(7, [0.1, 0.4])
        assert b2.improvement_over_iid > b1.improvement_over_iid

    def test_markov_never_below_iid(self):
        for bound in optimize_markov_input_sweep(6, [0.05, 0.2, 0.5]):
            assert bound.block_information >= bound.iid_information - 1e-9

    def test_lower_bound_below_erasure(self):
        [bound] = optimize_markov_input_sweep(7, [0.2])
        assert bound.lower_bound <= 0.8 + 1e-9
