"""Joint deletion-insertion block bounds."""

import numpy as np
import pytest

from repro.bounds.deletion import block_bound_sweep, deletion_block_transition_stack
from repro.bounds.indel import indel_block_bound_sweep, indel_block_transition_stack
from repro.infotheory.kernels import blahut_arimoto_batch

from .oracles import insertion_tail_mass


class TestReductions:
    def test_pi_zero_reduces_to_deletion_table(self):
        t_joint, _g = indel_block_transition_stack(6, [(0.2, 0.0)], max_extra=0)
        t_del, _g2 = deletion_block_transition_stack(6, [0.2])
        assert t_joint[0][:, -1].max() == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(t_joint[0][:, :-1], t_del[0])

    def test_pd_zero_reduces_to_insertion_table(self):
        t_joint, _g = indel_block_transition_stack(5, [(0.0, 0.15)], max_extra=3)
        offset = sum(2**m for m in range(5))  # lengths 0..4 unreachable
        assert np.allclose(t_joint[0][:, :offset], 0.0)
        # Every input sees the same NegativeBinomial insertion count.
        np.testing.assert_allclose(
            t_joint[0][:, -1], insertion_tail_mass(5, 0.15, 3), atol=1e-15
        )

    def test_synchronous_identity(self):
        t, groups = indel_block_transition_stack(4, [(0.0, 0.0)], max_extra=0)
        # Only length-4 outputs, identity.
        block = t[0][:, -17:-1]
        assert np.allclose(block, np.eye(16))
        assert t[0][:, -1].max() == 0.0


class TestTable:
    def test_rows_stochastic(self):
        t, _g = indel_block_transition_stack(5, [(0.15, 0.1)], max_extra=4)
        assert np.allclose(t[0].sum(axis=1), 1.0)

    def test_tail_small_for_moderate_pi(self):
        t, _g = indel_block_transition_stack(6, [(0.1, 0.1)], max_extra=4)
        assert t[0][:, -1].max() < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            indel_block_transition_stack(0, [(0.1, 0.1)])
        with pytest.raises(ValueError):
            indel_block_transition_stack(4, [(0.6, 0.6)])
        with pytest.raises(ValueError):
            indel_block_transition_stack(4, [(0.1, 0.1)], max_extra=99)
        with pytest.raises(ValueError):
            indel_block_transition_stack(4, [(float("nan"), 0.1)])


class TestBound:
    def test_below_erasure_bound(self):
        grid = [(0.1, 0.05), (0.2, 0.1)]
        for r in indel_block_bound_sweep(grid, block_length=6):
            assert r.lower_bound <= r.erasure_upper + 1e-9

    def test_matches_deletion_only_information(self):
        """With pi = 0 the block information must match the
        deletion-module computation."""
        [r_joint] = indel_block_bound_sweep(
            [(0.2, 0.0)], block_length=6, max_extra=0
        )
        [r_del] = block_bound_sweep([0.2], block_length=6)
        t_joint, _g = indel_block_transition_stack(6, [(0.2, 0.0)], max_extra=0)
        t_del, _g2 = deletion_block_transition_stack(6, [0.2])
        assert blahut_arimoto_batch(t_joint, tol=1e-9).capacity[0] == pytest.approx(
            blahut_arimoto_batch(t_del, tol=1e-9).capacity[0], abs=1e-6
        )
        assert r_joint.lower_bound <= r_del.lower_bound + 1e-9

    def test_information_decreases_with_insertions(self):
        stack, _g = indel_block_transition_stack(
            6, [(0.1, 0.0), (0.1, 0.15)], max_extra=4
        )
        c0, c1 = blahut_arimoto_batch(stack, tol=1e-9).capacity
        assert c1 < c0

    def test_synchronous_full_information(self):
        [r] = indel_block_bound_sweep([(0.0, 0.0)], block_length=5, max_extra=0)
        stack, _g = indel_block_transition_stack(
            5, [(0.0, 0.0)], max_extra=0
        )
        assert blahut_arimoto_batch(stack, tol=1e-9).capacity[0] == pytest.approx(
            5.0, abs=1e-6
        )
        # Dobrushin's charge: log2 of 6 output lengths plus the overflow.
        assert r.lower_bound == pytest.approx((5.0 - np.log2(7)) / 5, abs=1e-6)
