"""Numerical deletion-channel bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.brackets import capacity_bracket_sweep
from repro.bounds.deletion import (
    block_bound_sweep,
    deletion_block_transition_stack,
    erasure_upper_bound_binary,
    gallager_lower_bound,
    subsequence_embedding_counts,
)
from repro.infotheory.entropy import mutual_information
from repro.infotheory.kernels import blahut_arimoto_batch


def _block_information(n, pds):
    """``max I_n`` per grid point: the solve behind the block bound."""
    stack, _groups = deletion_block_transition_stack(n, pds)
    return blahut_arimoto_batch(stack, tol=1e-9).capacity


def _iid_rate(n, pd):
    """``I_n / n`` under i.i.d. uniform inputs, no boundary penalty."""
    stack, _groups = deletion_block_transition_stack(n, [pd])
    uniform = np.full(stack.shape[1], 1.0 / stack.shape[1])
    return mutual_information(uniform, stack[0]) / n


class TestGallager:
    def test_endpoints(self):
        assert gallager_lower_bound(0.0) == 1.0
        assert gallager_lower_bound(0.5) == 0.0
        assert gallager_lower_bound(1.0) == 0.0  # no bound past p_d = 1/2

    def test_known_value(self):
        assert gallager_lower_bound(0.1) == pytest.approx(0.531, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            gallager_lower_bound(-0.1)


class TestEmbeddingCounts:
    def test_simple_cases(self):
        xs = np.array([[0, 1, 0]], dtype=np.int8)
        ys = np.array([[0]], dtype=np.int8)
        assert subsequence_embedding_counts(xs, ys)[0, 0] == 2
        ys = np.array([[0, 0]], dtype=np.int8)
        assert subsequence_embedding_counts(xs, ys)[0, 0] == 1
        ys = np.array([[1, 0]], dtype=np.int8)
        assert subsequence_embedding_counts(xs, ys)[0, 0] == 1
        ys = np.array([[1, 1]], dtype=np.int8)
        assert subsequence_embedding_counts(xs, ys)[0, 0] == 0

    def test_empty_subsequence(self):
        xs = np.array([[0, 1]], dtype=np.int8)
        ys = np.zeros((1, 0), dtype=np.int8)
        assert subsequence_embedding_counts(xs, ys)[0, 0] == 1

    def test_longer_y_zero(self):
        xs = np.array([[0]], dtype=np.int8)
        ys = np.array([[0, 0]], dtype=np.int8)
        assert subsequence_embedding_counts(xs, ys)[0, 0] == 0

    def test_total_count_identity(self):
        """Sum over all y of N(x, y) = 2^n (each deletion pattern gives
        exactly one subsequence... counted with multiplicity)."""
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, 8).astype(np.int8)[None, :]
        total = 0.0
        for m in range(9):
            if m == 0:
                ys = np.zeros((1, 0), dtype=np.int8)
            else:
                codes = np.arange(1 << m)
                ys = ((codes[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(
                    np.int8
                )
            total += subsequence_embedding_counts(x, ys).sum()
        # Each of the C(8, m) deletion patterns yields one y.
        assert total == pytest.approx(2**8)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20)
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 6, 3
        x = rng.integers(0, 2, n).astype(np.int8)
        y = rng.integers(0, 2, m).astype(np.int8)
        # Brute force over deletion patterns.
        import itertools

        count = sum(
            1
            for keep in itertools.combinations(range(n), m)
            if np.array_equal(x[list(keep)], y)
        )
        got = subsequence_embedding_counts(x[None, :], y[None, :])[0, 0]
        assert got == count


class TestBlockTransition:
    @pytest.mark.parametrize("pd", [0.0, 0.1, 0.5, 1.0])
    def test_rows_stochastic(self, pd):
        stack, _ = deletion_block_transition_stack(6, [pd])
        assert np.allclose(stack[0].sum(axis=1), 1.0)

    def test_shape(self):
        stack, groups = deletion_block_transition_stack(5, [0.2])
        assert stack.shape == (1, 32, sum(2**m for m in range(6)))
        assert len(groups) == 6

    def test_zero_deletion_is_identity_block(self):
        stack, _ = deletion_block_transition_stack(4, [0.0])
        # All mass on the length-4 outputs, diagonal.
        full_block = stack[0][:, -16:]
        assert np.allclose(full_block, np.eye(16))

    def test_validation(self):
        with pytest.raises(ValueError):
            deletion_block_transition_stack(0, [0.1])
        with pytest.raises(ValueError):
            deletion_block_transition_stack(50, [0.1])
        with pytest.raises(ValueError):
            deletion_block_transition_stack(4, [1.5])
        with pytest.raises(ValueError, match="non-empty"):
            deletion_block_transition_stack(4, [])


class TestBlockBound:
    def test_zero_deletion_full_rate(self):
        [b] = block_bound_sweep([0.0], block_length=6)
        assert _block_information(6, [0.0])[0] == pytest.approx(6.0, abs=1e-6)
        assert _iid_rate(6, 0.0) == pytest.approx(1.0, abs=1e-6)
        assert b.lower_bound == pytest.approx((6.0 - np.log2(7)) / 6, abs=1e-6)

    def test_bound_below_erasure(self):
        pds = (0.1, 0.3, 0.5)
        for pd, b in zip(pds, block_bound_sweep(pds, block_length=7)):
            assert b.lower_bound <= erasure_upper_bound_binary(pd) + 1e-9
            assert _iid_rate(7, pd) <= erasure_upper_bound_binary(pd) + 1e-9

    def test_max_at_least_iid(self):
        [capacity] = _block_information(6, [0.2])
        assert capacity >= 6 * _iid_rate(6, 0.2) - 1e-9

    def test_block_information_grows_with_n(self):
        [b5] = block_bound_sweep([0.2], block_length=5)
        [b8] = block_bound_sweep([0.2], block_length=8)
        assert _block_information(8, [0.2])[0] > _block_information(5, [0.2])[0]
        # The per-symbol iid rate *decreases* with n: short blocks get
        # disproportionate help from the known block boundary.
        assert _iid_rate(8, 0.2) <= _iid_rate(5, 0.2) + 1e-9
        # The corrected lower bound improves as the log2(n+1)/n penalty
        # amortizes.
        assert b8.lower_bound >= b5.lower_bound - 1e-9


class TestBracket:
    def test_keys_and_order(self):
        [row] = capacity_bracket_sweep([0.2], block_length=6)
        assert row.best_lower <= row.erasure_upper + 1e-12
        assert row.best_lower == pytest.approx(
            max(row.gallager_lower, row.block_lower)
        )

    def test_lower_never_exceeds_upper_up_to_pd_099(self):
        """Regression: ``1 - H(p_d)`` rises again past ``p_d = 1/2``, so
        the bracket used to report e.g. lower 0.531 > upper 0.1 at
        ``p_d = 0.9``."""
        grid = [round(0.05 * k, 2) for k in range(20)] + [0.99]
        for row in capacity_bracket_sweep(grid, block_length=4):
            assert row.gallager_lower <= row.erasure_upper + 1e-12, row
            assert row.best_lower <= row.erasure_upper + 1e-12, row
