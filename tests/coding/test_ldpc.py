"""LDPC codes with sum-product decoding."""

import numpy as np
import pytest

from repro.coding.ldpc import LDPCCode, make_peg_parity_check
from tests.coding.ldpc import make_regular_parity_check


@pytest.fixture
def small_code(rng):
    h = make_peg_parity_check(60, 3, 30, rng)
    return LDPCCode(h)


class TestConstruction:
    def test_regular_weights(self, rng):
        h = make_regular_parity_check(60, 3, 6, rng)
        assert np.all(h.sum(axis=1) == 6)
        assert np.all(h.sum(axis=0) == 3)

    def test_peg_no_four_cycles(self, rng):
        h = make_peg_parity_check(120, 3, 60, rng)
        gram = (h @ h.T).astype(int)
        np.fill_diagonal(gram, 0)
        assert gram.max() <= 1

    def test_peg_column_regular(self, rng):
        h = make_peg_parity_check(90, 3, 45, rng)
        assert np.all(h.sum(axis=0) == 3)

    def test_peg_validation(self, rng):
        with pytest.raises(ValueError):
            make_peg_parity_check(10, 3, 10, rng)  # rate <= 0
        with pytest.raises(ValueError):
            make_peg_parity_check(10, 6, 5, rng)  # weight > checks

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            make_regular_parity_check(10, 3, 3, rng)  # m >= n
        with pytest.raises(ValueError):
            make_regular_parity_check(10, 3, 4, rng)  # 4 does not divide 10
        with pytest.raises(ValueError):
            make_regular_parity_check(10, 1, 5, rng)

    def test_code_rate_near_half(self, small_code):
        assert small_code.rate == pytest.approx(0.5, abs=0.1)

    def test_rejects_full_rank_square(self):
        with pytest.raises(ValueError):
            LDPCCode(np.eye(4, dtype=int))  # zero rate


class TestEncoding:
    def test_codewords_satisfy_parity(self, small_code, rng):
        for _ in range(5):
            msg = rng.integers(0, 2, small_code.message_length)
            cw = small_code.encode(msg)
            assert not np.any(small_code.syndrome(cw))

    def test_systematic_extraction(self, small_code, rng):
        msg = rng.integers(0, 2, small_code.message_length)
        assert np.array_equal(
            small_code.extract_message(small_code.encode(msg)), msg
        )

    def test_linearity(self, small_code, rng):
        a = rng.integers(0, 2, small_code.message_length)
        b = rng.integers(0, 2, small_code.message_length)
        assert np.array_equal(
            small_code.encode(a) ^ small_code.encode(b),
            small_code.encode(a ^ b),
        )

    def test_shape_validation(self, small_code):
        with pytest.raises(ValueError):
            small_code.encode(np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            small_code.extract_message(np.zeros(3, dtype=int))


class TestDecoding:
    def test_clean_decodes_immediately(self, small_code, rng):
        msg = rng.integers(0, 2, small_code.message_length)
        cw = small_code.encode(msg)
        llr = np.where(cw == 0, 4.0, -4.0)
        decoded, converged = small_code.decode(llr)
        assert converged
        assert np.array_equal(decoded, cw)

    def test_bsc_error_correction(self, rng):
        h = make_peg_parity_check(240, 3, 120, rng)
        code = LDPCCode(h)
        p = 0.03
        scale = np.log((1 - p) / p)
        failures = 0
        for _ in range(5):
            msg = rng.integers(0, 2, code.message_length)
            cw = code.encode(msg)
            noisy = cw ^ (rng.random(cw.size) < p)
            llr = np.where(noisy == 0, scale, -scale)
            decoded, converged = code.decode(llr)
            if not (converged and np.array_equal(decoded, cw)):
                failures += 1
        assert failures <= 1

    def test_erasure_fill_in(self, small_code, rng):
        """Zero-LLR (erased) positions recoverable from parity."""
        msg = rng.integers(0, 2, small_code.message_length)
        cw = small_code.encode(msg)
        llr = np.where(cw == 0, 5.0, -5.0).astype(float)
        erased = rng.choice(cw.size, size=5, replace=False)
        llr[erased] = 0.0
        decoded, converged = small_code.decode(llr)
        assert converged
        assert np.array_equal(decoded, cw)

    def test_llr_shape_validated(self, small_code):
        with pytest.raises(ValueError):
            small_code.decode(np.zeros(3))

    def test_hopeless_input_reports_nonconverged(self, small_code, rng):
        llr = rng.normal(0, 0.1, small_code.block_length)
        _decoded, converged, _ = small_code.decode_soft(llr, max_iterations=5)
        # Random soup rarely satisfies parity in 5 iterations.
        assert isinstance(converged, bool)
