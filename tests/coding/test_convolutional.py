"""Convolutional codes and Viterbi decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.convolutional import NASA_CC_GENERATORS, ConvolutionalCode


def _hard_llrs(coded):
    """Hard decisions as LLRs: bit 0 -> +1, bit 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(coded, dtype=float)


class TestConstruction:
    def test_default_generators(self):
        cc = ConvolutionalCode()
        assert cc.generators == NASA_CC_GENERATORS
        assert cc.constraint_length == 7
        assert cc.num_states == 64
        assert cc.rate_denominator == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvolutionalCode(())
        with pytest.raises(ValueError):
            ConvolutionalCode((0,))
        with pytest.raises(ValueError):
            ConvolutionalCode((1,))  # constraint length 1


class TestEncoding:
    def test_length_with_termination(self):
        cc = ConvolutionalCode((0o7, 0o5))
        out = cc.encode(np.array([1, 0, 1]))
        assert out.size == (3 + cc.memory) * 2

    def test_known_k3_sequence(self):
        # (7,5) code, input [1]: standard first-branch output 11,
        # flush 10 11.
        cc = ConvolutionalCode((0o7, 0o5))
        out = cc.encode(np.array([1]))
        assert list(out) == [1, 1, 1, 0, 1, 1]

    def test_zero_input_zero_output(self):
        cc = ConvolutionalCode((0o7, 0o5))
        assert not np.any(cc.encode(np.zeros(10, dtype=int)))

    def test_linearity(self, rng):
        cc = ConvolutionalCode((0o7, 0o5))
        a = rng.integers(0, 2, 40)
        b = rng.integers(0, 2, 40)
        assert np.array_equal(
            cc.encode(a) ^ cc.encode(b), cc.encode(a ^ b)
        )

    def test_rejects_non_binary(self):
        cc = ConvolutionalCode((0o7, 0o5))
        with pytest.raises(ValueError):
            cc.encode(np.array([0, 2]))
        with pytest.raises(ValueError):
            cc.encode(np.zeros((2, 2), dtype=int))


class TestViterbi:
    @pytest.mark.parametrize("gens", [(0o7, 0o5), (0o23, 0o35), NASA_CC_GENERATORS])
    def test_noiseless_roundtrip(self, gens, rng):
        cc = ConvolutionalCode(gens)
        bits = rng.integers(0, 2, 200)
        assert np.array_equal(cc.viterbi_decode(_hard_llrs(cc.encode(bits))), bits)

    def test_corrects_isolated_errors(self, rng):
        cc = ConvolutionalCode((0o23, 0o35))
        bits = rng.integers(0, 2, 100)
        coded = cc.encode(bits)
        coded[10] ^= 1
        coded[50] ^= 1
        coded[120] ^= 1
        assert np.array_equal(cc.viterbi_decode(_hard_llrs(coded)), bits)

    def test_bsc_performance(self, rng):
        cc = ConvolutionalCode()
        bits = rng.integers(0, 2, 2000)
        coded = cc.encode(bits)
        noisy = coded ^ (rng.random(coded.size) < 0.04)
        decoded = cc.viterbi_decode(_hard_llrs(noisy))
        assert (decoded != bits).mean() < 0.01

    def test_soft_beats_wrong_hard_decisions(self, rng):
        """Erasure-like LLRs (zeros) on corrupted bits decode cleanly."""
        cc = ConvolutionalCode((0o23, 0o35))
        bits = rng.integers(0, 2, 100)
        coded = cc.encode(bits)
        llrs = 1.0 - 2.0 * coded.astype(float)
        # Erase 15% of positions (no information).
        erase = rng.random(llrs.size) < 0.15
        llrs[erase] = 0.0
        assert np.array_equal(cc.viterbi_decode(llrs), bits)

    def test_unterminated_mode(self, rng):
        cc = ConvolutionalCode((0o7, 0o5))
        bits = rng.integers(0, 2, 60)
        state = 0
        # Encode without termination by trimming flush output.
        coded_full = cc.encode(bits)[: bits.size * cc.rate_denominator]
        decoded = cc.viterbi_decode(
            1.0 - 2.0 * coded_full.astype(float), terminated=False
        )
        # All but the last few bits should be recovered.
        assert np.array_equal(decoded[:-5], bits[:-5])

    def test_length_validation(self):
        cc = ConvolutionalCode((0o7, 0o5))
        with pytest.raises(ValueError):
            cc.viterbi_decode(np.zeros(7))  # not a multiple of 2
        with pytest.raises(ValueError):
            cc.viterbi_decode(np.zeros(2))  # shorter than flush

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_property_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        cc = ConvolutionalCode((0o23, 0o35))
        bits = rng.integers(0, 2, rng.integers(1, 80))
        assert np.array_equal(cc.viterbi_decode(_hard_llrs(cc.encode(bits))), bits)
