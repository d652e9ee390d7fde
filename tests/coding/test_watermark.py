"""Davey-MacKay watermark codes."""

import numpy as np
import pytest

from repro.coding.forward_backward import DriftChannelModel
from repro.coding.watermark import SparseCodebook, WatermarkCode


class TestSparseCodebook:
    def test_default_shape(self):
        cb = SparseCodebook(3, 7)
        assert cb.words.shape == (8, 7)

    def test_words_are_low_weight(self):
        cb = SparseCodebook(3, 7)
        weights = cb.words.sum(axis=1)
        # 8 lowest-weight 7-bit words: the zero word + seven weight-1.
        assert sorted(weights) == [0, 1, 1, 1, 1, 1, 1, 1]

    def test_mean_density(self):
        cb = SparseCodebook(3, 7)
        assert cb.mean_density == pytest.approx(7 / 56)

    def test_distinct_words(self):
        cb = SparseCodebook(4, 8)
        as_tuples = {tuple(w) for w in cb.words}
        assert len(as_tuples) == 16

    def test_encode_pads(self):
        cb = SparseCodebook(3, 7)
        out = cb.encode(np.array([1, 0]))  # padded to 3 bits
        assert out.size == 7

    def test_encode_rejects_2d(self):
        cb = SparseCodebook(3, 7)
        with pytest.raises(ValueError):
            cb.encode(np.zeros((2, 3), dtype=int))

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseCodebook(0, 7)
        with pytest.raises(ValueError):
            SparseCodebook(5, 3)
        with pytest.raises(ValueError):
            SparseCodebook(9, 8)  # more input bits than output bits

    def test_block_posteriors_normalized(self):
        cb = SparseCodebook(3, 7)
        post = np.full(14, 0.3)
        probs = cb.map_block_posteriors(post)
        assert probs.shape == (2, 8)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_posteriors_peak_at_true_word(self):
        cb = SparseCodebook(3, 7)
        word = cb.words[5].astype(float)
        # Confident posteriors matching word 5.
        post = np.clip(word, 0.02, 0.98)
        probs = cb.map_block_posteriors(post)
        assert int(np.argmax(probs[0])) == 5

    def test_llr_sign(self):
        cb = SparseCodebook(2, 5)
        probs = np.zeros((1, 4))
        probs[0, 0] = 1.0  # symbol 00
        llrs = cb.symbol_bit_llrs(probs)
        assert llrs.shape == (2,)
        assert np.all(llrs > 0)  # both bits are 0 => positive LLR


class TestWatermarkCode:
    def test_frame_geometry(self):
        wc = WatermarkCode(payload_bits=60)
        assert wc.frame_length % 7 == 0
        assert 0 < wc.rate < 1

    def test_encode_shape_and_determinism(self, rng):
        wc = WatermarkCode(payload_bits=24)
        payload = rng.integers(0, 2, 24)
        tx1 = wc.encode(payload)
        tx2 = wc.encode(payload)
        assert np.array_equal(tx1, tx2)
        assert tx1.size == wc.frame_length

    def test_encode_validates_payload(self):
        wc = WatermarkCode(payload_bits=24)
        with pytest.raises(ValueError):
            wc.encode(np.zeros(10, dtype=int))

    def test_clean_channel_decodes(self, rng):
        wc = WatermarkCode(payload_bits=36)
        channel = DriftChannelModel(0.0, 0.0, max_drift=4)
        payload = rng.integers(0, 2, 36)
        tx = wc.encode(payload)
        res = wc.decode(tx, channel, true_payload=payload)
        assert res.bit_error_rate == 0.0

    def test_indel_channel_low_ber(self, rng):
        wc = WatermarkCode(payload_bits=48)
        channel = DriftChannelModel(0.02, 0.02, max_drift=12)
        bers = [
            wc.simulate_frame(channel, rng).bit_error_rate for _ in range(4)
        ]
        assert float(np.mean(bers)) < 0.1

    def test_decode_without_truth_returns_none_ber(self, rng):
        wc = WatermarkCode(payload_bits=24)
        channel = DriftChannelModel(0.01, 0.01, max_drift=8)
        tx = wc.encode(rng.integers(0, 2, 24))
        ry, _ = channel.transmit(tx, rng)
        res = wc.decode(ry, channel)
        assert res.bit_error_rate is None
        assert res.payload.shape == (24,)

    def test_validation(self):
        with pytest.raises(ValueError):
            WatermarkCode(payload_bits=0)
