"""Iterative watermark/LDPC decoding (extension E11)."""

import numpy as np
import pytest

from repro.coding.forward_backward import DriftChannelModel
from repro.coding.iterative import IterativeWatermarkCode


@pytest.fixture(scope="module")
def code():
    return IterativeWatermarkCode()


class TestGeometry:
    def test_frame_and_rate(self, code):
        assert code.payload_bits == code.ldpc.message_length
        assert code.frame_length % code.codebook.bits_out == 0
        assert 0 < code.rate < 1

    def test_encode_shape(self, code, rng):
        tx = code.encode(rng.integers(0, 2, code.payload_bits))
        assert tx.shape == (code.frame_length,)

    def test_encode_validates(self, code):
        with pytest.raises(ValueError):
            code.encode(np.zeros(3, dtype=int))


class TestDecoding:
    def test_clean_channel_one_iteration(self, code, rng):
        channel = DriftChannelModel(0.0, 0.0, max_drift=4)
        payload = rng.integers(0, 2, code.payload_bits)
        tx = code.encode(payload)
        result = code.decode(tx, channel, iterations=1, true_payload=payload)
        assert result.bit_error_rate == 0.0
        assert result.converged

    def test_converged_stops_early(self, code, rng):
        class CountingChannel(DriftChannelModel):
            rounds = 0

            def decode(self, received, prior_one):
                self.rounds += 1
                return super().decode(received, prior_one)

        channel = CountingChannel(0.0, 0.0, max_drift=4)
        payload = rng.integers(0, 2, code.payload_bits)
        result = code.decode(
            code.encode(payload), channel, iterations=5, true_payload=payload
        )
        assert result.converged
        assert channel.rounds == 1

    def test_iterations_do_not_hurt(self, code):
        """Paired frames: more iterations never raise the mean BER."""
        channel = DriftChannelModel(0.035, 0.035, max_drift=16)
        def mean_ber(iters):
            bers = []
            for k in range(4):
                rng = np.random.default_rng(1000 + k)
                result = code.simulate_frame(channel, rng, iterations=iters)
                bers.append(result.bit_error_rate)
            return float(np.mean(bers))

        assert mean_ber(3) <= mean_ber(1) + 1e-9

    def test_decode_without_truth(self, code, rng):
        channel = DriftChannelModel(0.02, 0.02, max_drift=12)
        tx = code.encode(rng.integers(0, 2, code.payload_bits))
        ry, _ = channel.transmit(tx, rng)
        result = code.decode(ry, channel, iterations=2)
        assert result.bit_error_rate is None
        assert result.payload.shape == (code.payload_bits,)

    def test_iterations_validation(self, code, rng):
        channel = DriftChannelModel(0.01, 0.01)
        with pytest.raises(ValueError):
            code.decode(np.zeros(10, dtype=int), channel, iterations=0)
