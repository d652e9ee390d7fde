"""Zigangirov-style sequential (stack) decoding."""

import numpy as np
import pytest

from repro.coding.convolutional import ConvolutionalCode
from repro.coding.forward_backward import DriftChannelModel
from repro.coding.stack_decoder import StackDecoder


@pytest.fixture
def code():
    return ConvolutionalCode((0o23, 0o35))


class TestConstruction:
    def test_validation(self, code):
        with pytest.raises(ValueError):
            StackDecoder(code, insertion_prob=0.6, deletion_prob=0.5)
        with pytest.raises(ValueError):
            StackDecoder(code, insertion_prob=-0.1, deletion_prob=0.1)

    def test_default_bias_is_rate(self, code):
        dec = StackDecoder(code, insertion_prob=0.01, deletion_prob=0.01)
        assert dec.bias == pytest.approx(0.5)


class TestDecoding:
    def test_clean_channel(self, code, rng):
        dec = StackDecoder(
            code, insertion_prob=0.01, deletion_prob=0.01,
            substitution_prob=1e-3,
        )
        bits = rng.integers(0, 2, 40)
        result = dec.decode(code.encode(bits), 40)
        assert result.completed
        assert np.array_equal(result.payload, bits)

    def test_indel_channel(self, code, rng):
        channel = DriftChannelModel(0.01, 0.01)
        dec = StackDecoder(
            code,
            insertion_prob=0.01,
            deletion_prob=0.01,
            substitution_prob=1e-3,
            max_nodes=150_000,
        )
        successes = 0
        for _ in range(5):
            bits = rng.integers(0, 2, 48)
            ry, _ = channel.transmit(code.encode(bits), rng)
            result = dec.decode(ry, 48)
            if result.completed and np.array_equal(result.payload, bits):
                successes += 1
        assert successes >= 4

    def test_budget_exhaustion_graceful(self, code, rng):
        dec = StackDecoder(
            code,
            insertion_prob=0.05,
            deletion_prob=0.05,
            substitution_prob=1e-3,
            max_nodes=20,
        )
        bits = rng.integers(0, 2, 60)
        channel = DriftChannelModel(0.08, 0.08)
        ry, _ = channel.transmit(code.encode(bits), rng)
        result = dec.decode(ry, 60)
        assert result.payload.shape == (60,)
        assert not result.completed

    def test_effort_grows_with_noise(self, code, rng):
        """More channel events -> more tree branches explored."""

        class CountingDecoder(StackDecoder):
            branches = 0

            def _bit_extensions(self, coded_bit, y, j):
                self.branches += 1
                return super()._bit_extensions(coded_bit, y, j)

        quiet = DriftChannelModel(0.005, 0.005)
        loud = DriftChannelModel(0.05, 0.05)
        dq = CountingDecoder(
            code, insertion_prob=0.005, deletion_prob=0.005,
            substitution_prob=1e-3,
        )
        dl = CountingDecoder(
            code, insertion_prob=0.05, deletion_prob=0.05,
            substitution_prob=1e-3,
        )
        for _ in range(4):
            bits = rng.integers(0, 2, 40)
            yq, _ = quiet.transmit(code.encode(bits), rng)
            yl, _ = loud.transmit(code.encode(bits), rng)
            dq.decode(yq, 40)
            dl.decode(yl, 40)
        assert dl.branches > dq.branches

    def test_input_validation(self, code, rng):
        dec = StackDecoder(code, insertion_prob=0.01, deletion_prob=0.01)
        with pytest.raises(ValueError):
            dec.decode(np.zeros((2, 2), dtype=int), 4)
        with pytest.raises(ValueError):
            dec.decode(np.zeros(10, dtype=int), 0)
