"""Marker codes."""

import numpy as np
import pytest

from repro.coding.convolutional import ConvolutionalCode
from repro.coding.forward_backward import DriftChannelModel
from repro.coding.marker import MarkerCode


class TestGeometry:
    def test_frame_length_accounting(self):
        mc = MarkerCode(20, period=5)
        # 20 payload bits -> 4 marker groups of 3 bits.
        assert mc.frame_length == 20 + 4 * 3
        assert mc.rate == pytest.approx(20 / 32)

    def test_partial_last_group(self):
        mc = MarkerCode(7, period=5)
        # Groups: 5 + marker, 2 + marker.
        assert mc.frame_length == 7 + 2 * 3

    def test_with_outer_code(self):
        outer = ConvolutionalCode((0o7, 0o5))
        mc = MarkerCode(10, period=4, outer=outer)
        coded = (10 + outer.memory) * 2
        markers = (coded + 3) // 4
        assert mc.frame_length == coded + markers * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkerCode(0)
        with pytest.raises(ValueError):
            MarkerCode(10, period=0)


class TestEncode:
    def test_markers_in_place(self):
        mc = MarkerCode(6, period=3)
        frame = mc.encode(np.zeros(6, dtype=int))
        # Payload zeros; markers visible at their slots.
        assert frame.size == mc.frame_length
        assert frame.sum() == 2  # two marker groups, each contributing one 1

    def test_payload_recoverable_from_template(self, rng):
        mc = MarkerCode(12, period=4)
        payload = rng.integers(0, 2, 12)
        frame = mc.encode(payload)
        assert np.array_equal(frame[mc._is_payload], payload)

    def test_encode_validates(self):
        mc = MarkerCode(6)
        with pytest.raises(ValueError):
            mc.encode(np.zeros(5, dtype=int))


class TestDecode:
    def test_clean_channel_uncoded(self, rng):
        mc = MarkerCode(30, period=6)
        channel = DriftChannelModel(0.0, 0.0, max_drift=4)
        payload = rng.integers(0, 2, 30)
        res = mc.decode(mc.encode(payload), channel, true_payload=payload)
        assert res.bit_error_rate == 0.0

    def test_indel_channel_with_outer_code(self, rng):
        mc = MarkerCode(48, period=9, outer=ConvolutionalCode((0o23, 0o35)))
        channel = DriftChannelModel(0.02, 0.02, max_drift=12)
        bers = [
            mc.simulate_frame(channel, rng).bit_error_rate for _ in range(4)
        ]
        assert float(np.mean(bers)) < 0.15

    def test_uncoded_worse_than_coded(self, rng):
        """The outer code should reduce BER at the same channel."""
        channel = DriftChannelModel(0.03, 0.03, max_drift=12)
        uncoded = MarkerCode(48, period=9)
        coded = MarkerCode(48, period=9, outer=ConvolutionalCode((0o23, 0o35)))
        r1 = np.mean(
            [uncoded.simulate_frame(channel, rng).bit_error_rate for _ in range(5)]
        )
        r2 = np.mean(
            [coded.simulate_frame(channel, rng).bit_error_rate for _ in range(5)]
        )
        assert r2 <= r1 + 0.02

    def test_decode_returns_drift_map(self, rng):
        mc = MarkerCode(20, period=5)
        channel = DriftChannelModel(0.02, 0.02, max_drift=8)
        res = mc.simulate_frame(channel, rng)
        assert res.drift_map.shape == (mc.frame_length,)
