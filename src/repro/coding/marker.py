"""Marker codes for insertion-deletion channels.

The oldest practical defense against synchronization errors (Sellers
1962, used as the comparison baseline by Davey & MacKay): insert a known
**marker pattern** after every ``period`` payload bits. The receiver
runs the same drift forward-backward engine as the watermark decoder,
with delta priors at marker positions and uniform (or outer-code)
priors at payload positions; the markers pin the drift down often
enough for the payload posteriors to be useful.

Compared with watermark codes, markers spend their redundancy in
concentrated bursts; the drift estimate degrades between markers, which
is visible in experiment E8's comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..numerics import safe_log
from .convolutional import ConvolutionalCode
from .forward_backward import DriftChannelModel

__all__ = ["MarkerCode", "MarkerDecodeResult"]

_MARKER = (0, 0, 1)


@dataclass(frozen=True)
class MarkerDecodeResult:
    """Decoded payload plus diagnostics."""

    payload: np.ndarray
    bit_error_rate: Optional[float]
    drift_map: np.ndarray
    log_likelihood: float


class MarkerCode:
    """Marker-based transmitter/receiver for Definition-1 bit channels.

    Parameters
    ----------
    payload_bits:
        Information bits per frame.
    period:
        Payload bits between consecutive markers.
    outer:
        Optional outer convolutional code; if None the payload is sent
        uncoded (pure marker synchronization).
    """

    def __init__(
        self,
        payload_bits: int,
        *,
        period: int = 10,
        outer: Optional[ConvolutionalCode] = None,
    ) -> None:
        if payload_bits < 1:
            raise ValueError("payload_bits must be >= 1")
        if period < 1:
            raise ValueError("period must be >= 1")
        mk = _MARKER
        self.payload_bits = payload_bits
        self.period = period
        self.marker = mk
        self.outer = outer
        if outer is None:
            self._coded_bits = payload_bits
        else:
            self._coded_bits = (
                payload_bits + outer.memory
            ) * outer.rate_denominator
        num_markers = (self._coded_bits + period - 1) // period
        self.frame_length = self._coded_bits + num_markers * len(mk)
        # Precompute the interleaving template: True where a payload
        # (coded) bit goes, False where a marker bit goes.
        template = []
        sent = 0
        while sent < self._coded_bits:
            take = min(self.period, self._coded_bits - sent)
            template.extend([True] * take)
            template.extend([False] * len(mk))
            sent += take
        self._is_payload = np.asarray(template, dtype=bool)
        assert self._is_payload.size == self.frame_length

    @property
    def rate(self) -> float:
        """Information bits per transmitted bit."""
        return self.payload_bits / self.frame_length

    # ------------------------------------------------------------------
    def _marker_stream(self) -> np.ndarray:
        """The marker bits laid out over the frame template."""
        out = np.zeros(self.frame_length, dtype=np.int64)
        mk = np.asarray(self.marker, dtype=np.int64)
        idx = np.nonzero(~self._is_payload)[0]
        out[idx] = np.tile(mk, idx.size // mk.size)
        return out

    def encode(self, payload: np.ndarray) -> np.ndarray:
        """Payload bits -> framed stream with periodic markers."""
        data = np.asarray(payload, dtype=np.int64)
        if data.shape != (self.payload_bits,):
            raise ValueError(f"payload must have shape ({self.payload_bits},)")
        coded = data if self.outer is None else self.outer.encode(data)
        frame = self._marker_stream()
        frame[self._is_payload] = coded
        return frame

    def decode(
        self,
        received: np.ndarray,
        channel: DriftChannelModel,
        *,
        true_payload: Optional[np.ndarray] = None,
    ) -> MarkerDecodeResult:
        """Drift-decode the frame and extract the payload."""
        priors = np.full(self.frame_length, 0.5)
        markers = self._marker_stream()
        priors[~self._is_payload] = markers[~self._is_payload].astype(float)
        result = channel.decode(received, priors)
        payload_post = result.posteriors[self._is_payload]
        if self.outer is None:
            payload = (payload_post > 0.5).astype(np.int64)
        else:
            eps = 1e-12
            post = np.clip(payload_post, 0.0, 1.0)
            llrs = safe_log(1 - post, floor=eps) - safe_log(post, floor=eps)
            payload = self.outer.viterbi_decode(llrs, terminated=True)
        ber = None
        if true_payload is not None:
            truth = np.asarray(true_payload, dtype=np.int64)
            ber = float((payload != truth).mean())
        return MarkerDecodeResult(
            payload=payload,
            bit_error_rate=ber,
            drift_map=result.drift_map,
            log_likelihood=result.log_likelihood,
        )

    def simulate_frame(
        self, channel: DriftChannelModel, rng: np.random.Generator
    ) -> MarkerDecodeResult:
        """Random payload end-to-end through *channel*."""
        payload = rng.integers(0, 2, self.payload_bits)
        tx = self.encode(payload)
        ry, _events = channel.transmit(tx, rng)
        return self.decode(ry, channel, true_payload=payload)
