"""Davey-MacKay watermark codes (ref [13]).

Reliable communication over insertion-deletion channels *without
feedback*: the transmitted stream is a pseudorandom **watermark**
``w`` XORed with a **sparse** encoding ``s`` of the payload, so the
receiver — who knows ``w`` — can track the channel drift statistically
(the received stream mostly agrees with the watermark) and recover the
sparse bits from the drift decoder's posteriors.

Pipeline::

    payload bits -> [outer convolutional code] -> coded bits
                -> [sparse mapping k bits -> ell bits, low density]
                -> XOR watermark -> channel
    received    -> drift forward-backward (priors = sparse density)
                -> sparse-block MAP -> coded-bit LLRs
                -> Viterbi -> payload estimate

This demonstrates the paper's Section 4.1 remark: such schemes work,
but their rates sit far below the feedback capacity of Theorem 5 —
quantified in experiment E8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..numerics import safe_log
from .convolutional import ConvolutionalCode
from .forward_backward import DriftChannelModel

__all__ = ["SparseCodebook", "WatermarkCode", "WatermarkDecodeResult"]


def _lowest_weight_words(length: int, count: int) -> np.ndarray:
    """The *count* binary words of given *length* with smallest Hamming
    weight (ties broken by numeric value) — the sparse symbol set."""
    if count > (1 << length):
        raise ValueError("codebook larger than the space")
    codes = np.arange(1 << length, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(length)[None, :]) & 1).astype(np.int8)
    weights = bits.sum(axis=1)
    order = np.lexsort((codes, weights))
    chosen = codes[order[:count]]
    out = ((chosen[:, None] >> np.arange(length - 1, -1, -1)[None, :]) & 1).astype(
        np.int64
    )
    return out


@dataclass(frozen=True)
class SparseCodebook:
    """Maps ``bits_in``-bit symbols to low-weight ``bits_out``-bit words."""

    bits_in: int
    bits_out: int
    words: np.ndarray

    def __init__(self, bits_in: int = 3, bits_out: int = 7) -> None:
        if bits_in < 1 or bits_out < bits_in:
            raise ValueError("need bits_out >= bits_in >= 1")
        words = _lowest_weight_words(bits_out, 1 << bits_in)
        object.__setattr__(self, "bits_in", bits_in)
        object.__setattr__(self, "bits_out", bits_out)
        object.__setattr__(self, "words", words)

    @property
    def mean_density(self) -> float:
        """Average fraction of ones across the codebook — the sparse
        prior fed to the drift decoder."""
        return float(self.words.mean())

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Map a bit stream (padded with zeros to a symbol boundary)."""
        data = np.asarray(bits, dtype=np.int64)
        if data.ndim != 1:
            raise ValueError("bits must be 1-D")
        rem = (-data.size) % self.bits_in
        if rem:
            data = np.concatenate([data, np.zeros(rem, dtype=np.int64)])
        symbols = data.reshape(-1, self.bits_in)
        powers = 1 << np.arange(self.bits_in - 1, -1, -1)
        idx = symbols @ powers
        return self.words[idx].reshape(-1)

    def map_block_posteriors(self, post_one: np.ndarray) -> np.ndarray:
        """Per-symbol posteriors from per-position ``P(bit = 1)``.

        Treats positions as independent given the drift decoding (the
        standard Davey-MacKay approximation) and returns an array of
        shape ``(num_symbols, 2**bits_in)`` of normalized symbol
        probabilities.
        """
        p = np.asarray(post_one, dtype=float)
        if p.size % self.bits_out != 0:
            raise ValueError("posterior length not a multiple of bits_out")
        blocks = np.clip(p.reshape(-1, self.bits_out), 0.0, 1.0)
        # log P(word) = sum over positions of log(p if bit else 1-p)
        eps = 1e-12
        logp = safe_log(blocks, floor=eps)
        log1m = safe_log(1 - blocks, floor=eps)
        # (num_blocks, num_words): words shape (W, bits_out)
        scores = logp @ self.words.T + log1m @ (1 - self.words).T
        scores -= scores.max(axis=1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs

    def symbol_bit_llrs(self, symbol_probs: np.ndarray) -> np.ndarray:
        """Convert symbol posteriors into per-input-bit LLRs
        (``log P(bit=0) - log P(bit=1)``), for the outer Viterbi."""
        w = self.bits_in
        num_symbols = symbol_probs.shape[0]
        idx = np.arange(1 << w)
        llrs = np.empty(num_symbols * w)
        eps = 1e-12
        for b in range(w):
            mask = ((idx >> (w - 1 - b)) & 1).astype(bool)
            p1 = symbol_probs[:, mask].sum(axis=1)
            p0 = symbol_probs[:, ~mask].sum(axis=1)
            llrs[b::w] = safe_log(p0, floor=eps) - safe_log(p1, floor=eps)
        return llrs


@dataclass(frozen=True)
class WatermarkDecodeResult:
    """Decoded payload plus diagnostics."""

    payload: np.ndarray
    bit_error_rate: Optional[float]
    drift_map: np.ndarray
    log_likelihood: float


class WatermarkCode:
    """Full Davey-MacKay-style transmitter/receiver pair.

    Parameters
    ----------
    payload_bits:
        Number of information bits per frame.

    The sparse mapping is 3 -> 7 (mean density ~0.12), the outer code a
    rate-1/2 convolutional code of constraint length 5 (short enough for
    quick frames), and the pseudorandom watermark both parties share is
    drawn from seed 2005.
    """

    def __init__(self, payload_bits: int) -> None:
        if payload_bits < 1:
            raise ValueError("payload_bits must be >= 1")
        self.payload_bits = payload_bits
        self.codebook = SparseCodebook(3, 7)
        self.outer = ConvolutionalCode((0o23, 0o35))
        coded_len = (payload_bits + self.outer.memory) * self.outer.rate_denominator
        rem = (-coded_len) % self.codebook.bits_in
        self._coded_padded = coded_len + rem
        self._num_symbols = self._coded_padded // self.codebook.bits_in
        self.frame_length = self._num_symbols * self.codebook.bits_out
        wm_rng = np.random.default_rng(2005)
        self.watermark = wm_rng.integers(0, 2, self.frame_length).astype(np.int64)

    @property
    def rate(self) -> float:
        """Information rate in bits per transmitted bit."""
        return self.payload_bits / self.frame_length

    # ------------------------------------------------------------------
    def encode(self, payload: np.ndarray) -> np.ndarray:
        """Payload bits -> transmitted frame."""
        data = np.asarray(payload, dtype=np.int64)
        if data.shape != (self.payload_bits,):
            raise ValueError(f"payload must have shape ({self.payload_bits},)")
        coded = self.outer.encode(data)
        sparse = self.codebook.encode(coded)
        if sparse.size != self.frame_length:
            raise AssertionError("frame length bookkeeping error")
        return sparse ^ self.watermark

    def decode(
        self,
        received: np.ndarray,
        channel: DriftChannelModel,
        *,
        true_payload: Optional[np.ndarray] = None,
    ) -> WatermarkDecodeResult:
        """Received stream -> payload estimate.

        The drift decoder's priors are ``P(transmitted = 1)``
        per position: ``watermark XOR sparse`` with sparse density
        ``f`` gives ``P = 1 - f`` where the watermark bit is 1 and
        ``f`` where it is 0.
        """
        f = self.codebook.mean_density
        priors = np.where(self.watermark == 1, 1.0 - f, f)
        result = channel.decode(received, priors)
        # Posterior that the *sparse* bit is 1 = posterior the
        # transmitted bit differs from the watermark.
        post_t1 = result.posteriors
        post_sparse1 = np.where(self.watermark == 1, 1.0 - post_t1, post_t1)
        symbol_probs = self.codebook.map_block_posteriors(post_sparse1)
        llrs = self.codebook.symbol_bit_llrs(symbol_probs)
        coded_llrs = llrs[: (self.payload_bits + self.outer.memory)
                          * self.outer.rate_denominator]
        payload = self.outer.viterbi_decode(coded_llrs, terminated=True)
        ber = None
        if true_payload is not None:
            truth = np.asarray(true_payload, dtype=np.int64)
            ber = float((payload != truth).mean())
        return WatermarkDecodeResult(
            payload=payload,
            bit_error_rate=ber,
            drift_map=result.drift_map,
            log_likelihood=result.log_likelihood,
        )

    # ------------------------------------------------------------------
    def simulate_frame(
        self,
        channel: DriftChannelModel,
        rng: np.random.Generator,
    ) -> WatermarkDecodeResult:
        """Random payload end-to-end through *channel*; returns the
        decode result with its measured bit error rate."""
        payload = rng.integers(0, 2, self.payload_bits)
        tx = self.encode(payload)
        ry, _events = channel.transmit(tx, rng)
        return self.decode(ry, channel, true_payload=payload)
