"""Iterative watermark decoding: inner drift decoder + outer LDPC.

Davey & MacKay's receiver iterates between the synchronization (drift)
decoder and the outer code: the outer code's beliefs about the sparse
bits sharpen the inner decoder's priors, which re-aligns the drift
lattice, which improves the bit likelihoods, and so on. This module
implements that loop with the binary LDPC of :mod:`repro.coding.ldpc`
as the outer code:

1. position priors ``P(t_j = 1)`` are assembled from the current
   sparse-bit beliefs and the known watermark;
2. the forward-backward drift decoder produces position posteriors;
3. the *channel evidence* (posterior vs prior log-odds) per position is
   combined with the outer beliefs into coded-bit LLRs;
4. a few outer BP iterations produce updated coded-bit beliefs, which
   map back to sparse-position beliefs for the next round.

The feedback uses full posteriors with damping rather than strict
extrinsic separation — the standard engineering shortcut, noted here so
nobody mistakes it for exact message passing. Experiment E11 measures
the per-iteration BER gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..numerics import IterationGuard, SolverStatus, record_status, safe_log
from .forward_backward import DriftChannelModel
from .ldpc import LDPCCode, make_peg_parity_check
from .watermark import SparseCodebook

__all__ = ["IterativeWatermarkCode", "IterativeDecodeResult"]

_EPS = 1e-9

#: Weight of the new outer beliefs when updating the priors (1.0 would
#: replace them; smaller is smoother).
DAMPING = 0.8


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, _EPS, 1.0 - _EPS)
    return np.log(p / (1.0 - p))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -40, 40)))


@dataclass(frozen=True)
class IterativeDecodeResult:
    """Outcome of an iterative decode.

    Attributes
    ----------
    payload:
        Decoded information bits.
    bit_error_rate:
        Against ``true_payload`` when provided.
    converged:
        Whether the outer code's syndrome check passed (early stop).
    status:
        Terminal :class:`repro.numerics.SolverStatus` of the outer
        loop; the residual tracked is the syndrome weight, so a loop
        whose syndrome weight cycles without improving is ``stalled``
        rather than merely non-``converged``.
    """

    payload: np.ndarray
    bit_error_rate: Optional[float]
    converged: bool
    status: SolverStatus = SolverStatus.CONVERGED


class IterativeWatermarkCode:
    """Watermark code with an LDPC outer code and iterative decoding.

    The outer code is a rate-1/2 PEG code of block length 96; its
    ``message_length`` is the frame payload size. The sparse mapping is
    3 -> 7, and the shared pseudorandom watermark is drawn from seed
    2005. Updated priors weigh the new outer beliefs by
    :data:`DAMPING`.
    """

    def __init__(self) -> None:
        h = make_peg_parity_check(96, 3, 48, np.random.default_rng(7))
        self.ldpc = LDPCCode(h)
        self.codebook = SparseCodebook(3, 7)
        coded_len = self.ldpc.block_length
        rem = (-coded_len) % self.codebook.bits_in
        self._coded_padded = coded_len + rem
        self._num_symbols = self._coded_padded // self.codebook.bits_in
        self.frame_length = self._num_symbols * self.codebook.bits_out
        wm_rng = np.random.default_rng(2005)
        self.watermark = wm_rng.integers(0, 2, self.frame_length).astype(np.int64)

    @property
    def payload_bits(self) -> int:
        return self.ldpc.message_length

    @property
    def rate(self) -> float:
        return self.payload_bits / self.frame_length

    # ------------------------------------------------------------------
    def encode(self, payload: np.ndarray) -> np.ndarray:
        data = np.asarray(payload, dtype=np.int64)
        if data.shape != (self.payload_bits,):
            raise ValueError(f"payload must have shape ({self.payload_bits},)")
        coded = self.ldpc.encode(data)
        padded = np.concatenate(
            [coded, np.zeros(self._coded_padded - coded.size, dtype=np.int64)]
        )
        sparse = self.codebook.encode(padded)
        return sparse ^ self.watermark

    # ------------------------------------------------------------------
    def _positions_from_coded_beliefs(self, coded_p1: np.ndarray) -> np.ndarray:
        """Coded-bit beliefs -> per-transmitted-position P(sparse = 1).

        For each sparse block, the symbol distribution implied by the
        (assumed independent) coded-bit beliefs is pushed through the
        codebook to position marginals.
        """
        w = self.codebook.bits_in
        blocks = coded_p1.reshape(-1, w)
        idx = np.arange(1 << w)
        bit_patterns = ((idx[:, None] >> np.arange(w - 1, -1, -1)[None, :]) & 1)
        # P(symbol) = prod over bits of belief (blocks x symbols).
        logp = safe_log(blocks, floor=_EPS)
        log1m = safe_log(1 - blocks, floor=_EPS)
        scores = logp @ bit_patterns.T + log1m @ (1 - bit_patterns).T
        scores -= scores.max(axis=1, keepdims=True)
        sym = np.exp(scores)
        sym /= sym.sum(axis=1, keepdims=True)
        # Position marginals: P(pos=1) = sum_word P(word) word[pos].
        pos = sym @ self.codebook.words.astype(float)
        return pos.reshape(-1)

    def decode(
        self,
        received: np.ndarray,
        channel: DriftChannelModel,
        *,
        iterations: int = 3,
        true_payload: Optional[np.ndarray] = None,
    ) -> IterativeDecodeResult:
        """Iterative inner/outer decoding of one frame."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        f = self.codebook.mean_density
        # Sparse-position beliefs start at the codebook density f.
        pos_sparse1 = np.full(self.frame_length, f)
        truth = (
            np.asarray(true_payload, dtype=np.int64)
            if true_payload is not None
            else None
        )
        payload = np.zeros(self.payload_bits, dtype=np.int64)
        # The residual is the outer code's syndrome weight: zero means
        # the syndrome check passed (the legacy ``converged`` flag).
        guard = IterationGuard(
            "iterative_watermark", max_iter=iterations, tol=0.0
        )
        status: Optional[SolverStatus] = None
        while status is None:
            priors_t = np.where(
                self.watermark == 1, 1.0 - pos_sparse1, pos_sparse1
            )
            result = channel.decode(received, priors_t)
            post_t1 = result.posteriors
            post_sparse1 = np.where(
                self.watermark == 1, 1.0 - post_t1, post_t1
            )
            # Channel evidence per position (posterior minus prior odds).
            evidence = _logit(post_sparse1) - _logit(pos_sparse1)
            # Position channel-likelihood P(channel | sparse bit).
            chan_p1 = _sigmoid(evidence)
            sym_probs = self.codebook.map_block_posteriors(chan_p1)
            llrs = self.codebook.symbol_bit_llrs(sym_probs)
            coded_llrs = llrs[: self.ldpc.block_length]
            decoded, ok, posterior_llrs = self.ldpc.decode_soft(
                coded_llrs, max_iterations=30
            )
            payload = self.ldpc.extract_message(decoded)
            syndrome_weight = float(self.ldpc.syndrome(decoded).sum())
            status = guard.update(syndrome_weight, value=payload)
            if status is not None:
                break
            # Outer BP posteriors -> updated sparse-position priors
            # (damped). Temper the confidence so a wrong belief from a
            # non-converged BP round cannot lock the drift decoder in.
            outer_p1 = _sigmoid(-0.5 * posterior_llrs)
            full = np.concatenate(
                [outer_p1, np.zeros(self._coded_padded - outer_p1.size)]
            )
            new_pos = self._positions_from_coded_beliefs(full)
            pos_sparse1 = (
                DAMPING * new_pos + (1 - DAMPING) * pos_sparse1
            )
            pos_sparse1 = np.clip(pos_sparse1, 1e-4, 1 - 1e-4)
        record_status("iterative_watermark", status)

        ber = float((payload != truth).mean()) if truth is not None else None
        return IterativeDecodeResult(
            payload=payload,
            bit_error_rate=ber,
            converged=status is SolverStatus.CONVERGED,
            status=status,
        )

    def simulate_frame(
        self,
        channel: DriftChannelModel,
        rng: np.random.Generator,
        *,
        iterations: int = 3,
    ) -> IterativeDecodeResult:
        """Random payload end-to-end through *channel*."""
        payload = rng.integers(0, 2, self.payload_bits)
        tx = self.encode(payload)
        ry, _ = channel.transmit(tx, rng)
        return self.decode(
            ry, channel, iterations=iterations, true_payload=payload
        )
