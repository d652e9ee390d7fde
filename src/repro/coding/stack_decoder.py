"""Zigangirov-style sequential (stack) decoding with drift hypotheses.

Reference [12] of the paper: K. Sh. Zigangirov, "Sequential decoding
for a binary channel with drop-outs and insertions" (1969) — the first
demonstration that convolutional codes plus sequential decoding give
reliable communication over a non-synchronous channel *without
feedback*.

This implementation explores a tree whose nodes carry
``(input position, drift, encoder state)``: each hypothesis extends the
convolutional code trellis by one information bit while simultaneously
hypothesizing the channel events (insertions / deletion / transmission)
that consumed the corresponding received bits, scored with a
Fano-style metric (log-likelihood minus a rate bias). A bounded-size
stack (priority queue) keeps the search laptop-friendly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .convolutional import ConvolutionalCode

__all__ = ["StackDecoder", "StackDecodeResult"]


@dataclass(frozen=True)
class StackDecodeResult:
    """Outcome of a sequential decode.

    Attributes
    ----------
    payload:
        Decoded information bits (without the flush tail).
    completed:
        False if the node budget ran out before reaching the end of the
        frame; the best partial path's bits are returned anyway.
    """

    payload: np.ndarray
    completed: bool


class StackDecoder:
    """Stack decoding of a terminated convolutional code over a
    Definition-1 bit channel.

    Parameters
    ----------
    code:
        The outer convolutional code.
    insertion_prob, deletion_prob, substitution_prob:
        Channel parameters (the decoder's model; should match the true
        channel for best performance).
    max_nodes:
        Search budget.

    The Fano metric bias per *received* bit consumed is the code rate in
    bits, the classic choice. Drift hypotheses are confined to
    ``[-12, +12]``, and at most two insertions are hypothesized while
    consuming one coded bit.
    """

    def __init__(
        self,
        code: ConvolutionalCode,
        *,
        insertion_prob: float,
        deletion_prob: float,
        substitution_prob: float = 0.0,
        max_nodes: int = 200_000,
    ) -> None:
        for name, v in (
            ("insertion_prob", insertion_prob),
            ("deletion_prob", deletion_prob),
            ("substitution_prob", substitution_prob),
        ):
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if insertion_prob + deletion_prob >= 1.0:
            raise ValueError("P_i + P_d must be < 1")
        self.code = code
        self.pi = insertion_prob
        self.pd = deletion_prob
        self.pt = 1.0 - insertion_prob - deletion_prob
        self.ps = substitution_prob
        self.bias = 1.0 / code.rate_denominator
        self.max_nodes = max_nodes
        self.max_drift = 12
        self.max_ins = 2

    # ------------------------------------------------------------------
    def _bit_extensions(self, coded_bit: int, y: np.ndarray, j: int):
        """Hypotheses for how one coded bit went through the channel.

        Yields ``(log_prob, consumed_outputs)`` pairs: ``k`` insertions
        (each matching the observed bit with probability 1/2) followed
        by a deletion or a (possibly substituted) transmission.
        """
        m = y.size
        log_half = np.log(0.5)
        log_pi = np.log(self.pi) if self.pi > 0 else -np.inf
        for k in range(self.max_ins + 1):
            if j + k > m:
                break
            ins_lp = k * (log_pi + log_half) if k else 0.0
            if self.pd > 0:
                yield ins_lp + np.log(self.pd), k
            if j + k < m:
                obs = int(y[j + k])
                if obs == coded_bit:
                    emit = 1.0 - self.ps
                else:
                    emit = self.ps
                if emit > 0:
                    yield ins_lp + np.log(self.pt * emit), k + 1

    def decode(
        self,
        received: np.ndarray,
        num_payload_bits: int,
    ) -> StackDecodeResult:
        """Sequentially decode *received* into *num_payload_bits* bits.

        The encoder is assumed terminated (``memory`` flush zeros), so
        hypotheses beyond the payload extend only with zero bits.
        """
        y = np.asarray(received, dtype=np.int64)
        if y.ndim != 1:
            raise ValueError("received must be 1-D")
        if num_payload_bits < 1:
            raise ValueError("num_payload_bits must be >= 1")
        code = self.code
        total_steps = num_payload_bits + code.memory
        nsym = code.rate_denominator

        # Node: (neg_metric, tiebreak, step, state, out_pos, bits_tuple)
        counter = itertools.count()
        heap = [(-0.0, next(counter), 0, 0, 0, ())]
        best_partial = (0, ())  # (step, bits)
        nodes = 0
        while heap and nodes < self.max_nodes:
            neg_metric, _tb, step, state, j, bits = heapq.heappop(heap)
            metric = -neg_metric
            nodes += 1
            if step == total_steps:
                # Require (approximately) consuming the whole stream:
                # leftover outputs are unexplained insertions.
                leftover = y.size - j
                if 0 <= leftover <= self.max_drift:
                    tail_lp = leftover * (
                        (np.log(self.pi) if self.pi > 0 else -np.inf)
                        + np.log(0.5)
                    ) if leftover else 0.0
                    if np.isfinite(tail_lp):
                        payload = np.asarray(
                            bits[:num_payload_bits], dtype=np.int64
                        )
                        return StackDecodeResult(payload=payload, completed=True)
                continue
            if step > best_partial[0]:
                best_partial = (step, bits)
            drift = j - step * nsym
            if abs(drift) > self.max_drift * nsym:
                continue
            choices = (0, 1) if step < num_payload_bits else (0,)
            for b in choices:
                register = (b << code.memory) | state
                out_bits = [
                    bin(register & g).count("1") & 1 for g in code.generators
                ]
                next_state = register >> 1
                # Fold the nsym coded bits of this branch one at a time.
                partials = [(0.0, j)]
                for cb in out_bits:
                    new_partials = []
                    for lp, jj in partials:
                        for ext_lp, used in self._bit_extensions(cb, y, jj):
                            new_partials.append((lp + ext_lp, jj + used))
                    partials = new_partials
                    if not partials:
                        break
                for lp, jj in partials:
                    consumed = jj - j
                    new_metric = metric + float(lp) + self.bias * consumed
                    heapq.heappush(
                        heap,
                        (
                            -new_metric,
                            next(counter),
                            step + 1,
                            next_state,
                            jj,
                            bits + (b,),
                        ),
                    )

        # Budget exhausted: return the deepest partial path, zero-padded.
        step, bits = best_partial
        payload = np.zeros(num_payload_bits, dtype=np.int64)
        got = min(len(bits), num_payload_bits)
        payload[:got] = bits[:got]
        return StackDecodeResult(payload=payload, completed=False)
