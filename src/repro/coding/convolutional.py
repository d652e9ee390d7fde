"""Binary convolutional codes with Viterbi decoding.

The outer-code workhorse for the no-feedback coding experiments (E8):
Zigangirov's 1969 construction protected a dropout/insertion channel
with a convolutional code, and Davey & MacKay's watermark scheme needs
an outer code over the effective substitution channel left behind by
the inner drift decoder. This implementation supports arbitrary
rate-1/n feed-forward generators, hard-decision and soft (LLR) branch
metrics, and terminated trellises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["ConvolutionalCode", "NASA_CC_GENERATORS"]

#: The classic constraint-length-7, rate-1/2 "Voyager" generators
#: (133, 171 octal), a convenient strong default.
NASA_CC_GENERATORS = (0o133, 0o171)


def _popcount_parity(x: np.ndarray) -> np.ndarray:
    """Elementwise parity of the set bits of *x* (int array)."""
    x = x.copy()
    parity = np.zeros_like(x)
    while np.any(x):
        parity ^= x & 1
        x >>= 1
    return parity


@dataclass(frozen=True)
class ConvolutionalCode:
    """A feed-forward binary convolutional code of rate ``1/n``.

    Parameters
    ----------
    generators:
        Generator polynomials as integers; bit ``k`` (LSB = current
        input) taps the shift register ``k`` steps back. The constraint
        length is the bit-length of the largest generator.
    """

    generators: Tuple[int, ...]

    def __init__(self, generators: Sequence[int] = NASA_CC_GENERATORS) -> None:
        gens = tuple(int(g) for g in generators)
        if not gens:
            raise ValueError("need at least one generator polynomial")
        if any(g <= 0 for g in gens):
            raise ValueError("generator polynomials must be positive")
        if max(g.bit_length() for g in gens) < 2:
            raise ValueError("constraint length must be at least 2")
        object.__setattr__(self, "generators", gens)

    # ------------------------------------------------------------------
    @property
    def constraint_length(self) -> int:
        return max(g.bit_length() for g in self.generators)

    @property
    def memory(self) -> int:
        return self.constraint_length - 1

    @property
    def num_states(self) -> int:
        return 1 << self.memory

    @property
    def rate_denominator(self) -> int:
        """Output bits per input bit (the ``n`` of rate ``1/n``)."""
        return len(self.generators)

    # ------------------------------------------------------------------
    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode *bits*, appending ``memory`` flush zeros.

        Returns the interleaved output stream
        ``[g0(t0), g1(t0), ..., g0(t1), ...]``.
        """
        data = np.asarray(bits, dtype=np.int64)
        if data.ndim != 1:
            raise ValueError("bits must be 1-D")
        if data.size and not np.all((data == 0) | (data == 1)):
            raise ValueError("bits must be 0/1")
        data = np.concatenate([data, np.zeros(self.memory, dtype=np.int64)])
        state = 0
        out = np.empty(data.size * self.rate_denominator, dtype=np.int64)
        k = 0
        for b in data:
            register = (int(b) << self.memory) | state
            for g in self.generators:
                out[k] = bin(register & g).count("1") & 1
                k += 1
            state = register >> 1
        return out

    # ------------------------------------------------------------------
    def _build_trellis(self) -> Tuple[np.ndarray, np.ndarray]:
        """Next-state and output tables indexed by (state, input bit)."""
        states = np.arange(self.num_states)
        next_state = np.empty((self.num_states, 2), dtype=np.int64)
        outputs = np.empty(
            (self.num_states, 2, self.rate_denominator), dtype=np.int64
        )
        for b in (0, 1):
            register = (b << self.memory) | states
            next_state[:, b] = register >> 1
            for gi, g in enumerate(self.generators):
                outputs[:, b, gi] = _popcount_parity(register & g)
        return next_state, outputs

    def viterbi_decode(
        self,
        llrs: np.ndarray,
        *,
        terminated: bool = True,
    ) -> np.ndarray:
        """Maximum-likelihood sequence decoding from channel LLRs.

        Parameters
        ----------
        llrs:
            Per-coded-bit log-likelihood ratios
            ``log P(y | bit=0) - log P(y | bit=1)`` (so positive favors
            0). Hard decisions can be decoded by passing ``+1``/``-1``.
        terminated:
            If True the encoder appended flush zeros; the decoder forces
            the final state to 0 and strips the flush bits.

        Returns
        -------
        The decoded information bits.
        """
        metric_in = np.asarray(llrs, dtype=float)
        n = self.rate_denominator
        if metric_in.ndim != 1 or metric_in.size % n != 0:
            raise ValueError("llrs length must be a multiple of the rate denominator")
        steps = metric_in.size // n
        if terminated and steps < self.memory:
            raise ValueError("terminated stream shorter than the flush tail")
        next_state, outputs = self._build_trellis()

        # Branch metric: reward agreeing with the sign of the LLR.
        # Butterfly structure: state t at time k+1 has exactly two
        # predecessors s0 = 2*(t & half-1), s1 = s0 + 1, both via input
        # bit b_t = t >> (memory - 1) (the input bit is the new high
        # bit of the register, so it is determined by the target).
        num_states = self.num_states
        half = num_states >> 1
        t_idx = np.arange(num_states)
        b_t = t_idx >> (self.memory - 1)
        s0 = (t_idx & (half - 1)) << 1
        s1 = s0 + 1
        assert np.array_equal(next_state[s0, b_t], t_idx)  # structure check

        path = np.full(num_states, -np.inf)
        path[0] = 0.0
        prev_state = np.empty((steps, num_states), dtype=np.int64)
        llr_steps = metric_in.reshape(steps, n)
        signs = 1.0 - 2.0 * outputs  # (+1 for bit 0, -1 for bit 1)
        for t in range(steps):
            step_metric = signs @ llr_steps[t]  # (states, 2)
            cand0 = path[s0] + step_metric[s0, b_t]
            cand1 = path[s1] + step_metric[s1, b_t]
            take1 = cand1 > cand0
            path = np.where(take1, cand1, cand0)
            prev_state[t] = np.where(take1, s1, s0)

        end_state = 0 if terminated else int(np.argmax(path))
        bits = np.empty(steps, dtype=np.int64)
        s = end_state
        for t in range(steps - 1, -1, -1):
            bits[t] = s >> (self.memory - 1)
            s = prev_state[t, s]
        if terminated:
            bits = bits[: steps - self.memory]
        return bits
