"""Covert-channel design helpers: choosing the symbol width.

The paper's bounds grow with the symbol width ``N`` — ``N (1 − P_d)``
is unbounded in ``N`` — but real covert channels pay for wide symbols.
Two canonical cost models:

* ``"serial"`` — the symbol is written bit by bit into the shared
  resource: symbol time ``N`` time units. Here the
  physical rate ``R(N) = C_lower_exact(N) / time(N)`` is *monotone
  increasing* in ``N`` (the per-symbol entropy penalty ``H(alpha q)``
  amortizes), saturating at ``(1 - P_d)/(1 - P_i) (1 - q)``
  — so the only reason to stop widening is implementation limits, a
  useful but unsurprising fact.
* ``"timing"`` — the symbol is one of ``2^N`` distinguishable delays
  (an STC-style channel): symbol time grows like the *mean* delay
  ``(2^N + 1)/2``. The numerator grows
  linearly while the denominator grows exponentially, so the rate has
  an **interior optimum** — the "how many timing levels should the
  attacker use?" question, answered by :func:`optimal_symbol_width`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .capacity import feedback_lower_bound_exact

__all__ = [
    "WidthDesign",
    "symbol_time",
    "width_sweep",
    "optimal_symbol_width",
]

_COST_MODELS = ("serial", "timing")


@dataclass(frozen=True)
class WidthDesign:
    """One point of the width trade-off curve."""

    bits_per_symbol: int
    rate_per_time: float


def symbol_time(
    bits_per_symbol: int,
    *,
    cost_model: str = "serial",
) -> float:
    """Time units to convey one symbol under the chosen cost model."""
    if bits_per_symbol < 1:
        raise ValueError("bits_per_symbol must be >= 1")
    if cost_model not in _COST_MODELS:
        raise ValueError(f"cost_model must be one of {_COST_MODELS}")
    if cost_model == "serial":
        return float(bits_per_symbol)
    # timing: 2^N equiprobable delays 1..2^N time units -> mean delay.
    return (2**bits_per_symbol + 1) / 2.0


def width_sweep(
    deletion_prob: float,
    insertion_prob: float,
    *,
    max_bits: int = 16,
    cost_model: str = "serial",
) -> List[WidthDesign]:
    """The rate curve over ``N = 1 .. max_bits``."""
    if max_bits < 1:
        raise ValueError("max_bits must be >= 1")
    out = []
    for n in range(1, max_bits + 1):
        per_slot = feedback_lower_bound_exact(n, deletion_prob, insertion_prob)
        t = symbol_time(n, cost_model=cost_model)
        out.append(
            WidthDesign(
                bits_per_symbol=n,
                rate_per_time=per_slot / t,
            )
        )
    return out


def optimal_symbol_width(
    deletion_prob: float,
    insertion_prob: float,
    *,
    max_bits: int = 16,
    cost_model: str = "timing",
) -> WidthDesign:
    """The ``N`` maximizing the physical rate over ``1 .. max_bits``.

    Under the ``"timing"`` model the optimum is interior and small
    (typically 1-3 bits — exponentially slower symbols are not worth
    their linear information gain); under ``"serial"`` the curve is
    monotone and the optimum is ``max_bits``.
    """
    sweep = width_sweep(
        deletion_prob, insertion_prob, max_bits=max_bits, cost_model=cost_model
    )
    return max(sweep, key=lambda d: d.rate_per_time)
