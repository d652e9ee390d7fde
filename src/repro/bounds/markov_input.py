"""Markov-input achievable rates for the deletion channel.

The capacity-achieving inputs of a deletion channel are *bursty*: long
runs survive deletions recognizably, so a first-order Markov input with
a low flip probability beats i.i.d. coin flips (Dobrushin's school
already computed such improvements numerically; modern work pushed the
same idea much further). This module optimizes the block information of
a symmetric binary Markov source through the exact finite-block
transition tables of :mod:`repro.bounds.deletion` for a whole ``p_d``
grid (a single point is a one-element grid), giving a strictly
better laptop-scale lower bound than the i.i.d. computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy import optimize

from ..infotheory.entropy import mutual_information
from ..infotheory.probability import is_one, is_zero, validate_probability
from .deletion import deletion_block_transition_stack

__all__ = [
    "markov_block_distribution",
    "MarkovInputBound",
    "optimize_markov_input_sweep",
]


def markov_block_distribution(n: int, flip_prob: float) -> np.ndarray:
    """Distribution over all ``2^n`` binary blocks from a symmetric
    first-order Markov source with transition (flip) probability *f*.

    The stationary distribution is uniform, so
    ``P(x^n) = (1/2) f^k (1-f)^{n-1-k}`` where ``k`` counts the
    adjacent disagreements in the block.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= flip_prob <= 1.0:
        raise ValueError("flip_prob must be in [0, 1]")
    codes = np.arange(1 << n, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(
        np.int8
    )
    if n == 1:
        return np.full(2, 0.5)
    flips = (bits[:, 1:] != bits[:, :-1]).sum(axis=1)
    f = flip_prob
    # Guard the degenerate endpoints: 0^0 = 1 by convention here.
    with np.errstate(divide="ignore"):
        probs = 0.5 * np.where(
            is_zero(f) & (flips > 0),
            0.0,
            np.where(
                is_one(f) & (flips < n - 1),
                0.0,
                (f**flips) * ((1 - f) ** (n - 1 - flips)),
            ),
        )
    return probs


@dataclass(frozen=True)
class MarkovInputBound:
    """Optimized Markov-input bound for one ``(n, p_d)`` point.

    Attributes
    ----------
    block_length, deletion_prob:
        The computation point.
    best_flip_prob:
        Optimal Markov flip probability (``0.5`` recovers i.i.d.).
    block_information:
        ``I(X^n; Y)`` at the optimum, bits.
    lower_bound:
        Dobrushin-corrected capacity lower bound
        ``(I_n - log2(n+1)) / n``.
    iid_information:
        ``I`` at ``flip = 0.5`` for comparison.
    """

    block_length: int
    deletion_prob: float
    best_flip_prob: float
    block_information: float
    lower_bound: float
    iid_information: float

    def __post_init__(self) -> None:
        validate_probability(self.deletion_prob, "deletion_prob")
        validate_probability(self.best_flip_prob, "best_flip_prob")

    @property
    def improvement_over_iid(self) -> float:
        """Bits of block information gained over the i.i.d. input."""
        return self.block_information - self.iid_information


def _optimize_over_flip(
    n: int, deletion_prob: float, transition: np.ndarray
) -> MarkovInputBound:
    """The 1-D flip-probability search over a prebuilt block table."""

    def objective(f: float) -> float:
        dist = markov_block_distribution(n, f)
        return -mutual_information(dist, transition)

    result = optimize.minimize_scalar(
        objective, bounds=(1e-4, 0.9999), method="bounded",
        options={"xatol": 1e-6},
    )
    best_f = float(result.x)
    best_info = float(-result.fun)
    iid_info = float(-objective(0.5))
    lower = max(0.0, (best_info - np.log2(n + 1)) / n)
    return MarkovInputBound(
        block_length=n,
        deletion_prob=deletion_prob,
        best_flip_prob=best_f,
        block_information=best_info,
        lower_bound=float(lower),
        iid_information=iid_info,
    )


def optimize_markov_input_sweep(
    n: int, deletion_probs: Sequence[float]
) -> List[MarkovInputBound]:
    """Optimize the Markov input for a whole ``p_d`` grid at once.

    Each point is a 1-D bounded search over the flip probability; the
    objective is smooth and unimodal in practice over ``f in (0, 1)``
    for the deletion channel. The exact block tables for the grid come
    from one
    :func:`repro.bounds.deletion.deletion_block_transition_stack` call
    — the subsequence-counting DP (the dominant cost at ``n = 8``) runs
    once instead of once per grid point.
    """
    pds = [float(p) for p in deletion_probs]
    stack, _groups = deletion_block_transition_stack(n, pds)
    return [
        _optimize_over_flip(n, pd, stack[i])
        for i, pd in enumerate(pds)
    ]
