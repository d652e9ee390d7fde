"""Capacity-bracket sweeps combining all bound families (experiment E9).

For each deletion probability in a sweep this produces the full ladder

    Gallager lower <= block lower <= (true capacity) <= erasure upper

plus the feedback-assisted capacities from the paper's theorems, so the
cost of *not* having feedback is visible in one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.capacity import feedback_lower_bound
from ..infotheory.probability import validate_probability
from .deletion import (
    block_bound_sweep,
    erasure_upper_bound_binary,
    gallager_lower_bound,
)

__all__ = ["BracketRow", "capacity_bracket_sweep"]


@dataclass(frozen=True)
class BracketRow:
    """One row of the E9 bracket table (binary alphabet, N = 1).

    The finite-block solve behind ``block_lower`` reports its
    :class:`repro.numerics.SolverStatus` through
    :func:`repro.numerics.record_status`, as every block sweep does.
    """

    deletion_prob: float
    gallager_lower: float
    block_lower: float
    best_lower: float
    erasure_upper: float
    feedback_capacity: float

    def __post_init__(self) -> None:
        validate_probability(self.deletion_prob, "deletion_prob")

    def is_consistent(self) -> bool:
        """All bounds in the right order (lower <= upper ladder)."""
        return (
            0.0 <= self.best_lower <= self.erasure_upper + 1e-12
            and self.best_lower >= max(self.gallager_lower, self.block_lower) - 1e-12
            and abs(self.feedback_capacity - self.erasure_upper) < 1e-12
        )


def capacity_bracket_sweep(
    deletion_probs: Sequence[float],
    *,
    block_length: int = 8,
) -> List[BracketRow]:
    """Compute the bound ladder for each ``p_d`` in *deletion_probs*.

    The feedback capacity column is the paper's Theorem 3 value
    ``1 - p_d`` (N = 1) — with feedback the bracket collapses to its
    upper edge, the quantitative content of Section 4.2.1.

    The finite-block column is computed for the whole grid at once by
    :func:`repro.bounds.deletion.block_bound_sweep` — one shared table
    build plus a single batched Blahut-Arimoto invocation (memoized
    per point when a result store is active).
    """
    rows = []
    blocks = block_bound_sweep(deletion_probs, block_length=block_length)
    for pd, block in zip(deletion_probs, blocks):
        pd = float(pd)
        gallager = gallager_lower_bound(pd)
        rows.append(
            BracketRow(
                deletion_prob=pd,
                gallager_lower=gallager,
                block_lower=block.lower_bound,
                best_lower=max(gallager, block.lower_bound),
                erasure_upper=erasure_upper_bound_binary(pd),
                feedback_capacity=feedback_lower_bound(1, pd, 0.0),
            )
        )
    return rows
