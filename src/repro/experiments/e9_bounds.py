"""E9 — §4.1 + refs [8][9]: numerical capacity bounds for the
no-feedback deletion channel.

For a ``p_d`` sweep the bound ladder

    Gallager lower, finite-block (Vvedenskaya-Dobrushin-style) lower
        <= true capacity <= erasure upper = feedback capacity

is computed and checked for ordering. The gap between ``best_lower``
and the feedback column is the price of not having a feedback path —
the quantity the paper's Section 4 narrative revolves around.
"""

from __future__ import annotations

from ..bounds.brackets import capacity_bracket_sweep
from .tables import ExperimentResult

__all__ = ["run"]

DELETION_PROBS = (0.05, 0.1, 0.2, 0.3, 0.5)


# The run's settings, read at call time.
BLOCK_LENGTH = 8


def run() -> ExperimentResult:
    """Execute E9 and return the result table (deterministic)."""
    rows = []
    passed = True
    for bracket in capacity_bracket_sweep(
        DELETION_PROBS, block_length=BLOCK_LENGTH
    ):
        ok = bracket.is_consistent()
        passed = passed and ok
        rows.append(
            {
                "p_d": bracket.deletion_prob,
                "Gallager LB": bracket.gallager_lower,
                f"block-{BLOCK_LENGTH} LB": bracket.block_lower,
                "best LB": bracket.best_lower,
                "erasure UB": bracket.erasure_upper,
                "feedback C": bracket.feedback_capacity,
                "ok": ok,
            }
        )
    return ExperimentResult(
        experiment_id="E9",
        title="Deletion-channel capacity bracket (no feedback)",
        paper_claim=(
            "Section 4.1: accurate deletion-insertion capacity is "
            "unknown; numerical lower bounds and the erasure upper bound "
            "bracket it, and feedback closes the bracket to its upper edge"
        ),
        columns=[
            "p_d",
            "Gallager LB",
            f"block-{BLOCK_LENGTH} LB",
            "best LB",
            "erasure UB",
            "feedback C",
            "ok",
        ],
        rows=rows,
        passed=passed,
        notes=(
            "Finite-block lower bounds carry a log2(n+1)/n boundary "
            "penalty; the Gallager bound dominates at moderate p_d."
        ),
    )
