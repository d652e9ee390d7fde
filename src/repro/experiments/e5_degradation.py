"""E5 — §4.3 remark: capacity degradation is roughly proportional to
``P_d``.

Two series:

* the erasure-bound degradation, which is *exactly* ``P_d`` (slope 1,
  intercept 0, R^2 = 1);
* the Theorem-5 achievable-rate degradation at a fixed small ``P_i``,
  which is ``P_d`` plus an insertion-driven offset — still slope ~1 in
  ``P_d``, verified by a least-squares fit.
"""

from __future__ import annotations

import numpy as np

from ..core.degradation import (
    degradation_series,
    fit_degradation,
    relative_degradation_upper,
)
from .tables import ExperimentResult

__all__ = ["run"]

DELETION_PROBS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)


# The run's settings, read at call time.
BITS_PER_SYMBOL = 4
INSERTION_PROB = 0.05


def run() -> ExperimentResult:
    """Execute E5 and return the result table (deterministic)."""
    pds = np.asarray(DELETION_PROBS, dtype=float)
    upper_series = np.asarray([relative_degradation_upper(p) for p in pds])
    lower_series = degradation_series(
        BITS_PER_SYMBOL, pds, insertion_prob=INSERTION_PROB
    )
    fit_upper = fit_degradation(pds, upper_series)
    fit_lower = fit_degradation(pds, lower_series)

    rows = []
    for pd, du, dl in zip(pds, upper_series, lower_series):
        rows.append(
            {
                "P_d": float(pd),
                "erasure degradation": float(du),
                f"achievable degr (Pi={INSERTION_PROB})": float(dl),
            }
        )
    rows.append(
        {
            "P_d": "fit slope",
            "erasure degradation": fit_upper.slope,
            f"achievable degr (Pi={INSERTION_PROB})": fit_lower.slope,
        }
    )
    rows.append(
        {
            "P_d": "fit R^2",
            "erasure degradation": fit_upper.r_squared,
            f"achievable degr (Pi={INSERTION_PROB})": fit_lower.r_squared,
        }
    )
    passed = (
        abs(fit_upper.slope - 1.0) < 1e-9
        and abs(fit_upper.intercept) < 1e-9
        and abs(fit_lower.slope - 1.0) < 0.1
        and fit_lower.r_squared > 0.999
    )
    return ExperimentResult(
        experiment_id="E5",
        title="Capacity degradation vs deletion probability",
        paper_claim=(
            "Section 4.3: the capacity degradation due to non-synchronous "
            "effects is roughly proportional to P_d"
        ),
        columns=[
            "P_d",
            "erasure degradation",
            f"achievable degr (Pi={INSERTION_PROB})",
        ],
        rows=rows,
        passed=passed,
        notes=(
            "Erasure-bound degradation is exactly P_d; the achievable-rate "
            "series adds a constant insertion offset but keeps slope ~1."
        ),
    )
