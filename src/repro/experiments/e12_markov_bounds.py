"""E12 (extension) — bursty (Markov) inputs tighten the no-feedback
deletion bound.

The E9 bracket used i.i.d. block inputs. The deletion channel's
capacity-achieving inputs are bursty; optimizing a first-order Markov
source through the exact block table strictly improves the block
information, and increasingly so as ``p_d`` grows. The table reports
the optimal flip probability (``< 0.5`` = bursty), the block-information
gain, and the resulting corrected lower bounds.
"""

from __future__ import annotations

from ..bounds.deletion import gallager_lower_bound
from ..bounds.markov_input import optimize_markov_input_sweep
from .tables import ExperimentResult

__all__ = ["run"]

DELETION_PROBS = (0.1, 0.2, 0.3, 0.5)


# The run's settings, read at call time.
BLOCK_LENGTH = 8


def run() -> ExperimentResult:
    """Execute E12 and return the result table (deterministic).

    The grid's exact block tables are built once as a stack
    (:func:`repro.bounds.markov_input.optimize_markov_input_sweep`)
    instead of once per ``p_d`` point.
    """
    rows = []
    passed = True
    bounds = optimize_markov_input_sweep(
        BLOCK_LENGTH, [float(pd) for pd in DELETION_PROBS]
    )
    for pd, bound in zip(DELETION_PROBS, bounds):
        gallager = gallager_lower_bound(float(pd))
        ok = (
            bound.improvement_over_iid >= -1e-9
            and 0.0 < bound.best_flip_prob < 1.0
        )
        # The bursty advantage should grow with p_d (checked overall).
        passed = passed and ok
        rows.append(
            {
                "p_d": float(pd),
                "best flip f*": bound.best_flip_prob,
                "I_n (Markov)": bound.block_information,
                "I_n (iid)": bound.iid_information,
                "gain (bits)": bound.improvement_over_iid,
                "Markov LB": bound.lower_bound,
                "Gallager LB": gallager,
                "ok": ok,
            }
        )
    gains = [row["gain (bits)"] for row in rows]
    if gains != sorted(gains):
        passed = False
    return ExperimentResult(
        experiment_id="E12",
        title="Ablation: Markov-input deletion-channel bounds",
        paper_claim=(
            "Extension of §4.1 / refs [8][9]: numerical lower bounds "
            "improve with bursty inputs; the optimal Markov flip "
            "probability drops below 0.5 as p_d grows"
        ),
        columns=[
            "p_d",
            "best flip f*",
            "I_n (Markov)",
            "I_n (iid)",
            "gain (bits)",
            "Markov LB",
            "Gallager LB",
            "ok",
        ],
        rows=rows,
        passed=passed,
        notes=(
            f"Exact block computation at n = {BLOCK_LENGTH}; the "
            "log2(n+1)/n boundary penalty applies to the Markov LB "
            "column as in E9."
        ),
    )
