"""E2 — Theorem 3: the resend protocol achieves the erasure capacity of
a deletion channel with perfect feedback.

Sweeping ``p_d``, the simulated resend-until-acknowledged rate (bits
per channel use) should match ``N (1 - p_d)`` to within Monte-Carlo
noise — the bound of Theorem 2 is tight, which is the content of
Theorem 3.
"""

from __future__ import annotations

from ..core.events import ChannelParameters
from ..core.theorems import theorem3_feedback_capacity
from ..simulation.rng import make_rng
from ..sync.feedback import ResendProtocol
from .tables import ExperimentResult

__all__ = ["run"]

DELETION_PROBS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7)


# The run's settings, read at call time.
BITS_PER_SYMBOL = 3
NUM_SYMBOLS = 100_000
TOLERANCE = 0.02


def run(*, seed: int = 0) -> ExperimentResult:
    """Execute E2 and return the result table."""
    rng = make_rng(seed)
    n = BITS_PER_SYMBOL
    rows = []
    passed = True
    for pd in DELETION_PROBS:
        params = ChannelParameters.from_rates(deletion=pd, insertion=0.0)
        protocol = ResendProtocol(params, bits_per_symbol=n)
        message = rng.integers(0, 2**n, NUM_SYMBOLS)
        run_record = protocol.run(message, rng)
        measured = run_record.throughput_per_use
        theory = theorem3_feedback_capacity(n, pd)
        rel_err = abs(measured - theory) / theory if theory else abs(measured)
        ok = rel_err < TOLERANCE and run_record.symbol_errors == 0
        passed = passed and ok
        rows.append(
            {
                "p_d": pd,
                "measured bits/use": measured,
                "theory N(1-pd)": theory,
                "rel err": rel_err,
                "symbol errors": run_record.symbol_errors,
                "ok": ok,
            }
        )
    return ExperimentResult(
        experiment_id="E2",
        title="Resend protocol over a deletion channel with feedback",
        paper_claim=(
            "Theorem 3: capacity of a deletion channel with perfect "
            "feedback equals the erasure capacity N (1 - p_d)"
        ),
        columns=[
            "p_d",
            "measured bits/use",
            "theory N(1-pd)",
            "rel err",
            "symbol errors",
            "ok",
        ],
        rows=rows,
        passed=passed,
        notes="Zero symbol errors: the protocol removes all drop-outs.",
    )
