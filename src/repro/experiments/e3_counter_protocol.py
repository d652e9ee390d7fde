"""E3 — Theorem 5 / Appendix A: the counter protocol converts a
deletion-insertion channel into an M-ary symmetric DMC and achieves the
feedback lower bound.

For a sweep of ``(P_d, P_i)`` the experiment verifies three things:

1. the measured substitution rate of the converted stream equals
   ``alpha * P_i / (1 - P_d)`` (the fraction of received positions that
   are insertions, times the accidental-match factor ``alpha``);
2. the information rate through the converted channel (measured
   substitution rate plugged into the M-ary symmetric capacity, scaled
   to sender slots) matches the *exact* form of the Theorem-5 bound;
3. the paper's printed bound (eq. 2/3, which uses the per-use ``P_i``
   instead of the per-received-position fraction) coincides when
   ``P_d = 0`` and sits slightly above the exact rate otherwise — a
   reproduction finding recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Tuple

from ..core.capacity import alpha, converted_insertion_fraction
from ..core.events import ChannelParameters
from ..simulation.rng import make_rng
from ..sync.feedback import CounterProtocol
from ..sync.harness import measure_protocol
from .tables import ExperimentResult

__all__ = ["run"]

SWEEP: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.05),
    (0.0, 0.15),
    (0.1, 0.1),
    (0.2, 0.1),
    (0.15, 0.25),
)


# The run's settings, read at call time.
BITS_PER_SYMBOL = 3
NUM_SYMBOLS = 150_000
TOLERANCE = 0.03


def run(*, seed: int = 0) -> ExperimentResult:
    """Execute E3 and return the result table."""
    rng = make_rng(seed)
    n = BITS_PER_SYMBOL
    rows = []
    passed = True
    for pd, pi in SWEEP:
        params = ChannelParameters.from_rates(deletion=pd, insertion=pi)
        protocol = CounterProtocol(params, bits_per_symbol=n)
        message = rng.integers(0, 2**n, NUM_SYMBOLS)
        m = measure_protocol(protocol, message, rng)
        expected_sub = alpha(n) * converted_insertion_fraction(pd, pi)
        sub_ok = abs(m.empirical_substitution_rate - expected_sub) < max(
            0.01, 0.1 * expected_sub
        )
        rate_ok = (
            abs(m.empirical_information_per_slot - m.theoretical_lower_exact)
            < TOLERANCE * n
        )
        order_ok = (
            m.theoretical_lower_exact
            <= m.theoretical_lower_paper + 1e-9
            <= m.theoretical_upper + 1e-9
        )
        ok = sub_ok and rate_ok and order_ok
        passed = passed and ok
        rows.append(
            {
                "P_d": pd,
                "P_i": pi,
                "sub rate (sim)": m.empirical_substitution_rate,
                "sub rate (theory)": expected_sub,
                "rate/slot (sim)": m.empirical_information_per_slot,
                "exact LB": m.theoretical_lower_exact,
                "paper LB": m.theoretical_lower_paper,
                "UB N(1-Pd)": m.theoretical_upper,
                "ok": ok,
            }
        )
    return ExperimentResult(
        experiment_id="E3",
        title="Counter protocol: converted channel and Theorem-5 rate",
        paper_claim=(
            "Theorem 5 / eqs. (2)-(5): the counter protocol converts the "
            "channel to an M-ary symmetric DMC and achieves "
            "((1-P_d)/(1-P_i)) C_conv"
        ),
        columns=[
            "P_d",
            "P_i",
            "sub rate (sim)",
            "sub rate (theory)",
            "rate/slot (sim)",
            "exact LB",
            "paper LB",
            "UB N(1-Pd)",
            "ok",
        ],
        rows=rows,
        passed=passed,
        notes=(
            "Simulation tracks the exact bound (insertion fraction "
            "P_i/(1-P_d)); the paper's eq. (3) uses P_i directly and is "
            "slightly optimistic for P_d > 0 — equal at P_d = 0."
        ),
    )
