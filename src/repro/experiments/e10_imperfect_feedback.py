"""E10 (extension) — what the perfect-feedback assumption is worth.

The paper derives its bounds assuming a perfect feedback path (§4.2).
This ablation runs the alternating-bit protocol over a deletion channel
whose acknowledgments are lost with probability ``q`` and confirms the
closed-form rate ``N (1 - p_d)(1 - q)``: feedback imperfection costs a
multiplicative ``(1 - q)``, and the paper's Theorem 3 is the ``q = 0``
row. Relevant to the paper's MLS remark too — a noisy legal low-to-high
flow still yields most of the capacity.
"""

from __future__ import annotations

from typing import Tuple

from ..core.events import ChannelParameters
from ..infotheory.probability import is_zero
from ..simulation.rng import make_rng
from ..sync.imperfect_feedback import (
    AlternatingBitProtocol,
    BlockAckProtocol,
    lossy_feedback_capacity,
)
from .tables import ExperimentResult

__all__ = ["run"]

SWEEP: Tuple[Tuple[float, float], ...] = (
    (0.1, 0.0),
    (0.1, 0.1),
    (0.1, 0.3),
    (0.3, 0.0),
    (0.3, 0.1),
    (0.3, 0.3),
)


# The run's settings, read at call time.
BITS_PER_SYMBOL = 2
NUM_SYMBOLS = 80_000
TOLERANCE = 0.03


def run(*, seed: int = 0) -> ExperimentResult:
    """Execute E10 and return the result table."""
    rng = make_rng(seed)
    n = BITS_PER_SYMBOL
    rows = []
    passed = True
    for pd, q in SWEEP:
        params = ChannelParameters.from_rates(deletion=pd, insertion=0.0)
        protocol = AlternatingBitProtocol(
            params, bits_per_symbol=n, ack_loss_prob=q
        )
        message = rng.integers(0, 2**n, NUM_SYMBOLS)
        record = protocol.run(message, rng)
        measured = record.throughput_per_use
        theory = lossy_feedback_capacity(n, pd, q)
        perfect = lossy_feedback_capacity(n, pd, 0.0)

        # Block-ack amortization: the same channel, a 64-symbol window
        # with repeated cumulative acks.
        block_proto = BlockAckProtocol(
            params, bits_per_symbol=n, ack_loss_prob=q, block_size=64
        )
        block_record = block_proto.run(message, rng)
        block_measured = block_record.throughput_per_use

        rel_err = abs(measured - theory) / theory if theory else abs(measured)
        amortized_ok = block_measured >= measured - 0.02 * n
        recovers = is_zero(q) or block_measured >= 0.95 * perfect
        ok = (
            rel_err < TOLERANCE
            and record.symbol_errors == 0
            and amortized_ok
            and recovers
        )
        passed = passed and ok
        rows.append(
            {
                "p_d": pd,
                "ack loss q": q,
                "alt-bit bits/use": measured,
                "theory N(1-pd)(1-q)": theory,
                "block-ack(64) bits/use": block_measured,
                "Thm 3 ceiling": perfect,
                "rel err": rel_err,
                "ok": ok,
            }
        )
    return ExperimentResult(
        experiment_id="E10",
        title="Ablation: lossy feedback path (alternating-bit protocol)",
        paper_claim=(
            "Extension of §4.2: Theorems 2-5 assume perfect feedback; "
            "naive per-symbol acks cost a (1 - q) factor, but block "
            "acknowledgments amortize the imperfection away"
        ),
        columns=[
            "p_d",
            "ack loss q",
            "alt-bit bits/use",
            "theory N(1-pd)(1-q)",
            "block-ack(64) bits/use",
            "Thm 3 ceiling",
            "rel err",
            "ok",
        ],
        rows=rows,
        passed=passed,
        notes=(
            "q = 0 rows reproduce Theorem 3 exactly; the alternating-bit "
            "penalty is exactly (1 - q), while the 64-symbol block-ack "
            "window with repeated cumulative acks amortizes the ack loss "
            "back to within a few percent of the Theorem-3 ceiling."
        ),
    )
