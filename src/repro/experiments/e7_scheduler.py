"""E7 — §3.1-3.2: evaluating scheduler designs by the covert capacity
they leave behind.

Runs the oblivious storage covert channel under each scheduler policy,
measures the induced ``(P_d, P_i)``, and ranks the schedulers by the
Theorem-5 achievable rate in bits per scheduling quantum — the paper's
proposed use of non-synchronous capacity estimation as a design-
evaluation tool. Also reproduces the §3.2 handshake trade-off: the
Figure-1 mechanism eliminates symbol loss at the cost of waiting
quanta.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ..os_model.covert import HandshakeReceiver, HandshakeSender
from ..os_model.kernel import UniprocessorKernel
from ..os_model.measurement import run_oblivious_channel
from ..os_model.scheduler import (
    FuzzyTimeScheduler,
    LotteryScheduler,
    MultilevelFeedbackScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    StrideScheduler,
)
from ..simulation.rng import make_rng
from .tables import ExperimentResult

__all__ = ["run", "DEFAULT_SCHEDULERS"]

DEFAULT_SCHEDULERS: Tuple[Tuple[str, Callable[[], Scheduler]], ...] = (
    ("round-robin", RoundRobinScheduler),
    ("stride", StrideScheduler),
    ("mlfq", MultilevelFeedbackScheduler),
    ("lottery", LotteryScheduler),
    ("random", RandomScheduler),
    ("fuzzy-time(0.3)", lambda: FuzzyTimeScheduler(0.3)),
    ("fuzzy-time(0.6)", lambda: FuzzyTimeScheduler(0.6)),
)


# The run's settings, read at call time.
MESSAGE_SYMBOLS = 20_000


def run(*, seed: int = 0) -> ExperimentResult:
    """Execute E7 and return the result table."""
    rng = make_rng(seed)
    rows = []
    rates = {}
    for label, factory in DEFAULT_SCHEDULERS:
        m = run_oblivious_channel(
            factory(), rng, message_symbols=MESSAGE_SYMBOLS
        )
        rates[label] = m.achievable_per_quantum
        rows.append(
            {
                "scheduler": label,
                "P_d": m.params.deletion,
                "P_i": m.params.insertion,
                "corrected C (bits/use)": m.report.corrected_capacity,
                "achievable (bits/quantum)": m.achievable_per_quantum,
            }
        )

    # Handshake variant under the random scheduler: zero loss, but
    # waiting overhead caps throughput at ~1/4 bit per quantum.
    hs_rng = make_rng(seed + 1)
    message = hs_rng.integers(0, 2, MESSAGE_SYMBOLS)
    sender = HandshakeSender(0, message)
    receiver = HandshakeReceiver(1)
    kernel = UniprocessorKernel([sender, receiver], RandomScheduler())
    kernel.run(
        64 * MESSAGE_SYMBOLS, hs_rng, stop_condition=lambda _k: sender.done
    )
    delivered = receiver.received
    lossless = bool(
        np.array_equal(delivered, message[: delivered.size])
        and delivered.size >= MESSAGE_SYMBOLS - 1
    )
    hs_rate = delivered.size / kernel.time if kernel.time else 0.0
    rows.append(
        {
            "scheduler": "random+handshake(Fig.1)",
            "P_d": 0.0,
            "P_i": 0.0,
            "corrected C (bits/use)": 1.0,
            "achievable (bits/quantum)": hs_rate,
        }
    )

    ranking_ok = (
        rates["round-robin"] >= rates["fuzzy-time(0.3)"] >= rates["fuzzy-time(0.6)"]
        and rates["round-robin"] >= rates["random"]
    )
    passed = ranking_ok and lossless
    return ExperimentResult(
        experiment_id="E7",
        title="Scheduler case study: induced non-synchrony and capacity",
        paper_claim=(
            "Sections 3.1-3.2: scheduling induces deletions/insertions; "
            "the non-synchronous estimate ranks candidate scheduler "
            "implementations; the Figure-1 handshake trades loss for "
            "waiting time"
        ),
        columns=[
            "scheduler",
            "P_d",
            "P_i",
            "corrected C (bits/use)",
            "achievable (bits/quantum)",
        ],
        rows=rows,
        passed=passed,
        notes=(
            "Round-robin, stride, and MLFQ (all deterministic) leave the "
            "full synchronous capacity — fairness alone does not disturb "
            "the covert pair; only *randomness* (lottery/random/fuzzy) "
            "does. The handshake delivers losslessly at ~0.25 "
            "bits/quantum (half the quanta are waits)."
        ),
    )
