"""E17 (extension) — sample-based capacity estimation, cross-validated.

The matrix estimators need the channel enumerated; the Kraskov kNN
pipeline (:mod:`repro.estimation`) needs only draws. This experiment
does two things:

1. **Cross-validation**: on 2- and 4-symbol DMCs where Blahut–Arimoto
   computes the exact capacity, run the full sample path — draw
   ``n`` channel uses, estimate MI with the mixed KSG estimator,
   maximize over input distributions — and check
   ``|C_kNN - C_BA| <= gate`` (0.05 bits at the default 4096
   samples). This is the agreement gate the tier-1 suite asserts.
2. **First numbers beyond BA's reach**: the §3.1 scheduler timing
   channel observed through preemption noise has a countably infinite
   output alphabet — no transition matrix exists to enumerate. The
   same pipeline prices it directly (bits per quantum), with the
   sanity anchor that the noiseless configuration must agree with the
   closed-form Shannon timed capacity of its burst alphabet.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..estimation import (
    DMCSampler,
    SchedulerTimingSampler,
    estimate_sample_capacity,
)
from ..infotheory.blahut_arimoto import blahut_arimoto
from ..infotheory.probability import is_zero
from ..timing.timed_dmc import timed_dmc_capacity
from .tables import ExperimentResult

__all__ = ["run"]

#: Agreement gate (bits) between the kNN estimate and Blahut–Arimoto
#: at the default sample size.
AGREEMENT_GATE_BITS = 0.05

#: Cross-validation channels: (label, transition rows).
_DMC_CASES: Tuple[Tuple[str, Tuple[Tuple[float, ...], ...]], ...] = (
    ("BSC(0.1)", ((0.9, 0.1), (0.1, 0.9))),
    ("BSC(0.25)", ((0.75, 0.25), (0.25, 0.75))),
    (
        "4-ary sym(0.15)",
        (
            (0.85, 0.05, 0.05, 0.05),
            (0.05, 0.85, 0.05, 0.05),
            (0.05, 0.05, 0.85, 0.05),
            (0.05, 0.05, 0.05, 0.85),
        ),
    ),
    (
        "4-ary skewed",
        (
            (0.85, 0.05, 0.05, 0.05),
            (0.05, 0.85, 0.05, 0.05),
            (0.05, 0.05, 0.85, 0.05),
            (0.10, 0.10, 0.40, 0.40),
        ),
    ),
)

#: Scheduler-channel sweep: preemption probability per quantum.
PREEMPT_SWEEP: Tuple[float, ...] = (0.0, 0.1, 0.3)

#: Burst-length alphabet of the scheduler channel (quanta).
_BURSTS: Tuple[int, ...] = (1, 2, 4)


# The run's settings, read at call time.
N_SAMPLES = 4096


def run(*, seed: int = 0) -> ExperimentResult:
    """Execute E17 and return the result table."""
    rows = []
    passed = True

    # Part 1: agreement with Blahut-Arimoto where both methods apply.
    for label, matrix in _DMC_CASES:
        exact = blahut_arimoto(np.asarray(matrix))
        est = estimate_sample_capacity(
            DMCSampler(matrix), n_samples=N_SAMPLES, seed=seed
        )
        err = abs(est.capacity - exact.capacity)
        ok = err <= AGREEMENT_GATE_BITS and est.status.value != "aborted"
        passed = passed and ok
        rows.append(
            {
                "channel": label,
                "C_BA (b/sym)": exact.capacity,
                "C_kNN (b/sym)": est.capacity,
                "|err| (bits)": err,
                "split spread": est.split_spread,
                "iters": est.iterations,
                "ok": ok,
            }
        )

    # Part 2: the scheduler timing channel, where BA cannot run. The
    # noiseless point anchors against the closed-form timed capacity
    # of the burst alphabet (a degenerate deterministic "DMC" over
    # gap values, solved as capacity per unit cost).
    noiseless = timed_dmc_capacity(
        np.eye(len(_BURSTS)),
        np.asarray(_BURSTS, dtype=float) + 1.0,
    )
    previous = float("inf")
    for preempt in PREEMPT_SWEEP:
        est = estimate_sample_capacity(
            SchedulerTimingSampler(_BURSTS, preempt),
            n_samples=N_SAMPLES,
            seed=seed,
        )
        if is_zero(preempt):
            reference = noiseless.capacity
            err = abs(est.capacity - reference)
            ok = err <= AGREEMENT_GATE_BITS
        else:
            # No enumerable reference exists: require the first
            # capacity numbers to be sane — positive, below the
            # noiseless anchor, and monotone in the noise.
            reference = float("nan")
            err = float("nan")
            ok = 0.0 < est.capacity <= previous + AGREEMENT_GATE_BITS
        passed = passed and ok
        previous = est.capacity
        rows.append(
            {
                "channel": f"scheduler(q={preempt})",
                "C_BA (b/sym)": reference,
                "C_kNN (b/sym)": est.capacity,
                "|err| (bits)": err,
                "split spread": est.split_spread,
                "iters": est.iterations,
                "ok": ok,
            }
        )

    return ExperimentResult(
        experiment_id="E17",
        title="Sample-based capacity: Kraskov kNN vs Blahut-Arimoto",
        paper_claim=(
            "Extension of §4.3: when the channel can only be observed, "
            "capacity is still estimable — maximize a kNN mutual-"
            "information estimate over input distributions; on "
            "enumerable DMCs this agrees with Blahut-Arimoto to within "
            f"{AGREEMENT_GATE_BITS} bits at 4096 samples"
        ),
        columns=[
            "channel",
            "C_BA (b/sym)",
            "C_kNN (b/sym)",
            "|err| (bits)",
            "split spread",
            "iters",
            "ok",
        ],
        rows=rows,
        passed=passed,
        notes=(
            "Scheduler rows are bits per quantum; the q=0 row is "
            "anchored to the closed-form timed capacity of the burst "
            "alphabet, noisy rows are checked for sign and "
            "monotonicity (no enumerable reference exists there — "
            "that is the point)."
        ),
    )
