"""E8 — §4.1: no-feedback communication works but sits far below the
synchronized capacity.

Three coding schemes from the paper's reference chain run over the same
Definition-1 channel without any feedback:

* Davey-MacKay watermark code (ref [13]);
* marker code with a convolutional outer code;
* Zigangirov-style sequential (stack) decoding of a convolutional code
  (ref [12]).

Each reports its information rate (bits per transmitted bit) and frame
reliability; the table sets them against the Theorem-5 feedback rate
and the Theorem-4 upper bound, quantifying the paper's remark that
"the capacity is quite low and in practice sophisticated coding
techniques are required".
"""

from __future__ import annotations

import numpy as np

from ..coding.convolutional import ConvolutionalCode
from ..coding.forward_backward import DriftChannelModel
from ..coding.marker import MarkerCode
from ..coding.stack_decoder import StackDecoder
from ..coding.watermark import WatermarkCode
from ..core.capacity import erasure_upper_bound, feedback_lower_bound_exact
from ..infotheory.probability import is_zero
from ..simulation.rng import make_rng
from .tables import ExperimentResult

__all__ = ["run"]


# The run's settings, read at call time.
INSERTION_PROB = 0.02
DELETION_PROB = 0.02
FRAMES = 4
PAYLOAD_BITS = 48


def run(*, seed: int = 0) -> ExperimentResult:
    """Execute E8 and return the result table."""
    rng = make_rng(seed)
    channel = DriftChannelModel(
        insertion_prob=INSERTION_PROB,
        deletion_prob=DELETION_PROB,
        substitution_prob=0.0,
        max_drift=14,
    )
    feedback_rate = feedback_lower_bound_exact(1, DELETION_PROB, INSERTION_PROB)
    upper = erasure_upper_bound(1, DELETION_PROB)

    rows = []

    # Watermark code ---------------------------------------------------
    wm = WatermarkCode(payload_bits=PAYLOAD_BITS)
    wm_bers = [wm.simulate_frame(channel, rng).bit_error_rate for _ in range(FRAMES)]
    rows.append(
        {
            "scheme": "watermark (DM01)",
            "rate (bits/bit)": wm.rate,
            "mean BER": float(np.mean(wm_bers)),
            "frames ok": sum(1 for b in wm_bers if is_zero(b)),
            "frames": FRAMES,
        }
    )

    # Marker code -------------------------------------------------------
    mk = MarkerCode(
        PAYLOAD_BITS, period=9, outer=ConvolutionalCode((0o23, 0o35))
    )
    mk_bers = [mk.simulate_frame(channel, rng).bit_error_rate for _ in range(FRAMES)]
    rows.append(
        {
            "scheme": "marker + conv",
            "rate (bits/bit)": mk.rate,
            "mean BER": float(np.mean(mk_bers)),
            "frames ok": sum(1 for b in mk_bers if is_zero(b)),
            "frames": FRAMES,
        }
    )

    # Sequential (stack) decoding ----------------------------------------
    code = ConvolutionalCode((0o23, 0o35))
    stack = StackDecoder(
        code,
        insertion_prob=INSERTION_PROB,
        deletion_prob=DELETION_PROB,
        substitution_prob=1e-3,
        max_nodes=150_000,
    )
    stack_errs = []
    stack_len = None
    for _ in range(FRAMES):
        bits = rng.integers(0, 2, PAYLOAD_BITS)
        tx = code.encode(bits)
        stack_len = tx.size
        ry, _ = channel.transmit(tx, rng)
        result = stack.decode(ry, PAYLOAD_BITS)
        stack_errs.append(float((result.payload != bits).mean()))
    rows.append(
        {
            "scheme": "conv + stack (Zig69)",
            "rate (bits/bit)": PAYLOAD_BITS / stack_len,
            "mean BER": float(np.mean(stack_errs)),
            "frames ok": sum(1 for b in stack_errs if is_zero(b)),
            "frames": FRAMES,
        }
    )

    rows.append(
        {
            "scheme": "feedback (Thm 5)",
            "rate (bits/bit)": feedback_rate,
            "mean BER": 0.0,
            "frames ok": FRAMES,
            "frames": FRAMES,
        }
    )
    rows.append(
        {
            "scheme": "upper bound N(1-Pd)",
            "rate (bits/bit)": upper,
            "mean BER": 0.0,
            "frames ok": FRAMES,
            "frames": FRAMES,
        }
    )

    coding_rates = [r["rate (bits/bit)"] for r in rows[:3]]
    reliable = any(
        r["mean BER"] < 0.05 for r in rows[:3]
    )  # reliable no-feedback communication exists (Dobrushin)
    below = all(rate < feedback_rate for rate in coding_rates)
    passed = reliable and below
    return ExperimentResult(
        experiment_id="E8",
        title="No-feedback coding vs synchronized capacity",
        paper_claim=(
            "Section 4.1: reliable communication without synchronization "
            "is possible (Dobrushin) but rates are far below the "
            "feedback capacity and require sophisticated coding"
        ),
        columns=["scheme", "rate (bits/bit)", "mean BER", "frames ok", "frames"],
        rows=rows,
        passed=passed,
        notes=(
            f"Channel: P_i={INSERTION_PROB}, P_d={DELETION_PROB}, no "
            "substitutions. All code rates sit well below the Theorem-5 "
            "feedback rate."
        ),
    )
