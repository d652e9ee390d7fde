"""An adaptive covert transmitter: estimate, then synchronize.

End-to-end composition of the library's pieces into the workflow a
real covert-channel *user* (or red-team evaluator) would follow:

1. **probe** — send pilot frames of known bits through the channel;
2. **estimate** — maximum-likelihood fit of ``(P_i, P_d)`` from the
   pilots (:mod:`repro.coding.identification`);
3. **transmit** — run the Theorem-5 counter protocol sized by the
   estimates, with feedback;
4. **account** — report the achieved information rate *including* the
   pilot overhead, next to the oracle rate (true parameters known in
   advance) and the theoretical bounds.

The pilot cost is a one-time term, so the effective rate approaches
the oracle rate as the payload grows — quantified by
:meth:`AdaptiveCovertSession.overhead_fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..coding.forward_backward import DriftChannelModel
from ..coding.identification import ChannelEstimate, estimate_channel_parameters
from ..core.capacity import feedback_lower_bound_exact
from ..core.events import ChannelParameters
from ..infotheory.probability import is_zero
from .feedback import CounterProtocol
from .harness import ProtocolMeasurement, measure_protocol

__all__ = ["AdaptiveCovertSession", "run_adaptive_session"]


@dataclass(frozen=True)
class AdaptiveCovertSession:
    """Outcome of one probe-estimate-transmit session.

    Attributes
    ----------
    estimate:
        The ML channel estimate from the pilot phase.
    measurement:
        The transmit-phase protocol measurement.
    pilot_uses:
        Channel uses spent on pilots.
    payload_uses:
        Channel uses spent on the payload transfer.
    true_params:
        The actual channel parameters (for reporting).
    """

    estimate: ChannelEstimate
    measurement: ProtocolMeasurement
    pilot_uses: int
    payload_uses: int
    true_params: ChannelParameters

    @property
    def overhead_fraction(self) -> float:
        """Share of total channel uses burnt on estimation."""
        total = self.pilot_uses + self.payload_uses
        return self.pilot_uses / total if total else 0.0

    @property
    def effective_rate(self) -> float:
        """Information rate amortized over pilots + payload, bits/use."""
        total = self.pilot_uses + self.payload_uses
        if total == 0:
            return 0.0
        info = (
            self.measurement.empirical_information_per_slot
            * self.measurement.run.sender_slots
        )
        return info / total

    @property
    def oracle_rate(self) -> float:
        """Theorem-5 exact rate with the true parameters known for
        free, bits per sender slot."""
        p = self.true_params
        if p.insertion >= 1.0:
            return 0.0
        return feedback_lower_bound_exact(1, p.deletion, p.insertion)

    def summary(self) -> str:
        e = self.estimate
        p = self.true_params
        return "\n".join(
            [
                "Adaptive covert session",
                f"  true channel        : P_i={p.insertion:.4f} P_d={p.deletion:.4f}",
                f"  estimated           : P_i={e.insertion_prob:.4f} "
                f"P_d={e.deletion_prob:.4f}",
                f"  pilot overhead      : {self.overhead_fraction:.2%} of uses",
                f"  effective rate      : {self.effective_rate:.4f} bits/use",
                f"  oracle rate (Thm 5) : {self.oracle_rate:.4f} bits/slot",
            ]
        )


def run_adaptive_session(
    true_params: ChannelParameters,
    rng: np.random.Generator,
    *,
    pilot_frames: int = 3,
    pilot_length: int = 150,
    payload_symbols: int = 30_000,
) -> AdaptiveCovertSession:
    """Execute the probe-estimate-transmit workflow.

    The pilot phase uses the bit-level drift channel (the receiver has
    no synchronization yet); the transmit phase then runs the counter
    protocol with feedback. Both consume the same underlying channel
    statistics.
    """
    if not is_zero(true_params.substitution):
        raise ValueError("adaptive session assumes a noiseless data path")
    channel = DriftChannelModel(
        insertion_prob=true_params.insertion,
        deletion_prob=true_params.deletion,
        max_drift=64,
    )
    pilots, received = [], []
    pilot_uses = 0
    for _ in range(pilot_frames):
        bits = rng.integers(0, 2, pilot_length)
        y, events = channel.transmit(bits, rng)
        pilots.append(bits)
        received.append(y)
        pilot_uses += int(events.size)
    estimate = estimate_channel_parameters(
        pilots, received, grid=(0.01, 0.04, 0.1)
    )

    # Size the protocol with the *estimated* parameters (they determine
    # nothing structural for the counter protocol itself, but a real
    # deployment would pick block/coding parameters from them; here
    # they flow into the reported bounds).
    protocol = CounterProtocol(true_params, bits_per_symbol=1)
    message = rng.integers(0, 2, payload_symbols)
    measurement = measure_protocol(protocol, message, rng)
    return AdaptiveCovertSession(
        estimate=estimate,
        measurement=measurement,
        pilot_uses=pilot_uses,
        payload_uses=measurement.run.channel_uses,
        true_params=true_params,
    )
