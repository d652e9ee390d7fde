"""Fault injection for protocols and channel simulators.

A :class:`FaultInjector` bundles an event-stream fault model (bursty,
drifting, or i.i.d.) with a :class:`~repro.faults.models.
FeedbackFaultModel` and *installs* itself for the duration of a run:

* the forward path is intercepted through
  :func:`repro.core.events.set_event_sampler_hook`, so every protocol
  and channel simulator that draws events via
  :func:`repro.core.events.sample_events` runs **unmodified** under the
  fault model;
* the feedback path is consulted explicitly by the hardened protocols
  in :mod:`repro.sync.feedback` via :func:`active_injector`.

All fault randomness comes from the injector's own seeded
:class:`~repro.simulation.rng.RngFactory` substreams ("feedback",
"abandon"), never from the protocol's generator — so enabling feedback
faults does not perturb the channel event stream, and a fault scenario
is reproducible bit-for-bit from ``(scenario, seed)``.

:func:`run_under_faults` is the one-call harness: it executes any
:class:`~repro.sync.protocols.SynchronizationProtocol` under a fault
injector and reports the achieved rate next to the Theorem-1 erasure
bound ``N (1 - P̂_d)`` computed from the *empirical* event frequencies
of the faulted run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

import numpy as np

from ..core.capacity import erasure_upper_bound
from ..core.events import (
    ChannelParameters,
    set_active_fault_injector,
    set_event_sampler_hook,
)
from ..simulation.rng import RngFactory
from ..sync.harness import (
    ProtocolMeasurement,
    measure_protocol,
    substitution_error_capacity,
)
from ..sync.protocols import SynchronizationProtocol
from .models import AckOutcome, EventStreamModel, FeedbackFaultModel

__all__ = [
    "FaultLog",
    "FaultInjector",
    "FaultedMeasurement",
    "run_under_faults",
]


@dataclass
class FaultLog:
    """Mutable per-run accounting of injected faults."""

    counts: Dict[str, int] = field(default_factory=dict)

    def record(self, name: str, n: int = 1) -> None:
        """Add *n* occurrences of fault *name*."""
        self.counts[name] = self.counts.get(name, 0) + n

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """An immutable copy of the current counters."""
        return dict(self.counts)

    def clear(self) -> None:
        self.counts.clear()


class FaultInjector:
    """Injects forward-path and feedback-path faults into protocol runs.

    Parameters
    ----------
    event_model:
        Replacement event process for the forward channel. ``None``
        leaves the forward path on the protocol's own i.i.d. model.
    feedback:
        Feedback-path fault rates (defaults to a perfect path).
    seed:
        Root seed for the injector's private fault streams.
    """

    def __init__(
        self,
        event_model: Optional[EventStreamModel] = None,
        feedback: Optional[FeedbackFaultModel] = None,
        *,
        seed: int = 0,
    ) -> None:
        self.event_model = event_model
        self.feedback = feedback if feedback is not None else FeedbackFaultModel()
        self.seed = int(seed)
        self._factory = RngFactory(self.seed)
        self.log = FaultLog()

    # ------------------------------------------------------------------
    # lifecycle

    def reset(self) -> None:
        """Restart fault streams and counters for an independent run."""
        if self.event_model is not None:
            self.event_model.reset()
        self._factory = RngFactory(self.seed)
        self.log.clear()

    @contextmanager
    def active(self) -> Iterator["FaultInjector"]:
        """Install this injector for the duration of a ``with`` block.

        Installs the forward-path event hook and registers the injector
        as the active one the hardened feedback protocols consult.
        Nesting restores the previous injector on exit.
        """
        previous_hook = set_event_sampler_hook(
            self._sample_events_hook if self.event_model is not None else None
        )
        previous_active = set_active_fault_injector(self)
        try:
            yield self
        finally:
            set_active_fault_injector(previous_active)
            set_event_sampler_hook(previous_hook)

    # ------------------------------------------------------------------
    # forward path

    def _sample_events_hook(
        self, params: ChannelParameters, num_uses: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Hook body for :func:`repro.core.events.sample_events`."""
        events = self.event_model.sample(num_uses, rng)
        self.log.record("faulted_uses", num_uses)
        return events

    # ------------------------------------------------------------------
    # feedback path (consulted by hardened protocols)

    @property
    def _feedback_rng(self) -> np.random.Generator:
        return self._factory.stream("feedback")

    def ack_outcome(self) -> AckOutcome:
        """Sample and record the fate of one acknowledgment."""
        outcome = self.feedback.ack_outcome(self._feedback_rng)
        if outcome == AckOutcome.LOST:
            self.log.record("acks_lost")
        elif outcome == AckOutcome.DELAYED:
            self.log.record("acks_delayed")
        elif outcome == AckOutcome.CORRUPTED:
            self.log.record("acks_corrupted")
        return outcome

    def desync(self) -> int:
        """Sample a counter-desync fault for one channel use.

        Returns the signed counter drift (0 for no fault, else ±1) and
        records it.
        """
        if not self.feedback.desync_occurs(self._feedback_rng):
            return 0
        self.log.record("desyncs_injected")
        return 1 if self._feedback_rng.random() < 0.5 else -1

    def abandon_guess(self, alphabet_size: int) -> int:
        """A receiver-side stand-in symbol for an abandoned position."""
        return int(self._factory.stream("abandon").integers(0, alphabet_size))


@dataclass(frozen=True)
class FaultedMeasurement:
    """A protocol measurement taken under fault injection.

    Attributes
    ----------
    measurement:
        The ordinary :class:`~repro.sync.harness.ProtocolMeasurement`
        (its theoretical columns refer to the *nominal* parameters).
    empirical_params:
        Event frequencies actually observed during the faulted run.
    empirical_erasure_bound:
        Theorem 1 evaluated at the empirical frequencies:
        ``N (1 - P̂_d)`` bits per channel use — the bound fault-tolerant
        protocols are measured against.
    information_rate_per_use:
        Converted-channel information at the measured substitution rate,
        scaled to bits per channel use (comparable to the bound).
    fault_counts:
        Snapshot of the injector's :class:`FaultLog` after the run.
    """

    measurement: ProtocolMeasurement
    empirical_params: ChannelParameters
    empirical_erasure_bound: float
    information_rate_per_use: float
    fault_counts: Dict[str, int]

    @property
    def run(self):
        return self.measurement.run

    @property
    def completed(self) -> bool:
        """Whether every message position reached the receiver."""
        return self.run.symbols_delivered == int(self.run.message.shape[0])

    @property
    def within_bound(self) -> bool:
        """Achieved information rate does not exceed ``N (1 - P̂_d)``."""
        return self.information_rate_per_use <= self.empirical_erasure_bound + 1e-9


def _empirical_event_parameters(run) -> ChannelParameters:
    """Event frequencies of a run record (excluding resync overhead)."""
    total = run.deletions + run.insertions + run.transmissions
    if total == 0:
        return ChannelParameters(0.0, 0.0, 1.0)
    return ChannelParameters(
        deletion=run.deletions / total,
        insertion=run.insertions / total,
        transmission=run.transmissions / total,
    )


def run_under_faults(
    protocol: SynchronizationProtocol,
    message: np.ndarray,
    rng: np.random.Generator,
    injector: FaultInjector,
) -> FaultedMeasurement:
    """Execute *protocol* under *injector* and measure against the
    empirical Theorem-1 bound.

    The injector is reset first, so repeated calls with identical seeds
    are bit-for-bit reproducible.
    """
    injector.reset()
    with injector.active():
        measurement = measure_protocol(protocol, message, rng)
    run = measurement.run
    empirical = _empirical_event_parameters(run)
    bound = erasure_upper_bound(protocol.bits_per_symbol, empirical.deletion)
    info_per_symbol = substitution_error_capacity(
        protocol.bits_per_symbol, run.symbol_error_rate
    )
    info_per_use = (
        info_per_symbol * run.symbols_delivered / run.channel_uses
        if run.channel_uses
        else 0.0
    )
    return FaultedMeasurement(
        measurement=measurement,
        empirical_params=empirical,
        empirical_erasure_bound=bound,
        information_rate_per_use=info_per_use,
        fault_counts=injector.log.snapshot(),
    )
