"""Fault injection for the counter protocol.

A :class:`FaultInjector` bundles an event-stream fault model (bursty,
drifting, or i.i.d.) with a counter-desync rate and *installs* itself
for the duration of a run:

* the forward path is intercepted through
  :func:`repro.core.events.set_event_sampler_hook`, so every draw made
  via :func:`repro.core.events.sample_events` comes from the fault
  model;
* counter desync is drawn by :meth:`FaultInjector.desync`, which
  :class:`~repro.sync.feedback.CounterProtocol` consults through
  :func:`repro.core.events.active_fault_injector`.

Desync randomness comes from the injector's own seeded
:class:`~repro.simulation.rng.RngFactory` substream ("feedback"), never
from the protocol's generator, so a desync rate does not perturb the
channel event stream, and a fault scenario is reproducible bit-for-bit
from ``(scenario, seed)``.

:func:`run_under_faults` is the one-call harness: it runs the counter
protocol under a fault injector and reports the achieved rate next to
the Theorem-1 erasure bound ``N (1 - P̂_d)`` computed from the
*empirical* event frequencies of the faulted run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

import numpy as np

from ..core.capacity import erasure_upper_bound
from ..core.events import (
    ChannelParameters,
    set_active_fault_injector,
    set_event_sampler_hook,
)
from ..infotheory.probability import is_zero, validate_probability
from ..simulation.rng import RngFactory
from ..sync.feedback import CounterProtocol
from ..sync.harness import (
    ProtocolMeasurement,
    measure_protocol,
    substitution_error_capacity,
)
from .models import EventStreamModel

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

    def record(self, name: str) -> None:
        """Add one occurrence of fault *name*."""
        self.counts[name] = self.counts.get(name, 0) + 1

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """An immutable copy of the current counters."""
        return dict(self.counts)

    def clear(self) -> None:
        self.counts.clear()


class FaultInjector:
    """Injects forward-path faults and counter desync into protocol runs.

    Parameters
    ----------
    event_model:
        Replacement event process for the forward channel.
    desync_prob:
        Per-channel-use probability that the receiver's symbol counter
        silently drifts by one relative to the sender's belief: the
        fault :class:`~repro.sync.feedback.CounterProtocol`'s
        resynchronization epochs exist to repair.
    seed:
        Root seed for the injector's private desync stream.
    """

    def __init__(
        self,
        event_model: EventStreamModel,
        *,
        desync_prob: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.event_model = event_model
        self.desync_prob = validate_probability(desync_prob, "desync_prob")
        self.seed = int(seed)
        self.log = FaultLog()
        self.reset()

    # ------------------------------------------------------------------
    # lifecycle

    def reset(self) -> None:
        """Restart fault streams and counters for an independent run."""
        self.event_model.reset()
        self._desync_rng = RngFactory(self.seed).stream("feedback")
        self.log.clear()

    @contextmanager
    def active(self) -> Iterator["FaultInjector"]:
        """Install this injector for the duration of a ``with`` block.

        Installs the forward-path event hook and registers the injector
        as the active one the counter protocol consults. Nesting
        restores the previous injector on exit.
        """
        previous_hook = set_event_sampler_hook(self._sample_events_hook)
        previous_active = set_active_fault_injector(self)
        try:
            yield self
        finally:
            set_active_fault_injector(previous_active)
            set_event_sampler_hook(previous_hook)

    def _sample_events_hook(
        self, params: ChannelParameters, num_uses: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Hook body for :func:`repro.core.events.sample_events`."""
        return self.event_model.sample(num_uses, rng)

    def desync(self) -> int:
        """Sample a counter-desync fault for one channel use.

        Returns the signed counter drift (0 for no fault, else ±1) and
        records it. At rate 0 nothing is drawn.
        """
        if is_zero(self.desync_prob):
            return 0
        if not self._desync_rng.random() < self.desync_prob:
            return 0
        self.log.record("desyncs_injected")
        return 1 if self._desync_rng.random() < 0.5 else -1


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
    params: ChannelParameters,
    message: np.ndarray,
    rng: np.random.Generator,
    injector: FaultInjector,
    *,
    bits_per_symbol: int,
) -> FaultedMeasurement:
    """Run the counter protocol at nominal *params* under *injector*
    and measure against the empirical Theorem-1 bound.

    The counter protocol is the one protocol that draws its events
    through :func:`repro.core.events.sample_events` and consults the
    injector's desync stream, so it is built here rather than taken
    from the caller. The injector is reset first, so repeated calls
    with identical seeds are bit-for-bit reproducible.
    """
    protocol = CounterProtocol(params, bits_per_symbol=bits_per_symbol)
    injector.reset()
    with injector.active():
        measurement = measure_protocol(protocol, message, rng)
    run = measurement.run
    empirical = _empirical_event_parameters(run)
    bound = erasure_upper_bound(bits_per_symbol, empirical.deletion)
    info_per_symbol = substitution_error_capacity(
        bits_per_symbol, run.symbol_error_rate
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
