"""Measuring Definition-1 parameters from a kernel run.

The paper's estimation recipe needs ``P_d`` (and ``P_i``) of the real
system. For the §3.1 storage channel these are scheduling artifacts:
classify consecutive send/recv annotations in the kernel trace into
deletion / insertion / transmission events and feed the empirical
parameters into :class:`repro.core.estimation.CapacityEstimator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.estimation import CapacityEstimator, CapacityReport
from ..core.events import ChannelEvent, ChannelParameters
from .covert import ObliviousReceiver, ObliviousSender
from .kernel import KernelTrace, UniprocessorKernel
from .scheduler import Scheduler

__all__ = [
    "classify_trace",
    "ChannelMeasurement",
    "run_oblivious_channel",
]


def classify_trace(trace: KernelTrace) -> np.ndarray:
    """Classify a trace's send/recv annotations into channel events.

    Walking the quantum annotations in order:

    * ``send`` following a ``send`` whose symbol was never read —
      the earlier symbol was overwritten: a **DELETION**;
    * ``recv`` with no unread ``send`` pending — a stale re-read:
      an **INSERTION**;
    * ``recv`` consuming a pending ``send`` — a **TRANSMISSION**.

    Waiting quanta and idle/background quanta produce no events, which
    matches Definition 1: a channel *use* is a symbol-level happening,
    not a clock tick.
    """
    events: List[int] = []
    pending = False  # an unread symbol sits in the register
    for note in trace.annotations:
        if note == "send":
            if pending:
                events.append(int(ChannelEvent.DELETION))
            pending = True
        elif note == "recv":
            if pending:
                events.append(int(ChannelEvent.TRANSMISSION))
                pending = False
            else:
                events.append(int(ChannelEvent.INSERTION))
    return np.asarray(events, dtype=np.int64)


@dataclass(frozen=True)
class ChannelMeasurement:
    """Everything measured from one kernel run."""

    params: ChannelParameters
    events: np.ndarray
    report: CapacityReport
    quanta: int

    @property
    def sender_slots_per_quantum(self) -> float:
        """Sender-time-consuming uses (deletions + transmissions) per
        scheduling quantum."""
        if not self.quanta:
            return 0.0
        from ..core.events import ChannelEvent as _CE

        counts = np.bincount(self.events, minlength=4)
        slots = (
            counts[int(_CE.DELETION)]
            + counts[int(_CE.TRANSMISSION)]
            + counts[int(_CE.SUBSTITUTION)]
        )
        return slots / self.quanta

    @property
    def achievable_per_quantum(self) -> float:
        """Theorem-5 achievable rate converted to bits per quantum —
        the figure of merit for comparing scheduler designs (E7)."""
        from ..core.capacity import feedback_lower_bound_exact

        p = self.params
        if p.insertion >= 1.0 or p.deletion >= 1.0:
            return 0.0
        per_slot = feedback_lower_bound_exact(
            self.report.bits_per_symbol, p.deletion, p.insertion
        )
        return per_slot * self.sender_slots_per_quantum


def run_oblivious_channel(
    scheduler: Scheduler,
    rng: np.random.Generator,
    *,
    message_symbols: int = 20_000,
    extra_processes: Optional[Sequence] = None,
) -> ChannelMeasurement:
    """Run the §3.1 oblivious channel under *scheduler* and measure it.

    Parameters
    ----------
    scheduler:
        Policy under evaluation.
    message_symbols:
        Length of the random binary message the sender keeps offering.
    extra_processes:
        Optional background load (e.g. :class:`IdleProcess` instances).

    The run lasts at most ``8 * message_symbols`` quanta per process,
    enough for the sender to finish with high probability.
    """
    message = rng.integers(0, 2, message_symbols)
    sender = ObliviousSender(0, message)
    receiver = ObliviousReceiver(1)
    procs = [sender, receiver] + list(extra_processes or [])
    kernel = UniprocessorKernel(procs, scheduler)
    budget = 8 * message_symbols * len(procs)
    trace = kernel.run(budget, rng, stop_condition=lambda _k: sender.done)
    events = classify_trace(trace)
    if events.size == 0:
        raise ValueError("no channel events occurred")
    counts = np.bincount(events, minlength=4)
    total = counts.sum()
    params = ChannelParameters(
        deletion=counts[int(ChannelEvent.DELETION)] / total,
        insertion=counts[int(ChannelEvent.INSERTION)] / total,
        transmission=(
            counts[int(ChannelEvent.TRANSMISSION)]
            + counts[int(ChannelEvent.SUBSTITUTION)]
        )
        / total,
    )
    report = CapacityEstimator(1).estimate(params)
    return ChannelMeasurement(
        params=params,
        events=events,
        report=report,
        quanta=trace.num_quanta,
    )
