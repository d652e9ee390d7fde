"""Fault models for non-synchronous covert channels.

The paper's analysis (Theorems 1-5) assumes i.i.d. channel events and a
perfect feedback path. Real covert channels violate both: scheduling
noise is *bursty* (periods of heavy contention push ``P_d``/``P_i`` up
for many consecutive uses), system load makes the event probabilities
*drift* over a run, and the feedback path itself loses, delays, or
corrupts acknowledgments and can silently desynchronize the two
counters of the Appendix-A protocol. This module provides generative
models for all of these regimes:

* :class:`IIDEventModel` — the paper's baseline, as a stream model;
* :class:`GilbertElliottModel` — two-state (good/bad) Markov-modulated
  event process, the classic bursty-loss model;
* :class:`DriftingParameterModel` — slow deterministic drift of
  ``(P_d, P_i)`` between two parameter bundles;
* :class:`FeedbackFaultModel` — ack loss / delay / corruption and
  counter-desync rates for the receiver-to-sender path.

Every model draws from an explicit ``numpy.random.Generator`` so fault
streams are reproducible bit-for-bit; :class:`repro.faults.injector.
FaultInjector` wires them to seeded :class:`repro.simulation.rng.
RngFactory` substreams.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass

import numpy as np

from ..core.events import ChannelParameters
from ..infotheory.probability import is_zero, validate_probability

__all__ = [
    "EventStreamModel",
    "IIDEventModel",
    "GilbertElliottModel",
    "DriftingParameterModel",
    "AckOutcome",
    "FeedbackFaultModel",
]


class EventStreamModel(abc.ABC):
    """A (possibly non-i.i.d.) generator of Definition-1 event streams.

    Unlike :func:`repro.core.events.sample_events`, a stream model is
    *stateful*: successive calls to :meth:`sample` continue one process,
    so protocols that pull events block-by-block see a single coherent
    fault trajectory. Call :meth:`reset` before reusing a model for an
    independent run.
    """

    @abc.abstractmethod
    def sample(self, num_uses: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the next *num_uses* events (``ChannelEvent`` codes)."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Return the model to its initial state."""


def _sample_from_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized categorical draw: one event per row of *probs*."""
    cum = np.cumsum(probs, axis=1)
    # Guard against rounding: force the last column to 1 exactly.
    cum[:, -1] = 1.0
    u = rng.random(probs.shape[0])
    return (u[:, None] > cum).sum(axis=1).astype(np.int64)


class IIDEventModel(EventStreamModel):
    """The paper's baseline: i.i.d. events at fixed parameters."""

    def __init__(self, params: ChannelParameters) -> None:
        self.params = params

    def sample(self, num_uses: int, rng: np.random.Generator) -> np.ndarray:
        if num_uses < 0:
            raise ValueError("num_uses must be non-negative")
        dist = self.params.event_distribution()
        return rng.choice(4, size=num_uses, p=dist).astype(np.int64)

    def reset(self) -> None:  # stateless
        pass


class GilbertElliottModel(EventStreamModel):
    """Two-state Markov-modulated event process (bursty faults).

    A hidden good/bad state chain modulates the event distribution:
    while *good*, events follow ``good`` parameters; while *bad*
    (e.g. heavy scheduler contention), they follow ``bad`` parameters
    with typically much higher ``P_d``/``P_i``. Transitions happen
    per channel use with probabilities ``p_gb`` (good→bad) and ``p_bg``
    (bad→good), so mean burst length is ``1/p_bg``.

    Attributes
    ----------
    bad_uses:
        Number of uses sampled while in the bad state since the last
        :meth:`reset` — fault accounting for run records.
    """

    GOOD, BAD = 0, 1

    def __init__(
        self,
        good: ChannelParameters,
        bad: ChannelParameters,
        *,
        p_gb: float,
        p_bg: float,
    ) -> None:
        for name, p in (("p_gb", p_gb), ("p_bg", p_bg)):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {p}")
        self.good = good
        self.bad = bad
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.state = self.GOOD
        self.bad_uses = 0

    def reset(self) -> None:
        self.state = self.GOOD
        self.bad_uses = 0

    def _sample_states(self, num_uses: int, rng: np.random.Generator) -> np.ndarray:
        """Advance the state chain *num_uses* steps (per-use draws)."""
        flips = rng.random(num_uses)
        states = np.empty(num_uses, dtype=np.int64)
        s = self.state
        for k in range(num_uses):
            p_switch = self.p_gb if s == self.GOOD else self.p_bg
            if flips[k] < p_switch:
                s = self.BAD if s == self.GOOD else self.GOOD
            states[k] = s
        self.state = s
        return states

    def sample(self, num_uses: int, rng: np.random.Generator) -> np.ndarray:
        if num_uses < 0:
            raise ValueError("num_uses must be non-negative")
        if num_uses == 0:
            return np.empty(0, dtype=np.int64)
        states = self._sample_states(num_uses, rng)
        self.bad_uses += int(np.count_nonzero(states == self.BAD))
        probs = np.where(
            (states == self.BAD)[:, None],
            self.bad.event_distribution()[None, :],
            self.good.event_distribution()[None, :],
        )
        return _sample_from_rows(probs, rng)


class DriftingParameterModel(EventStreamModel):
    """Slow deterministic drift of the channel parameters.

    The event distribution interpolates linearly from ``start`` to
    ``end`` over ``ramp_uses`` channel uses and then holds at ``end`` —
    a minimal model of load ramping up (or a countermeasure kicking in)
    during a long covert transfer.
    """

    def __init__(
        self,
        start: ChannelParameters,
        end: ChannelParameters,
        *,
        ramp_uses: int,
    ) -> None:
        if ramp_uses < 1:
            raise ValueError("ramp_uses must be >= 1")
        self.start = start
        self.end = end
        self.ramp_uses = ramp_uses
        self.t = 0

    def reset(self) -> None:
        self.t = 0

    def sample(self, num_uses: int, rng: np.random.Generator) -> np.ndarray:
        if num_uses < 0:
            raise ValueError("num_uses must be non-negative")
        if num_uses == 0:
            return np.empty(0, dtype=np.int64)
        ts = np.arange(self.t, self.t + num_uses, dtype=float)
        frac = np.clip(ts / self.ramp_uses, 0.0, 1.0)
        probs = (1.0 - frac)[:, None] * self.start.event_distribution()[
            None, :
        ] + frac[:, None] * self.end.event_distribution()[None, :]
        self.t += num_uses
        return _sample_from_rows(probs, rng)


class AckOutcome(enum.IntEnum):
    """Fate of one acknowledgment on a faulty feedback path."""

    DELIVERED = 0
    LOST = 1
    DELAYED = 2
    CORRUPTED = 3


@dataclass(frozen=True)
class FeedbackFaultModel:
    """Fault rates for the receiver-to-sender feedback path.

    Attributes
    ----------
    ack_loss_prob:
        Probability an acknowledgment never arrives.
    ack_delay_prob:
        Probability an acknowledgment arrives late — after the sender's
        timeout, so the sender retransmits a symbol the receiver
        already has.
    ack_corrupt_prob:
        Probability an acknowledgment arrives unreadable; a hardened
        sender must treat it as lost (but the event is accounted
        separately).
    desync_prob:
        Per-channel-use probability that the receiver's symbol counter
        silently drifts by one relative to the sender's belief —
        the fault :class:`repro.sync.feedback.CounterProtocol`'s
        resynchronization epochs exist to repair.
    """

    ack_loss_prob: float = 0.0
    ack_delay_prob: float = 0.0
    ack_corrupt_prob: float = 0.0
    desync_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "ack_loss_prob",
            "ack_delay_prob",
            "ack_corrupt_prob",
            "desync_prob",
        ):
            validate_probability(getattr(self, name), name)
        bad = self.ack_loss_prob + self.ack_delay_prob + self.ack_corrupt_prob
        if bad > 1.0 + 1e-12:
            raise ValueError(
                "ack_loss_prob + ack_delay_prob + ack_corrupt_prob must "
                f"not exceed 1, got {bad}"
            )

    def ack_outcome(self, rng: np.random.Generator) -> AckOutcome:
        """Sample the fate of one acknowledgment."""
        u = float(rng.random())
        if u < self.ack_loss_prob:
            return AckOutcome.LOST
        u -= self.ack_loss_prob
        if u < self.ack_delay_prob:
            return AckOutcome.DELAYED
        u -= self.ack_delay_prob
        if u < self.ack_corrupt_prob:
            return AckOutcome.CORRUPTED
        return AckOutcome.DELIVERED

    def desync_occurs(self, rng: np.random.Generator) -> bool:
        """Sample whether a counter-desync fault strikes this use."""
        if is_zero(self.desync_prob):
            return False
        return bool(rng.random() < self.desync_prob)
