"""Fault models for non-synchronous covert channels.

The paper's analysis (Theorems 1-5) assumes i.i.d. channel events.
Real covert channels violate that: scheduling noise is *bursty*
(periods of heavy contention push ``P_d``/``P_i`` up for many
consecutive uses), and system load makes the event probabilities
*drift* over a run. This module provides generative models of the
forward event stream for these regimes:

* :class:`IIDEventModel` — the paper's baseline, as a stream model;
* :class:`GilbertElliottModel` — two-state (good/bad) Markov-modulated
  event process, the classic bursty-loss model;
* :class:`DriftingParameterModel` — slow deterministic drift of
  ``(P_d, P_i)`` between two parameter bundles.

No model may stay at ``P_d = 1`` forever: every use would be a
deletion and no protocol run could end, so such a model is refused at
construction. Every model draws from an explicit
``numpy.random.Generator`` so fault streams are reproducible
bit-for-bit. The feedback-path fault, counter desync, is drawn by
:class:`repro.faults.injector.FaultInjector` from its own seeded
substream.
"""

from __future__ import annotations

import abc

import numpy as np

from ..core.events import ChannelParameters
from ..infotheory.probability import is_one

__all__ = [
    "EventStreamModel",
    "IIDEventModel",
    "GilbertElliottModel",
    "DriftingParameterModel",
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
        if is_one(params.deletion):
            raise ValueError("deletion probability 1 never delivers")
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
        if is_one(good.deletion) and is_one(bad.deletion):
            raise ValueError(
                "deletion probability 1 in both states never delivers"
            )
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
        if is_one(end.deletion):
            raise ValueError("end deletion probability 1 never delivers")
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
