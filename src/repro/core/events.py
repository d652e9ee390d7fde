"""Channel-use events for deletion-insertion channels.

Wang & Lee (Definition 1, Figure 2) model each *use* of a non-synchronous
covert channel as one of four events: the next queued symbol is
**deleted**, an extra symbol is **inserted**, the next queued symbol is
**transmitted** (possibly suffering a **substitution**). This module
defines the event vocabulary, the parameter bundle
:class:`ChannelParameters`, and utilities for sampling and analyzing
event streams. The channel simulators in :mod:`repro.core.channels` and
the protocol harnesses in :mod:`repro.sync` are built on these streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "ChannelEvent",
    "ChannelParameters",
    "sample_events",
    "set_event_sampler_hook",
    "set_active_fault_injector",
    "active_fault_injector",
    "event_counts",
    "empirical_parameters",
]

#: Optional interception point for :func:`sample_events`. When set (by
#: :class:`repro.faults.FaultInjector` while a fault scenario is
#: active), every event draw in the package — channel simulators and
#: synchronization protocols alike — flows through the hook instead of
#: the i.i.d. model, so existing protocols run unmodified under faults.
_EVENT_SAMPLER_HOOK = None


def set_event_sampler_hook(hook):
    """Install (or clear, with ``None``) the global event-sampler hook.

    The hook has the same signature as :func:`sample_events` and fully
    replaces it while installed. Returns the previously installed hook
    so callers can restore it, making nested installation safe.
    """
    global _EVENT_SAMPLER_HOOK
    previous = _EVENT_SAMPLER_HOOK
    _EVENT_SAMPLER_HOOK = hook
    return previous


#: Opaque slot for the currently active fault injector. It lives here —
#: next to the sampler hook — so the hardened protocols in
#: :mod:`repro.sync` can consult it without importing the higher-level
#: :mod:`repro.faults` package (which itself builds on the sync layer).
_ACTIVE_FAULT_INJECTOR = None


def set_active_fault_injector(injector):
    """Register (or clear, with ``None``) the active fault injector.

    Returns the previously registered injector so nested fault scopes
    restore correctly. Managed by ``FaultInjector.active()``.
    """
    global _ACTIVE_FAULT_INJECTOR
    previous = _ACTIVE_FAULT_INJECTOR
    _ACTIVE_FAULT_INJECTOR = injector
    return previous


def active_fault_injector():
    """The fault injector installed for the current run, or ``None``.

    A ``None`` result means the perfect-feedback, i.i.d.-event world of
    the paper; protocols must then behave (and consume randomness)
    exactly as the unhardened originals did.
    """
    return _ACTIVE_FAULT_INJECTOR


class ChannelEvent(enum.IntEnum):
    """One outcome of a single channel use (paper Definition 1)."""

    #: The next queued symbol is silently dropped.
    DELETION = 0
    #: A spurious symbol (not sent by the sender) reaches the receiver.
    INSERTION = 1
    #: The next queued symbol is delivered unchanged.
    TRANSMISSION = 2
    #: The next queued symbol is delivered but corrupted
    #: (a transmission suffering a substitution error).
    SUBSTITUTION = 3


@dataclass(frozen=True)
class ChannelParameters:
    """The four rates ``(P_d, P_i, P_t, P_s)`` of Definition 1.

    ``deletion + insertion + transmission`` must equal 1; the
    substitution rate is the probability that a *transmitted* symbol is
    corrupted, conditioned on transmission (matching the paper's
    "with probability P_t the next queued bit is transmitted ... with
    probability P_s of suffering a substitution error").

    Attributes
    ----------
    deletion:
        ``P_d`` — probability the next queued symbol is dropped.
    insertion:
        ``P_i`` — probability a spurious symbol is inserted.
    transmission:
        ``P_t`` — probability the next queued symbol gets through.
    substitution:
        ``P_s`` — conditional corruption probability of a transmitted
        symbol.
    """

    deletion: float
    insertion: float
    transmission: float
    substitution: float = 0.0

    def __post_init__(self) -> None:
        for name in ("deletion", "insertion", "transmission", "substitution"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], got {value}")
        total = self.deletion + self.insertion + self.transmission
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(
                "deletion + insertion + transmission must sum to 1, "
                f"got {total}"
            )

    @classmethod
    def from_rates(cls, deletion: float, insertion: float) -> "ChannelParameters":
        """Build parameters from ``P_d`` and ``P_i``; ``P_t = 1 - P_d - P_i``,
        with no substitutions."""
        transmission = 1.0 - deletion - insertion
        if transmission < -1e-9:
            raise ValueError("deletion + insertion must not exceed 1")
        return cls(
            deletion=deletion,
            insertion=insertion,
            transmission=max(0.0, transmission),
        )

    def event_distribution(self) -> np.ndarray:
        """Distribution over the four :class:`ChannelEvent` values.

        Transmission probability is split between clean TRANSMISSION and
        SUBSTITUTION according to ``P_s``.
        """
        return np.array(
            [
                self.deletion,
                self.insertion,
                self.transmission * (1.0 - self.substitution),
                self.transmission * self.substitution,
            ]
        )


def sample_events(
    params: ChannelParameters, num_uses: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample *num_uses* i.i.d. channel events as an int array.

    The values are :class:`ChannelEvent` codes. Vectorized: one call to
    the generator regardless of length.
    """
    if num_uses < 0:
        raise ValueError("num_uses must be non-negative")
    if _EVENT_SAMPLER_HOOK is not None:
        return _EVENT_SAMPLER_HOOK(params, num_uses, rng)
    dist = params.event_distribution()
    return rng.choice(4, size=num_uses, p=dist).astype(np.int64)


def event_counts(events: Iterable[int]) -> dict:
    """Count occurrences of each event type in an event stream."""
    arr = np.asarray(list(events) if not isinstance(events, np.ndarray) else events)
    return {
        ChannelEvent.DELETION: int(np.count_nonzero(arr == ChannelEvent.DELETION)),
        ChannelEvent.INSERTION: int(np.count_nonzero(arr == ChannelEvent.INSERTION)),
        ChannelEvent.TRANSMISSION: int(
            np.count_nonzero(arr == ChannelEvent.TRANSMISSION)
        ),
        ChannelEvent.SUBSTITUTION: int(
            np.count_nonzero(arr == ChannelEvent.SUBSTITUTION)
        ),
    }


def empirical_parameters(events: Iterable[int]) -> ChannelParameters:
    """Estimate :class:`ChannelParameters` from an observed event stream.

    This is the measurement step of the paper's estimation recipe: run
    (or observe) the system, classify each channel use, then feed the
    estimated ``P_d`` into ``C_real = C_traditional (1 - P_d)``.
    """
    arr = np.asarray(
        list(events) if not isinstance(events, np.ndarray) else events
    )
    if arr.size == 0:
        raise ValueError("cannot estimate parameters from an empty stream")
    # Validate before counting: a stream of unknown codes would count as
    # zero events of every kind and produce a misleading "empty stream"
    # (or, worse, NaN rates) instead of naming the bad data.
    valid = np.isin(arr, tuple(int(e) for e in ChannelEvent))
    if not np.all(valid):
        bad = arr[~valid][0].item()
        raise ValueError(
            f"event stream contains invalid event code {bad!r}; "
            "expected ChannelEvent values 0..3"
        )
    counts = event_counts(arr)
    total = sum(counts.values())
    transmitted = counts[ChannelEvent.TRANSMISSION] + counts[ChannelEvent.SUBSTITUTION]
    substitution = (
        counts[ChannelEvent.SUBSTITUTION] / transmitted if transmitted else 0.0
    )
    return ChannelParameters(
        deletion=counts[ChannelEvent.DELETION] / total,
        insertion=counts[ChannelEvent.INSERTION] / total,
        transmission=transmitted / total,
        substitution=substitution,
    )
