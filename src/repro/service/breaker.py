"""Circuit breaker over the worker tier: closed / open / half-open.

When the worker pool is sick — consecutive crashes, or latency whose
exponentially-weighted moving average blows through its threshold —
continuing to dispatch batches makes overload worse and burns the retry
budget of every queued query. The breaker cuts dispatch instead:
**open** fails fast to the shed ladder (queries still get *answers*,
degraded ones), then after a cooldown a **half-open** probe decides
whether the tier has healed.

The clock is injectable (and only used for the cooldown — never for
results), so tests drive breaker transitions without sleeping.
"""

from __future__ import annotations

import enum
import time
from typing import Callable, Dict, Optional

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(str, enum.Enum):
    """The classic three breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure- and latency-triggered circuit breaker.

    Parameters
    ----------
    failure_threshold:
        Consecutive recorded failures that trip the breaker.
    latency_threshold_seconds:
        Optional EWMA latency that trips the breaker even while calls
        "succeed" — a tier that answers in 30 s is down in every way
        that matters to a deadline. ``None`` disables the latency trip.
    ewma_alpha:
        Smoothing factor of the latency EWMA (higher = more reactive).
    cooldown_seconds:
        How long an open breaker waits before allowing the half-open
        probe.
    clock:
        Monotonic time source; injectable so tests control the
        cooldown. Observability/flow-control only — never feeds
        results.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        latency_threshold_seconds: Optional[float] = None,
        ewma_alpha: float = 0.3,
        cooldown_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if latency_threshold_seconds is not None and latency_threshold_seconds <= 0:
            raise ValueError("latency_threshold_seconds must be positive")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        self.failure_threshold = failure_threshold
        self.latency_threshold_seconds = latency_threshold_seconds
        self.ewma_alpha = ewma_alpha
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probe_inflight = False
        self.latency_ewma: Optional[float] = None
        self.transitions: Dict[str, int] = {}

    @property
    def state(self) -> BreakerState:
        """Current state (cooldown expiry is applied by :meth:`allow`)."""
        return self._state

    def _transition(self, to: BreakerState) -> None:
        if to is self._state:
            return
        key = f"{self._state.value}->{to.value}"
        self.transitions[key] = self.transitions.get(key, 0) + 1
        self._state = to

    def allow(self) -> bool:
        """Whether a dispatch may proceed right now.

        Closed: always. Open: only after the cooldown, which moves the
        breaker to half-open and admits exactly one probe. Half-open:
        only the single probe; concurrent dispatchers are refused until
        the probe reports.
        """
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.OPEN:
            opened_at = self._opened_at if self._opened_at is not None else 0.0
            if self._clock() - opened_at < self.cooldown_seconds:
                return False
            self._transition(BreakerState.HALF_OPEN)
            self._probe_inflight = True
            return True
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def record_success(self, latency_seconds: Optional[float] = None) -> None:
        """Report a successful dispatch (and optionally its latency).

        Closes a half-open breaker, resets the consecutive-failure
        count, and folds the latency into the EWMA — which may
        immediately re-trip the breaker when the tier is "succeeding"
        too slowly to be useful.
        """
        self._consecutive_failures = 0
        self._probe_inflight = False
        if self._state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED)
        if latency_seconds is not None:
            if self.latency_ewma is None:
                self.latency_ewma = float(latency_seconds)
            else:
                a = self.ewma_alpha
                self.latency_ewma = (
                    a * float(latency_seconds) + (1.0 - a) * self.latency_ewma
                )
            if (
                self.latency_threshold_seconds is not None
                and self.latency_ewma > self.latency_threshold_seconds
                and self._state is BreakerState.CLOSED
            ):
                self._trip()

    def record_failure(self) -> None:
        """Report a failed dispatch.

        A half-open probe failure reopens immediately; in closed state
        the consecutive-failure counter trips at the threshold.
        """
        self._probe_inflight = False
        if self._state is BreakerState.HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self._transition(BreakerState.OPEN)
        self._opened_at = self._clock()
        self._consecutive_failures = 0

    def snapshot(self) -> Dict[str, object]:
        """Observability payload for ``service stats``."""
        return {
            "state": self._state.value,
            "latency_ewma_seconds": self.latency_ewma,
            "transitions": dict(self.transitions),
        }
