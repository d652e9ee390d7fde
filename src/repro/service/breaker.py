"""Circuit breaker over the worker tier: closed / open / half-open.

When the worker pool is sick (consecutive crashes), continuing to
dispatch batches makes overload worse and burns the retry
budget of every queued query. The breaker cuts dispatch instead:
**open** fails fast to the shed ladder (queries still get *answers*,
degraded ones), then after a cooldown a **half-open** probe decides
whether the tier has healed.

The clock (``_clock``, :func:`time.monotonic`) is used only for the
cooldown, never for results; tests swap it to drive breaker
transitions without sleeping.
"""

from __future__ import annotations

import enum
import time
from typing import Dict, Optional

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(str, enum.Enum):
    """The classic three breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-triggered circuit breaker.

    Parameters
    ----------
    failure_threshold:
        Consecutive recorded failures that trip the breaker.
    cooldown_seconds:
        How long an open breaker waits before allowing the half-open
        probe.

    Successful dispatches fold their latency into an exponentially
    weighted moving average (smoothing factor 0.3), reported by
    :meth:`snapshot`; it never trips the breaker.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        cooldown_seconds: float = 5.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = time.monotonic
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
        count, and folds the latency into the EWMA.
        """
        self._consecutive_failures = 0
        self._probe_inflight = False
        if self._state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED)
        if latency_seconds is not None:
            if self.latency_ewma is None:
                self.latency_ewma = float(latency_seconds)
            else:
                self.latency_ewma = (
                    0.3 * float(latency_seconds) + 0.7 * self.latency_ewma
                )

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
