"""Uniprocessor schedulers.

The paper (§3.2): *"Our method can be used to evaluate the effectiveness
of candidate system implementations, e.g., the scheduler, in reducing
covert channel capacities."* Each scheduler below induces a different
interleaving of the sender and receiver processes, hence different
deletion/insertion statistics for the §3.1 storage channel — measured
by :mod:`repro.os_model.measurement` and ranked in experiment E7.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from .process import Process

__all__ = [
    "Scheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "LotteryScheduler",
    "FuzzyTimeScheduler",
    "StrideScheduler",
    "MultilevelFeedbackScheduler",
]


class Scheduler(abc.ABC):
    """Picks which ready process runs next."""

    name = "abstract"

    @abc.abstractmethod
    def select(
        self, ready: Sequence[Process], rng: np.random.Generator
    ) -> Process:
        """Return the process to run for the next quantum."""

    def reset(self) -> None:
        """Clear internal state between kernel runs (default: nothing)."""


class RoundRobinScheduler(Scheduler):
    """Strict circular order — the covert pair's best case.

    Perfect alternation between sender and receiver (when they are the
    only ready processes) yields a synchronous channel:
    ``P_d = P_i = 0``.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, ready: Sequence[Process], rng: np.random.Generator) -> Process:
        if not ready:
            raise ValueError("no ready processes")
        proc = ready[self._next % len(ready)]
        self._next += 1
        return proc

    def reset(self) -> None:
        self._next = 0


class RandomScheduler(Scheduler):
    """Uniformly random choice each quantum.

    Two competing processes each run with probability 1/2, so the
    sender is scheduled twice in a row (a deletion) or the receiver
    twice in a row (an insertion) each with probability ~ 1/2 per
    symbol — a heavily non-synchronous channel.
    """

    name = "random"

    def select(self, ready: Sequence[Process], rng: np.random.Generator) -> Process:
        if not ready:
            raise ValueError("no ready processes")
        return ready[int(rng.integers(0, len(ready)))]


class LotteryScheduler(Scheduler):
    """Ticket-proportional random scheduling (Waldspurger & Weihl).

    Every process holds one ticket, so the draw is uniform, as in
    :class:`RandomScheduler`, but made through the weighted draw, which
    consumes the random stream differently.
    """

    name = "lottery"

    def select(self, ready: Sequence[Process], rng: np.random.Generator) -> Process:
        if not ready:
            raise ValueError("no ready processes")
        probs = np.full(len(ready), 1.0 / len(ready))
        return ready[int(rng.choice(len(ready), p=probs))]


class FuzzyTimeScheduler(Scheduler):
    """A covert-channel *countermeasure* scheduler.

    Mostly round-robin, but with probability ``fuzz`` it re-runs the
    same process for an extra quantum (randomized quantum lengths /
    fuzzy time, in the spirit of Hu's fuzzy-time defenses). The extra
    same-process quanta are precisely what manufactures deletions and
    insertions on the storage channel, degrading its capacity — the
    design-space point E7 quantifies.
    """

    name = "fuzzy-time"

    def __init__(self, fuzz: float = 0.3) -> None:
        if not 0.0 <= fuzz < 1.0:
            raise ValueError("fuzz must be in [0, 1)")
        self.fuzz = fuzz
        self._next = 0
        self._last: Process = None  # type: ignore[assignment]

    def select(self, ready: Sequence[Process], rng: np.random.Generator) -> Process:
        if not ready:
            raise ValueError("no ready processes")
        if self._last is not None and self._last in ready and rng.random() < self.fuzz:
            return self._last
        proc = ready[self._next % len(ready)]
        self._next += 1
        self._last = proc
        return proc

    def reset(self) -> None:
        self._next = 0
        self._last = None  # type: ignore[assignment]


class StrideScheduler(Scheduler):
    """Deterministic proportional-share scheduling (Waldspurger 1995).

    Each process advances a virtual "pass" by ``stride = BIG / tickets``
    when it runs; the lowest pass runs next. Every process holds one
    ticket, so the stride is ``BIG`` and this is round-robin: the covert
    pair sees a synchronous channel — the deterministic counterpart of
    the lottery scheduler, included to show that proportional
    *fairness* alone does not disturb the covert channel; *randomness*
    does.
    """

    name = "stride"

    _BIG = 1 << 20

    def __init__(self) -> None:
        self._pass: dict = {}

    def select(self, ready: Sequence[Process], rng: np.random.Generator) -> Process:
        if not ready:
            raise ValueError("no ready processes")
        current_pids = {p.pid for p in ready}
        # Drop state for departed processes; admit new ones at min pass.
        self._pass = {k: v for k, v in self._pass.items() if k in current_pids}
        floor = min(self._pass.values()) if self._pass else 0.0
        for p in ready:
            if p.pid not in self._pass:
                self._pass[p.pid] = floor
        chosen = min(ready, key=lambda p: (self._pass[p.pid], p.pid))
        self._pass[chosen.pid] += self._BIG
        return chosen

    def reset(self) -> None:
        self._pass = {}


class MultilevelFeedbackScheduler(Scheduler):
    """A simplified multilevel feedback queue (MLFQ).

    Processes that keep consuming quanta are demoted through three
    priority levels; a periodic boost (every 50 quanta) returns
    everyone to the top. Within the top occupied level the
    choice is round-robin. Because the §3.1 covert pair is always
    runnable, both parties ride the demotion/boost cycle together and
    the induced interleaving is *mostly* alternating with periodic
    bursts — a realistic middle ground between round-robin and random.
    """

    name = "mlfq"

    def __init__(self) -> None:
        self._level: dict = {}
        self._ticks = 0
        self._rr = 0

    def select(self, ready: Sequence[Process], rng: np.random.Generator) -> Process:
        if not ready:
            raise ValueError("no ready processes")
        self._ticks += 1
        if self._ticks % 50 == 0:
            self._level.clear()
        for p in ready:
            self._level.setdefault(p.pid, 0)
        top = min(self._level[p.pid] for p in ready)
        candidates = [p for p in ready if self._level[p.pid] == top]
        chosen = candidates[self._rr % len(candidates)]
        self._rr += 1
        # Consuming a full quantum demotes the process one level.
        self._level[chosen.pid] = min(2, self._level[chosen.pid] + 1)
        return chosen

    def reset(self) -> None:
        self._level = {}
        self._ticks = 0
        self._rr = 0
