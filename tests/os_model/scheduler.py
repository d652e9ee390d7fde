"""A scheduler with no caller in the package, kept for its tests."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.os_model.process import Process
from repro.os_model.scheduler import Scheduler


class PriorityScheduler(Scheduler):
    """Strict priority with round-robin among the top priority class."""

    name = "priority"

    def __init__(self) -> None:
        self._rr = 0

    def select(self, ready: Sequence[Process], rng: np.random.Generator) -> Process:
        if not ready:
            raise ValueError("no ready processes")
        top = max(p.priority for p in ready)
        candidates = [p for p in ready if p.priority == top]
        proc = candidates[self._rr % len(candidates)]
        self._rr += 1
        return proc

    def reset(self) -> None:
        self._rr = 0
