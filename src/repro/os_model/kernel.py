"""Uniprocessor kernel simulation.

Runs a set of :class:`~repro.os_model.process.Process` objects under a
:class:`~repro.os_model.scheduler.Scheduler`, one quantum at a time,
exposing the shared state (the covert storage register and optional
synchronization variables) that the covert pair communicates through.
The full schedule trace is recorded so that
:mod:`repro.os_model.measurement` can classify channel events after the
fact — exactly the observational workflow of the paper's estimation
recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .process import Process
from .scheduler import Scheduler

__all__ = ["SharedRegister", "KernelTrace", "UniprocessorKernel"]


class SharedRegister:
    """The shared resource the storage channel modulates.

    Any attribute a real system exposes to both parties works: a file
    lock, quota, inode timestamp... modeled as an integer cell with
    access counters.
    """

    def __init__(self) -> None:
        self.value = 0
        self.writes = 0
        self.reads = 0

    def write(self, value: int) -> None:
        self.value = int(value)
        self.writes += 1

    def read(self) -> int:
        self.reads += 1
        return self.value


@dataclass
class KernelTrace:
    """Complete record of a kernel run."""

    schedule: List[int] = field(default_factory=list)  # pid per quantum
    #: Per-quantum annotations appended by processes (e.g. 'send'/'recv').
    annotations: List[Optional[str]] = field(default_factory=list)

    @property
    def num_quanta(self) -> int:
        return len(self.schedule)


class UniprocessorKernel:
    """Single-CPU system: one process runs per quantum.

    Parameters
    ----------
    processes:
        The ready set (all processes are always ready in this model —
        blocking is expressed by a process choosing to do nothing).
    scheduler:
        The scheduling policy under evaluation.
    """

    def __init__(self, processes: List[Process], scheduler: Scheduler) -> None:
        if not processes:
            raise ValueError("need at least one process")
        pids = [p.pid for p in processes]
        if len(set(pids)) != len(pids):
            raise ValueError("duplicate pids")
        self.processes = list(processes)
        self.scheduler = scheduler
        self.register = SharedRegister()
        self.sync_variables: Dict[str, int] = {}
        self.trace = KernelTrace()
        self.time = 0
        self._annotation: Optional[str] = None

    # ------------------------------------------------------------------
    # Facilities processes may use during their quantum
    # ------------------------------------------------------------------
    def annotate(self, label: str) -> None:
        """Attach a label to the current quantum (visible in the trace)."""
        self._annotation = label

    def read_sync(self, name: str) -> int:
        """Read a named synchronization variable (default 0)."""
        return self.sync_variables.get(name, 0)

    def toggle_sync(self, name: str) -> None:
        """Flip a named synchronization variable."""
        self.sync_variables[name] = self.sync_variables.get(name, 0) ^ 1

    # ------------------------------------------------------------------
    def run(
        self,
        num_quanta: int,
        rng: np.random.Generator,
        *,
        stop_condition: Optional[callable] = None,
    ) -> KernelTrace:
        """Execute up to *num_quanta* scheduling quanta.

        *stop_condition* (checked after each quantum, receiving the
        kernel) ends the run early — e.g. "the sender has offered its
        whole message", so measurement windows are not polluted by
        post-message stale reads.
        """
        if num_quanta < 0:
            raise ValueError("num_quanta must be non-negative")
        self.scheduler.reset()
        for _ in range(num_quanta):
            proc = self.scheduler.select(self.processes, rng)
            self._annotation = None
            proc.on_scheduled()
            proc.step(self)
            self.trace.schedule.append(proc.pid)
            self.trace.annotations.append(self._annotation)
            self.time += 1
            if stop_condition is not None and stop_condition(self):
                break
        return self.trace
