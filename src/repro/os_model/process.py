"""Process model for the uniprocessor covert-channel scenario (§3.1).

The paper's motivating example: sender and receiver are two processes on
a single CPU; only one can run at a time, and the OS scheduler decides
who. A :class:`Process` is anything with a :meth:`step` that the kernel
calls when the process is scheduled for a quantum.
"""

from __future__ import annotations

import abc

__all__ = ["Process", "IdleProcess"]


class Process(abc.ABC):
    """A schedulable entity.

    Parameters
    ----------
    pid:
        Unique process id.
    name:
        Human-readable label.
    """

    def __init__(self, pid: int, name: str = "") -> None:
        if pid < 0:
            raise ValueError("pid must be non-negative")
        self.pid = pid
        self.name = name or f"proc-{pid}"
        self.quanta_run = 0

    @abc.abstractmethod
    def step(self, kernel: "object") -> None:
        """Execute one scheduled quantum. *kernel* grants access to
        shared system state (the covert storage object, sync variables,
        current time)."""

    def on_scheduled(self) -> None:
        """Bookkeeping hook invoked by the kernel before :meth:`step`."""
        self.quanta_run += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(pid={self.pid}, name={self.name!r})"


class IdleProcess(Process):
    """Background load: does nothing with the covert channel.

    Mixing idle processes into the ready queue dilutes the covert pair's
    scheduling share and drives up the deletion/insertion rates — the
    knob experiment E7 sweeps.
    """

    def step(self, kernel: "object") -> None:
        # Represents unrelated computation; touches no shared state.
        return None
