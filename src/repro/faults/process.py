"""Process-level fault injection: killing worker processes on purpose.

Supervised worker pools (:class:`repro.simulation.pool.SupervisedPool`)
must survive a fault that a Python-level ``raise`` cannot model: a
worker process dying abruptly (``SIGKILL``), which poisons a bare
``ProcessPoolExecutor`` with ``BrokenProcessPool``.
:func:`kill_current_worker` is that fault, and it fires only inside a
worker process, so the serial baseline of a bit-identity comparison is
never harmed.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

__all__ = [
    "in_worker_process",
    "kill_current_worker",
]


def in_worker_process() -> bool:
    """Whether this process was spawned by a multiprocessing pool.

    ``True`` in ``ProcessPoolExecutor`` workers (they have a
    multiprocessing parent), ``False`` in the main process — the guard
    that keeps process-killing faults from shooting the test harness.
    """
    return multiprocessing.parent_process() is not None


def kill_current_worker() -> None:
    """``SIGKILL`` the current process — no cleanup, no excuses.

    Models the faults supervision must survive (OOM killer, hard
    crash): the process gets no chance to run ``finally`` blocks or
    flush anything. Refuses to run outside a worker process.
    """
    if not in_worker_process():
        raise RuntimeError(
            "kill_current_worker() refused: not inside a worker process"
        )
    os.kill(os.getpid(), signal.SIGKILL)
