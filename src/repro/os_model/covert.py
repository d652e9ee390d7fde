"""The §3.1 storage covert channel, in two flavors.

* :class:`ObliviousSender` / :class:`ObliviousReceiver` — the raw
  non-synchronous channel: the sender writes its next symbol every time
  it is scheduled; the receiver reads every time it is scheduled. If
  the scheduler runs the sender twice in a row, the first symbol is
  overwritten (**deletion**); if it runs the receiver twice in a row,
  the second read is stale (**insertion**). This is the paper's
  motivating example, verbatim.

* :class:`HandshakeSender` / :class:`HandshakeReceiver` — the same
  processes using the Figure-1 two-variable handshake: never loses or
  duplicates a symbol, but wastes quanta waiting, trading ``P_d``/
  ``P_i`` for synchronization overhead.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .kernel import UniprocessorKernel
from .process import Process

__all__ = [
    "ObliviousSender",
    "ObliviousReceiver",
    "HandshakeSender",
    "HandshakeReceiver",
]


class ObliviousSender(Process):
    """Writes the next message symbol on every scheduled quantum."""

    def __init__(self, pid: int, message: np.ndarray) -> None:
        super().__init__(pid, "sender")
        self.message = np.asarray(message, dtype=np.int64)
        if self.message.ndim != 1:
            raise ValueError("message must be 1-D")
        self.position = 0

    @property
    def done(self) -> bool:
        return self.position >= self.message.size

    def step(self, kernel: UniprocessorKernel) -> None:
        if self.done:
            return
        kernel.register.write(int(self.message[self.position]))
        self.position += 1
        kernel.annotate("send")


class ObliviousReceiver(Process):
    """Reads the shared register on every scheduled quantum."""

    def __init__(self, pid: int) -> None:
        super().__init__(pid, "receiver")
        self.samples: List[int] = []

    def step(self, kernel: UniprocessorKernel) -> None:
        self.samples.append(kernel.register.read())
        kernel.annotate("recv")

    @property
    def received(self) -> np.ndarray:
        return np.asarray(self.samples, dtype=np.int64)


class HandshakeSender(Process):
    """Figure-1 sender: writes only after the previous symbol's ack."""

    SYNC_READY = "S-R"
    SYNC_ACK = "R-S"

    def __init__(self, pid: int, message: np.ndarray) -> None:
        super().__init__(pid, "hs-sender")
        self.message = np.asarray(message, dtype=np.int64)
        if self.message.ndim != 1:
            raise ValueError("message must be 1-D")
        self.position = 0
        self._expected_ack = 0
        self.waits = 0

    @property
    def done(self) -> bool:
        return self.position >= self.message.size

    def step(self, kernel: UniprocessorKernel) -> None:
        if self.done:
            return
        if kernel.read_sync(self.SYNC_ACK) != self._expected_ack:
            self.waits += 1
            kernel.annotate("send-wait")
            return
        kernel.register.write(int(self.message[self.position]))
        self.position += 1
        kernel.toggle_sync(self.SYNC_READY)
        self._expected_ack ^= 1
        kernel.annotate("send")


class HandshakeReceiver(Process):
    """Figure-1 receiver: reads only when a new symbol is flagged."""

    def __init__(self, pid: int) -> None:
        super().__init__(pid, "hs-receiver")
        self.samples: List[int] = []
        self._seen_ready = 0
        self.waits = 0

    def step(self, kernel: UniprocessorKernel) -> None:
        if kernel.read_sync(HandshakeSender.SYNC_READY) == self._seen_ready:
            self.waits += 1
            kernel.annotate("recv-wait")
            return
        self.samples.append(kernel.register.read())
        self._seen_ready ^= 1
        kernel.toggle_sync(HandshakeSender.SYNC_ACK)
        kernel.annotate("recv")

    @property
    def received(self) -> np.ndarray:
        return np.asarray(self.samples, dtype=np.int64)
