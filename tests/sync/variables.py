"""The two-synchronization-variable handshake of Figure 1.

The sender toggles an ``S-R`` variable after writing a symbol; the
receiver polls it, reads the symbol when it changes, then toggles an
``R-S`` variable to acknowledge; the sender polls that before writing
the next symbol. Given *any* interleaving of sender and receiver
operations (covert channels give the parties no control over when they
run — paper §3.1), the handshake guarantees no symbol is ever lost or
duplicated, at the cost of wasted waiting slots whenever a party is
scheduled before its partner has made progress.

:class:`HandshakeSimulator` executes the mechanism under a random
interleaving and reports both correctness and the wasted-slot overhead —
the "time wasted for waiting" that the paper's non-synchronous capacity
estimation accounts for and the traditional synchronous model ignores.
The handshake experiment E7 runs is
:class:`repro.os_model.covert.HandshakeSender` /
:class:`~repro.os_model.covert.HandshakeReceiver` on the scheduler
substrate; this standalone simulator lives here with its tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["SyncVariable", "HandshakeResult", "HandshakeSimulator"]


class SyncVariable:
    """A shared toggle bit with read/write counters.

    Models the "make a change on the variable" primitive of Figure 1:
    parties signal by flipping the bit and detect signals by comparing
    against the last value they saw.
    """

    def __init__(self, initial: int = 0) -> None:
        if initial not in (0, 1):
            raise ValueError("initial value must be 0 or 1")
        self._value = initial
        self.writes = 0
        self.reads = 0

    @property
    def value(self) -> int:
        return self._value

    def toggle(self) -> int:
        """Flip the bit (the 'make a change' operation)."""
        self._value ^= 1
        self.writes += 1
        return self._value

    def read(self) -> int:
        self.reads += 1
        return self._value


@dataclass(frozen=True)
class HandshakeResult:
    """Outcome of a Figure-1 handshake run.

    Attributes
    ----------
    delivered:
        Symbols the receiver extracted, in order.
    sender_ops:
        Number of scheduling opportunities the sender got.
    receiver_ops:
        Number of scheduling opportunities the receiver got.
    sender_waits:
        Sender opportunities wasted because the previous symbol was not
        yet acknowledged.
    receiver_waits:
        Receiver opportunities wasted because no new symbol had arrived.
    """

    delivered: np.ndarray
    sender_ops: int
    receiver_ops: int
    sender_waits: int
    receiver_waits: int

    @property
    def total_ops(self) -> int:
        return self.sender_ops + self.receiver_ops

    @property
    def useful_ops(self) -> int:
        return self.total_ops - self.sender_waits - self.receiver_waits

    @property
    def wasted_fraction(self) -> float:
        """Fraction of scheduling opportunities spent waiting — the
        synchronization overhead the synchronous model ignores."""
        return (
            (self.sender_waits + self.receiver_waits) / self.total_ops
            if self.total_ops
            else 0.0
        )

    def symbols_per_op(self, bits_per_symbol: int = 1) -> float:
        """Throughput in bits per scheduling opportunity."""
        if self.total_ops == 0:
            return 0.0
        return bits_per_symbol * len(self.delivered) / self.total_ops


class HandshakeSimulator:
    """Run the Figure-1 mechanism under a random schedule.

    Parameters
    ----------
    sender_prob:
        Probability that any given scheduling opportunity goes to the
        sender (the rest go to the receiver); models an oblivious
        uniprocessor scheduler alternating the two processes at random.
    """

    def __init__(self, sender_prob: float = 0.5) -> None:
        if not 0.0 < sender_prob < 1.0:
            raise ValueError("sender_prob must be in (0, 1)")
        self.sender_prob = sender_prob

    def run(
        self,
        message: np.ndarray,
        rng: np.random.Generator,
        *,
        max_ops: Optional[int] = None,
    ) -> HandshakeResult:
        """Deliver *message* through the handshake; never loses symbols."""
        msg = np.asarray(message, dtype=np.int64)
        if msg.ndim != 1:
            raise ValueError("message must be 1-D")

        data_register = 0  # the covert storage location
        s_to_r = SyncVariable()  # sender -> receiver "symbol ready"
        r_to_s = SyncVariable()  # receiver -> sender "symbol consumed"
        sender_seen_ack = r_to_s.value
        receiver_seen_ready = s_to_r.value

        delivered: List[int] = []
        send_pos = 0
        sender_ops = receiver_ops = 0
        sender_waits = receiver_waits = 0
        ops = 0
        limit = max_ops if max_ops is not None else 64 * (msg.size + 1) + 1000

        while len(delivered) < msg.size and ops < limit:
            ops += 1
            if rng.random() < self.sender_prob:
                sender_ops += 1
                if send_pos < msg.size and r_to_s.read() == sender_seen_ack:
                    # Previous symbol acknowledged: write the next one.
                    data_register = int(msg[send_pos])
                    send_pos += 1
                    s_to_r.toggle()
                    # Expect the ack bit to flip before sending again.
                    sender_seen_ack ^= 1
                else:
                    sender_waits += 1
            else:
                receiver_ops += 1
                if s_to_r.read() != receiver_seen_ready:
                    # New symbol ready: consume it and acknowledge.
                    delivered.append(data_register)
                    receiver_seen_ready ^= 1
                    r_to_s.toggle()
                else:
                    receiver_waits += 1

        return HandshakeResult(
            delivered=np.asarray(delivered, dtype=np.int64),
            sender_ops=sender_ops,
            receiver_ops=receiver_ops,
            sender_waits=sender_waits,
            receiver_waits=receiver_waits,
        )
