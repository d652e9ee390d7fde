"""Protocol interfaces and run records.

A *synchronization protocol* turns a non-synchronous deletion-insertion
channel into something usable: it decides, at each sender opportunity,
whether to send a new symbol, resend, skip, or wait. Protocols in this
package are driven by the channel's event stream (Definition 1) and
report a :class:`ProtocolRun` with everything needed to measure the
achieved information rate in the paper's two time bases:

* **per channel use** — every event (deletion, insertion, transmission)
  counts one tick;
* **per sender slot** — only events that consume sender time (deletions
  and transmissions) count, matching eq. (2)'s
  ``(1 - P_d)/(1 - P_i)`` coefficient.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..core.events import ChannelParameters
from ..infotheory.probability import is_zero

__all__ = ["ProtocolRun", "RetryPolicy", "SynchronizationProtocol"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff policy for feedback-driven senders.

    Under a faulty feedback path an acknowledgment may never arrive, so
    a hardened sender waits ``ack_timeout_slots`` after each attempt,
    multiplies the wait by ``backoff`` after every consecutive failure
    (capped at ``max_timeout_slots``), and abandons the symbol after
    ``max_retries`` failed attempts (``None`` = retry forever, the
    paper's implicit policy). Waiting burns latency, not channel uses;
    runs account it under ``fault_counts["timeout_slots_waited"]``.
    """

    ack_timeout_slots: int = 1
    max_retries: Optional[int] = None
    backoff: float = 1.0
    max_timeout_slots: int = 1024

    def __post_init__(self) -> None:
        if self.ack_timeout_slots < 1:
            raise ValueError("ack_timeout_slots must be >= 1")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max_retries must be None or >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_timeout_slots < self.ack_timeout_slots:
            raise ValueError("max_timeout_slots must be >= ack_timeout_slots")

    def timeout_after(self, consecutive_failures: int) -> int:
        """Wait (in slots) after the given number of failed attempts."""
        wait = self.ack_timeout_slots * self.backoff**consecutive_failures
        return int(min(self.max_timeout_slots, wait))


@dataclass(frozen=True)
class ProtocolRun:
    """Ground-truth record of one protocol execution.

    Attributes
    ----------
    message:
        Message symbols the sender wanted to convey, in order.
    delivered:
        The receiver's final symbol stream, aligned with message
        positions (``delivered[k]`` is the receiver's belief about
        ``message[k]``).
    channel_uses:
        Total number of channel uses consumed.
    sender_slots:
        Channel uses that consumed sender time (deletions +
        transmissions). ``channel_uses - sender_slots`` equals the
        number of insertions.
    deletions, insertions, transmissions:
        Event counts observed during the run.
    bits_per_symbol:
        Symbol width ``N``.
    degraded:
        True when the protocol fell back to a degraded mode during the
        run — it abandoned symbols after retry exhaustion or recovered
        from counter desynchronization. A degraded run is still *honest*: the
        record reflects what actually happened on the wire.
    fault_counts:
        Per-run fault accounting (e.g. ``acks_lost``,
        ``desyncs_recovered``, ``resync_epochs``,
        ``symbols_abandoned``). Empty for fault-free runs.
    """

    message: np.ndarray
    delivered: np.ndarray
    channel_uses: int
    sender_slots: int
    deletions: int
    insertions: int
    transmissions: int
    bits_per_symbol: int
    degraded: bool = False
    fault_counts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.channel_uses < 0 or self.sender_slots < 0:
            raise ValueError("counts must be non-negative")
        if self.sender_slots > self.channel_uses:
            raise ValueError("sender_slots cannot exceed channel_uses")

    @property
    def symbols_delivered(self) -> int:
        return int(self.delivered.shape[0])

    @property
    def symbol_errors(self) -> int:
        """Positions where the receiver's belief differs from the message."""
        n = self.symbols_delivered
        return int(np.count_nonzero(self.delivered != self.message[:n]))

    @property
    def symbol_error_rate(self) -> float:
        n = self.symbols_delivered
        return self.symbol_errors / n if n else 0.0

    @property
    def throughput_per_use(self) -> float:
        """Raw symbol throughput x N, bits per channel use."""
        if self.channel_uses == 0:
            return 0.0
        return self.bits_per_symbol * self.symbols_delivered / self.channel_uses

    def information_rate_per_slot(self, per_symbol_information: float) -> float:
        """Scale a per-symbol information content (e.g. ``C_conv`` at the
        measured substitution rate) into bits per sender slot."""
        if self.sender_slots == 0:
            return 0.0
        return per_symbol_information * self.symbols_delivered / self.sender_slots


class SynchronizationProtocol(abc.ABC):
    """Base class for protocols executed against Definition-1 channels.

    Subclasses implement :meth:`run`, consuming channel randomness from
    the supplied generator so that runs are reproducible.
    """

    def __init__(self, params: ChannelParameters, *, bits_per_symbol: int = 1) -> None:
        if bits_per_symbol < 1:
            raise ValueError("bits_per_symbol must be >= 1")
        if not is_zero(params.substitution):
            raise ValueError(
                "synchronization analysis assumes a noiseless data channel "
                "(paper section 4.2); set substitution=0"
            )
        self.params = params
        self.bits_per_symbol = bits_per_symbol
        self.alphabet_size = 2**bits_per_symbol

    @abc.abstractmethod
    def run(self, message: np.ndarray, rng: np.random.Generator) -> ProtocolRun:
        """Execute the protocol until the message is exhausted and
        return the run record."""

    def _validate_message(self, message: np.ndarray) -> np.ndarray:
        msg = np.asarray(message, dtype=np.int64)
        if msg.ndim != 1:
            raise ValueError("message must be a 1-D array of symbols")
        if msg.size and (msg.min() < 0 or msg.max() >= self.alphabet_size):
            raise ValueError("message symbol out of alphabet range")
        return msg
