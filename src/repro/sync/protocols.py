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
from typing import Dict

import numpy as np

from ..core.events import ChannelParameters
from ..infotheory.probability import is_one, is_zero

__all__ = ["ProtocolRun", "SynchronizationProtocol"]


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
        run: it recovered from counter desynchronization or delivered
        misaligned symbols. A degraded run is still *honest*: the
        record reflects what actually happened on the wire.
    fault_counts:
        Per-run fault accounting (``desyncs_injected``,
        ``desyncs_recovered``, ``resync_epochs``,
        ``misaligned_deliveries``). Empty for fault-free runs.
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
        """The message as an int array, checked against the alphabet.

        Every :meth:`run` calls this first, so it is also where a run
        that could never end is refused: at ``P_d = 1`` every send is
        deleted and no protocol ever advances.
        """
        msg = np.asarray(message, dtype=np.int64)
        if msg.ndim != 1:
            raise ValueError("message must be a 1-D array of symbols")
        if msg.size and (msg.min() < 0 or msg.max() >= self.alphabet_size):
            raise ValueError("message symbol out of alphabet range")
        if msg.size and is_one(self.params.deletion):
            raise ValueError("deletion probability 1 never delivers")
        return msg
