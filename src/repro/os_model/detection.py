"""Covert-channel detection in kernel traces.

The paper's related-work taxonomy lists *identification* as the first
covert-channel discipline. This module gives the auditor's view of the
§3.1 scenario: given only a kernel trace (who ran, which quanta touched
the shared register), score how covert-channel-like a process pair's
behavior is.

Two complementary signals:

* **access interleaving** — a covert pair alternates register writes
  and reads far more regularly than independent processes;
  :func:`interleaving_score` measures the write→read alternation rate
  against the ~50% expected of unrelated accesses.
* **value coupling** — the mutual information between the values
  written and the values subsequently read is near the symbol entropy
  for a covert pair and near zero for independent activity;
  :func:`value_coupling_bits` estimates it. The caller must supply the
  *auditor's pairing* (each read matched with the most recent write,
  reconstructed from the trace): naive positional pairing collapses
  under scrambled scheduling exactly like E1's naive receiver.

:func:`detect_covert_pair` fuses both into a verdict with a
configurable threshold. False-positive behavior is characterized in the
test suite with genuinely independent workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..simulation.mutual_information import plugin_mutual_information
from .kernel import KernelTrace

__all__ = [
    "DetectionReport",
    "interleaving_score",
    "value_coupling_bits",
    "detect_covert_pair",
]


def _access_events(trace: KernelTrace) -> List[Tuple[str, int]]:
    """(kind, quantum) for each register-touching quantum."""
    events = []
    for idx, note in enumerate(trace.annotations):
        if note in ("send", "recv"):
            events.append((note, idx))
    return events


def interleaving_score(trace: KernelTrace) -> float:
    """Fraction of register accesses that alternate send/recv.

    A perfectly synchronized covert pair scores ~1.0; two independent
    processes each touching the register on their own schedule score
    ~0.5; a single process scores 0.
    """
    kinds = [k for k, _ in _access_events(trace)]
    if len(kinds) < 2:
        return 0.0
    alternations = sum(
        1 for a, b in zip(kinds, kinds[1:]) if a != b
    )
    return alternations / (len(kinds) - 1)


def value_coupling_bits(
    written: Sequence[int],
    read: Sequence[int],
    *,
    alphabet_size: int = 2,
) -> float:
    """Plug-in MI (bits) between written values and the next reads.

    The auditor pairs each read with the most recent write; the
    sequences passed here should already be in that paired order (the
    §3.1 oblivious channel produces them naturally).
    """
    n = min(len(written), len(read))
    if n < 2:
        return 0.0
    return plugin_mutual_information(
        np.asarray(written[:n]),
        np.asarray(read[:n]),
        nx=alphabet_size,
        ny=alphabet_size,
        bias_correct=True,
    )


@dataclass(frozen=True)
class DetectionReport:
    """Auditor's verdict on one process pair."""

    interleaving: float
    coupling_bits: float
    flagged: bool

    def summary(self) -> str:
        verdict = "COVERT CHANNEL SUSPECTED" if self.flagged else "clean"
        return (
            f"interleaving={self.interleaving:.3f} "
            f"coupling={self.coupling_bits:.3f} bits -> {verdict}"
        )


def detect_covert_pair(
    trace: KernelTrace,
    written: Optional[Sequence[int]] = None,
    read: Optional[Sequence[int]] = None,
) -> DetectionReport:
    """Fuse the interleaving and coupling signals into a verdict.

    A pair is flagged when *either* signal exceeds its threshold —
    interleaving catches handshake-style channels (which couple timing
    but may encrypt values), coupling catches oblivious channels even
    under scrambled scheduling. The thresholds, interleaving 0.75 and
    coupling 0.25 bits over a binary alphabet, give <1% false positives
    on independent workloads (see the test suite).
    """
    inter = interleaving_score(trace)
    coupling = 0.0
    if written is not None and read is not None:
        coupling = value_coupling_bits(written, read, alphabet_size=2)
    flagged = inter >= 0.75 or coupling >= 0.25
    return DetectionReport(
        interleaving=inter,
        coupling_bits=coupling,
        flagged=flagged,
    )
