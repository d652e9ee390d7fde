"""Measurement harness for synchronization protocols.

Runs a protocol, measures the empirical rates in both time bases, the
empirical substitution statistics of the converted channel, and packages
everything next to the corresponding theoretical bounds so experiments
E2/E3 can assert "simulation matches theorem" in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.capacity import (
    converted_capacity,
    erasure_upper_bound,
    feedback_lower_bound,
    feedback_lower_bound_exact,
)
from .protocols import ProtocolRun, SynchronizationProtocol

__all__ = [
    "ProtocolMeasurement",
    "measure_protocol",
    "substitution_error_capacity",
]


@dataclass(frozen=True)
class ProtocolMeasurement:
    """Side-by-side empirical and theoretical rates for one run.

    Attributes
    ----------
    run:
        The raw protocol run record.
    empirical_substitution_rate:
        Fraction of delivered positions that differ from the message —
        the converted channel's measured error rate (expected:
        ``alpha * P_i / (1 - P_d)``).
    empirical_information_per_slot:
        Converted-channel capacity at the *measured* substitution rate,
        scaled to bits per sender slot — the rate a capacity-achieving
        code over the converted channel would realize on this run.
    theoretical_lower_paper:
        The paper's Theorem 5 bound (eq. 2).
    theoretical_lower_exact:
        The exact protocol rate with the received-position insertion
        fraction (see DESIGN.md reconstruction notes).
    theoretical_upper:
        Theorem 4 bound ``N (1 - P_d)``.
    """

    run: ProtocolRun
    empirical_substitution_rate: float
    empirical_information_per_slot: float
    theoretical_lower_paper: float
    theoretical_lower_exact: float
    theoretical_upper: float

    @property
    def throughput_per_use(self) -> float:
        return self.run.throughput_per_use


def substitution_error_capacity(bits_per_symbol: int, error_rate: float) -> float:
    """Converted-channel capacity at a measured raw error rate.

    The measured error rate already excludes accidental matches, so we
    invert the ``alpha`` scaling before reusing
    :func:`repro.core.capacity.converted_capacity` (which expects the
    insertion probability, not the error probability).
    """
    m = 2**bits_per_symbol
    alpha = (m - 1) / m
    equivalent_insertion = min(1.0, error_rate / alpha)
    return converted_capacity(bits_per_symbol, equivalent_insertion)


def measure_protocol(
    protocol: SynchronizationProtocol,
    message: np.ndarray,
    rng: np.random.Generator,
) -> ProtocolMeasurement:
    """Execute *protocol* on *message* and compare against theory."""
    run = protocol.run(message, rng)
    n = protocol.bits_per_symbol
    p = protocol.params

    sub_rate = run.symbol_error_rate
    info_per_symbol = substitution_error_capacity(n, sub_rate)
    info_per_slot = run.information_rate_per_slot(info_per_symbol)

    if p.insertion < 1.0:
        lower_paper = feedback_lower_bound(n, p.deletion, p.insertion)
        lower_exact = feedback_lower_bound_exact(n, p.deletion, p.insertion)
    else:  # degenerate: nothing the sender offers is ever consumed
        lower_paper = lower_exact = 0.0

    return ProtocolMeasurement(
        run=run,
        empirical_substitution_rate=sub_rate,
        empirical_information_per_slot=info_per_slot,
        theoretical_lower_paper=lower_paper,
        theoretical_lower_exact=lower_exact,
        theoretical_upper=erasure_upper_bound(n, p.deletion),
    )
