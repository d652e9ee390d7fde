"""The paper's two-step capacity-estimation recipe (Section 4.3).

    "for a given covert channel, one could first use traditional methods
    to estimate the physical capacity C. The probability of deletion P_d
    should then be estimated. The real capacity can then be estimated as
    C (1 - P_d)."

:class:`CapacityEstimator` wires a *traditional* estimator (any of the
synchronous-model estimators in :mod:`repro.timing`, or a user-supplied
physical rate) to measured non-synchronous statistics (``P_d``, ``P_i``)
and produces the corrected estimate, the full Theorem 4/5 bracket, and a
structured :class:`CapacityReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .capacity import erasure_upper_bound, feedback_lower_bound
from .events import ChannelParameters

__all__ = ["CapacityReport", "CapacityEstimator"]


@dataclass(frozen=True)
class CapacityReport:
    """Structured result of a non-synchronous capacity estimation.

    All rates are in bits per channel use unless stated otherwise;
    ``physical_capacity`` carries whatever unit the traditional method
    used (often bits/second), and the ``*_physical`` fields inherit it.

    Attributes
    ----------
    params:
        The (measured or assumed) channel parameters.
    bits_per_symbol:
        Symbol width ``N`` used for the theoretical bounds.
    synchronous_capacity:
        The traditional, synchronous-model estimate ``N`` bits/use —
        what prior work would report.
    corrected_capacity:
        The paper's headline correction ``N (1 - P_d)``.
    feedback_lower:
        Theorem 5 achievable rate with the counter protocol.
    physical_capacity:
        Optional physical rate from a traditional estimator.
    corrected_physical:
        ``physical_capacity * (1 - P_d)`` — the paper's §4.3 recipe.
    """

    params: ChannelParameters
    bits_per_symbol: int
    synchronous_capacity: float
    corrected_capacity: float
    feedback_lower: float
    physical_capacity: Optional[float] = None
    corrected_physical: Optional[float] = None

    @property
    def degradation(self) -> float:
        """Relative capacity loss ``1 - corrected/synchronous``.

        The paper's §4.3 remark: this is roughly proportional to
        ``P_d``; for the erasure bound it equals ``P_d`` exactly.
        """
        if self.synchronous_capacity == 0:
            return 0.0
        return 1.0 - self.corrected_capacity / self.synchronous_capacity

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            "Non-synchronous covert channel capacity estimate",
            f"  P_d={self.params.deletion:.4f}  P_i={self.params.insertion:.4f}"
            f"  P_t={self.params.transmission:.4f}  P_s={self.params.substitution:.4f}",
            f"  N = {self.bits_per_symbol} bits/symbol",
            f"  synchronous (traditional) capacity : {self.synchronous_capacity:.4f} bits/use",
            f"  corrected capacity  N(1-P_d)       : {self.corrected_capacity:.4f} bits/use",
            f"  Theorem 5 achievable (feedback)    : {self.feedback_lower:.4f} bits/slot",
            f"  relative degradation               : {self.degradation:.4%}",
        ]
        if self.physical_capacity is not None:
            lines.append(
                f"  physical capacity (traditional)    : {self.physical_capacity:.4f}"
            )
            lines.append(
                f"  physical capacity (corrected)      : {self.corrected_physical:.4f}"
            )
        return "\n".join(lines)


class CapacityEstimator:
    """Estimate real covert-channel capacity from non-synchronous stats.

    Parameters
    ----------
    bits_per_symbol:
        Symbol width ``N`` of the covert channel's signaling alphabet.
    physical_capacity:
        Optional traditional-method physical rate (e.g. from
        :func:`repro.timing.fsm.fsm_capacity` or
        :func:`repro.infotheory.noiseless.noiseless_capacity_per_second`)
        to which the ``(1 - P_d)`` correction is applied.
    """

    def __init__(
        self,
        bits_per_symbol: int = 1,
        *,
        physical_capacity: Optional[float] = None,
    ) -> None:
        if bits_per_symbol < 1:
            raise ValueError("bits_per_symbol must be >= 1")
        if physical_capacity is not None and (
            not math.isfinite(physical_capacity) or physical_capacity < 0
        ):
            # A NaN here would sail through a bare `< 0` check and
            # surface later as a NaN corrected_physical in the report.
            raise ValueError(
                "physical_capacity must be a finite non-negative rate, "
                f"got {physical_capacity!r}"
            )
        self.bits_per_symbol = bits_per_symbol
        self.physical_capacity = physical_capacity

    def estimate(self, params: ChannelParameters) -> CapacityReport:
        """Produce a :class:`CapacityReport` for the given parameters."""
        n = self.bits_per_symbol
        sync = float(n)
        corrected = erasure_upper_bound(n, params.deletion)
        if params.insertion < 1.0:
            lower = feedback_lower_bound(n, params.deletion, params.insertion)
        else:
            lower = 0.0
        physical = self.physical_capacity
        corrected_physical = (
            physical * (1.0 - params.deletion) if physical is not None else None
        )
        return CapacityReport(
            params=params,
            bits_per_symbol=n,
            synchronous_capacity=sync,
            corrected_capacity=corrected,
            feedback_lower=lower,
            physical_capacity=physical,
            corrected_physical=corrected_physical,
        )

