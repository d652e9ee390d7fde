"""Millen's finite-state noiseless covert channels (1989).

Millen modeled an important class of covert channels as finite-state
machines: each transition (an operation visible to the receiver) has a
duration, and the channel is noiseless. The capacity in bits per time
unit is ``log2(W)`` where ``W`` is the unique positive root of

    det( A(W) - I ) = 0,      A(W)_{ij} = sum_{s: i->j} W^{-t_s},

the classic Shannon (1948) discrete noiseless channel result that Millen
carried over to covert-channel analysis. Equivalently, ``log2`` of the
value ``W`` for which the duration-weighted adjacency matrix ``A(W)``
has spectral radius exactly 1.

This is the flagship "traditional" estimator: it assumes every symbol
sent is received (a synchronous channel). The paper's correction
multiplies its output by ``(1 - P_d)``; see
:class:`repro.core.estimation.CapacityEstimator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..numerics import expand_bracket, guarded_brentq

__all__ = ["Transition", "FiniteStateChannel", "fsm_capacity"]


@dataclass(frozen=True)
class Transition:
    """One FSM edge: an operation taking *duration* time units.

    Attributes
    ----------
    source, target:
        State indices.
    duration:
        Positive time the operation takes.
    label:
        Optional operation name (cosmetic).
    """

    source: int
    target: int
    duration: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("transition duration must be positive")
        if self.source < 0 or self.target < 0:
            raise ValueError("state indices must be non-negative")


@dataclass
class FiniteStateChannel:
    """A noiseless finite-state covert channel (Millen 1989).

    Parameters
    ----------
    num_states:
        Number of FSM states.
    transitions:
        The labeled, timed edges. Parallel edges are allowed (distinct
        operations between the same pair of states).
    """

    num_states: int
    transitions: List[Transition] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_states < 1:
            raise ValueError("need at least one state")
        for t in self.transitions:
            if t.source >= self.num_states or t.target >= self.num_states:
                raise ValueError(f"transition {t} references unknown state")

    # ------------------------------------------------------------------
    def weighted_adjacency(self, w: float) -> np.ndarray:
        """The matrix ``A(W)_{ij} = sum over edges i->j of W^{-t}``."""
        if w <= 0:
            raise ValueError("W must be positive")
        a = np.zeros((self.num_states, self.num_states))
        for t in self.transitions:
            a[t.source, t.target] += w ** (-t.duration)
        return a

    def spectral_radius(self, w: float) -> float:
        """Largest eigenvalue magnitude of ``A(W)``."""
        return float(np.max(np.abs(np.linalg.eigvals(self.weighted_adjacency(w)))))

    # ------------------------------------------------------------------
    def capacity(self) -> float:
        """Capacity in bits per time unit: ``log2(W0)`` with
        ``rho(A(W0)) = 1``.

        Returns 0 for channels that cannot encode information (at most
        one outgoing edge everywhere, i.e. rho(A(1)) <= 1).

        Raises
        ------
        repro.numerics.BracketingError
            When no root can be bracketed or polished (degenerate
            duration structure); carries the last bracket.
        """
        if not self.transitions:
            return 0.0
        rho_at_1 = self.spectral_radius(1.0)
        if rho_at_1 <= 1.0 + 1e-12:
            return 0.0

        def f(log_w: float) -> float:
            return self.spectral_radius(float(np.exp(log_w))) - 1.0

        # rho(A(W)) is continuous and decreasing in W for W >= 1 (every
        # entry decreases). Bracket in log-space; the cap keeps
        # exp(log_w) clear of overflow.
        lo, hi = expand_bracket(
            f, 0.0, 1.0, hi_cap=700.0, solver="fsm_capacity"
        )
        root = guarded_brentq(f, lo, hi, xtol=1e-12, solver="fsm_capacity")
        return float(root / np.log(2.0))


def fsm_capacity(num_states: int, edges: Sequence[Tuple[int, int, float]]) -> float:
    """Convenience wrapper: capacity of an FSM given ``(src, dst, t)`` edges."""
    chan = FiniteStateChannel(
        num_states, [Transition(s, d, t) for (s, d, t) in edges]
    )
    return chan.capacity()
