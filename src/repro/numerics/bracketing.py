"""Guarded root bracketing for the characteristic-equation solvers.

Millen's FSM capacity and Shannon's noiseless characteristic root both
bracket a root by geometric expansion and then call Brent's method.
Near-degenerate channels (vanishing durations, saturated adjacency)
make the expansion run off to its cap; the seed code raised a bare
``RuntimeError("failed to bracket capacity root")`` with nothing to
debug from. Here the expansion and the Brent call both fail as a
:class:`BracketingError` carrying :class:`BracketDiagnostics` — the
interval endpoints, the function values seen, and how many expansions
ran — and successes/failures are reported to the solver-status
collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy import optimize

from .guard import SolverStatus
from .telemetry import record_status

__all__ = [
    "BracketDiagnostics",
    "BracketingError",
    "expand_bracket",
    "guarded_brentq",
]


@dataclass(frozen=True)
class BracketDiagnostics:
    """Trace of a bracketing attempt.

    Attributes
    ----------
    solver:
        Name of the bracketing caller (``"fsm_capacity"``, ...).
    lo, hi:
        Final interval endpoints when the attempt stopped.
    f_lo, f_hi:
        Function values at those endpoints.
    expansions:
        Geometric expansion steps taken.
    trail:
        The last few ``(hi, f(hi))`` pairs, most recent last.
    """

    solver: str
    lo: float
    hi: float
    f_lo: float
    f_hi: float
    expansions: int
    trail: Tuple[Tuple[float, float], ...] = ()

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.solver}: bracket [{self.lo:.6g}, {self.hi:.6g}] with "
            f"f = ({self.f_lo:.6g}, {self.f_hi:.6g}) after "
            f"{self.expansions} expansions"
        )


class BracketingError(RuntimeError):
    """Root bracketing or root polishing failed, with diagnostics.

    Subclasses ``RuntimeError`` so pre-existing ``except RuntimeError``
    handlers around the capacity solvers keep working; new code should
    catch this type and inspect :attr:`diagnostics`.
    """

    def __init__(self, message: str, diagnostics: BracketDiagnostics) -> None:
        super().__init__(f"{message} [{diagnostics.describe()}]")
        self.diagnostics = diagnostics


def expand_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    grow: float = 2.0,
    hi_cap: float,
    solver: str = "bracket",
    tail_length: int = 6,
) -> Tuple[float, float]:
    """Grow ``hi`` geometrically until ``f(hi) <= 0``.

    Assumes ``f`` is (weakly) decreasing with ``f(lo) > 0``, the shape
    of every characteristic equation in this package. Returns the
    bracketing interval ``(lo, hi)``.

    Raises
    ------
    BracketingError
        If ``hi`` exceeds *hi_cap* or ``f(hi)`` turns non-finite before
        a sign change — with the expansion trail attached.
    """
    if grow <= 1.0:
        raise ValueError("grow must be > 1")
    if not hi > lo:
        raise ValueError("need hi > lo")
    f_lo = float(f(lo))
    f_hi = float(f(hi))
    trail = [(float(hi), f_hi)]
    expansions = 0
    # Success requires a *finite* non-positive f(hi): a NaN compares
    # False against 0 and must not be mistaken for a sign change.
    while not (np.isfinite(f_hi) and f_hi <= 0):
        if hi > hi_cap or not np.isfinite(f_hi):
            diagnostics = BracketDiagnostics(
                solver=solver,
                lo=float(lo),
                hi=float(hi),
                f_lo=f_lo,
                f_hi=f_hi,
                expansions=expansions,
                trail=tuple(trail[-tail_length:]),
            )
            record_status(solver, SolverStatus.ABORTED)
            raise BracketingError(
                "failed to bracket root: no sign change before the "
                f"expansion cap {hi_cap:g}",
                diagnostics,
            )
        hi *= grow
        expansions += 1
        f_hi = float(f(hi))
        trail.append((float(hi), f_hi))
    return float(lo), float(hi)


def guarded_brentq(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float,
    rtol: float = 8.9e-16,
    solver: str = "brentq",
) -> float:
    """Brent's method with failures translated to :class:`BracketingError`.

    Records ``converged`` / ``aborted`` with the status collector so
    root solves inside experiment replications are visible alongside
    the iterative solvers.
    """
    try:
        root = optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol)
    except (ValueError, RuntimeError) as exc:
        diagnostics = BracketDiagnostics(
            solver=solver,
            lo=float(lo),
            hi=float(hi),
            f_lo=float(f(lo)),
            f_hi=float(f(hi)),
            expansions=0,
        )
        record_status(solver, SolverStatus.ABORTED)
        raise BracketingError(f"root polishing failed: {exc}", diagnostics) from exc
    record_status(solver, SolverStatus.CONVERGED)
    return float(root)
