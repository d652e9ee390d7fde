"""Precision-targeted Monte-Carlo estimation.

Fixed replication counts either waste work (easy estimands) or deliver
sloppy intervals (hard ones). :func:`run_until_precise` keeps drawing
replications until the confidence interval's half-width falls below a
target (absolute or relative), with a hard cap. No experiment runs it;
it lives here with its tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.infotheory.probability import is_zero
from repro.numerics import SolverStatus, record_status
from repro.simulation.rng import RngFactory
from repro.simulation.stats import ConfidenceInterval
from tests.simulation.stats import RunningStats

__all__ = ["SequentialResult", "half_width", "run_until_precise"]


def half_width(ci: ConfidenceInterval) -> float:
    """Half the width of a two-sided interval."""
    return 0.5 * (ci.upper - ci.lower)


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of a sequential Monte-Carlo run.

    Attributes
    ----------
    interval:
        The final confidence interval.
    replications:
        Samples drawn.
    reached_target:
        Whether the precision target was met before the cap.
    """

    interval: ConfidenceInterval
    replications: int
    reached_target: bool

    @property
    def estimate(self) -> float:
        return self.interval.estimate

    @property
    def status(self) -> SolverStatus:
        """Solver-status view of the run: ``converged`` when the
        precision target was met, ``max_iter`` when the replication cap
        stopped it first."""
        if self.reached_target:
            return SolverStatus.CONVERGED
        return SolverStatus.MAX_ITER


def run_until_precise(
    trial: Callable[[np.random.Generator], float],
    *,
    root_seed: int = 0,
    abs_half_width: Optional[float] = None,
    rel_half_width: Optional[float] = None,
    confidence: float = 0.95,
    min_replications: int = 8,
    max_replications: int = 10_000,
    batch: int = 8,
) -> SequentialResult:
    """Draw replications of *trial* until the CI is tight enough.

    At least one of *abs_half_width* / *rel_half_width* must be given
    (passing neither raises). When both are given, sampling continues
    until **both** criteria hold.

    Parameters
    ----------
    trial:
        Function of a fresh generator returning one scalar sample.
    abs_half_width:
        Stop when the CI half-width is below this.
    rel_half_width:
        Stop when half-width / |mean| is below this. A (numerically)
        zero running mean makes the relative criterion unsatisfiable;
        the run then falls back to the absolute criterion when one was
        given, and otherwise draws until *max_replications*.
    """
    if abs_half_width is None and rel_half_width is None:
        raise ValueError("need abs_half_width and/or rel_half_width")
    if min_replications < 2:
        raise ValueError("min_replications must be >= 2")
    if max_replications < min_replications:
        raise ValueError("max_replications < min_replications")
    if batch < 1:
        raise ValueError("batch must be >= 1")

    factory = RngFactory(root_seed)
    stats = RunningStats()
    count = 0

    def tight_enough(ci: ConfidenceInterval) -> bool:
        ok = True
        if abs_half_width is not None:
            ok = ok and half_width(ci) <= abs_half_width
        if rel_half_width is not None:
            scale = abs(ci.estimate)
            if is_zero(scale):
                # A zero mean with shrinking absolute width: fall back
                # to the absolute criterion if present, else not tight.
                ok = ok and abs_half_width is not None
            else:
                ok = ok and half_width(ci) / scale <= rel_half_width
        return ok

    while count < max_replications:
        take = min(batch, max_replications - count)
        for _ in range(take):
            rng = factory.fresh(f"seq/{count}")
            stats.push(float(trial(rng)))
            count += 1
        if count >= min_replications:
            ci = stats.confidence_interval(confidence=confidence)
            if tight_enough(ci):
                result = SequentialResult(
                    interval=ci, replications=count, reached_target=True
                )
                record_status("sequential_mc", result.status)
                return result
    ci = stats.confidence_interval(confidence=confidence)
    result = SequentialResult(
        interval=ci, replications=count, reached_target=tight_enough(ci)
    )
    record_status("sequential_mc", result.status)
    return result
