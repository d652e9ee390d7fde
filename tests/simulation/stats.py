"""Statistics helpers with no caller in the package, kept for their tests."""

from __future__ import annotations

import math
from typing import Sequence

from scipy import stats as _scipy_stats

from repro.simulation.stats import ConfidenceInterval


def wilson_interval(
    successes: int, trials: int, *, confidence: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation for the small event rates
    (``P_d``, ``P_i``) typical of well-designed schedulers.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    z = float(_scipy_stats.norm.ppf(0.5 + confidence / 2.0))
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    lower = max(0.0, center - margin)
    upper = min(1.0, center + margin)
    # Snap floating-point fuzz at the degenerate endpoints.
    if successes == 0:
        lower = 0.0
    if successes == trials:
        upper = 1.0
    return ConfidenceInterval(
        estimate=phat, lower=lower, upper=upper, confidence=confidence
    )


class RunningStats:
    """Welford's online mean/variance accumulator.

    Numerically stable for very long protocol runs where storing every
    per-block rate sample would be wasteful.
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)

    def extend(self, xs: Sequence[float]) -> None:
        for x in xs:
            self.push(float(x))

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ValueError("no samples")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1)."""
        if self._n < 2:
            raise ValueError("need at least two samples")
        return self._m2 / (self._n - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def confidence_interval(self, *, confidence: float = 0.95) -> ConfidenceInterval:
        """Student-t interval from the accumulated statistics."""
        if self._n < 2:
            raise ValueError("need at least two samples")
        sem = self.std / math.sqrt(self._n)
        t = float(_scipy_stats.t.ppf(0.5 + confidence / 2.0, df=self._n - 1))
        return ConfidenceInterval(
            self._mean, self._mean - t * sem, self._mean + t * sem, confidence
        )
