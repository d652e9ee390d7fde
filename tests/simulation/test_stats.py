"""Statistical helpers."""

import math

import numpy as np
import pytest

from repro.simulation.stats import mean_confidence_interval
from tests.simulation.stats import RunningStats, wilson_interval

#: Confidence levels on the grid: the runner's default (0.95) plus the
#: levels a caller is likely to pass.
CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


class TestMeanCI:
    def test_contains_true_mean_typically(self, rng):
        hits = 0
        for k in range(60):
            samples = rng.normal(5.0, 1.0, 40)
            ci = mean_confidence_interval(samples, confidence=0.95)
            hits += ci.lower <= 5.0 <= ci.upper
        assert hits >= 50  # ~95% coverage

    def test_constant_samples(self):
        ci = mean_confidence_interval([3.0, 3.0, 3.0])
        assert ci.lower == ci.upper == 3.0
        assert ci.upper - ci.lower == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0])
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=1.5)


class TestWilson:
    def test_half_proportion(self):
        ci = wilson_interval(50, 100)
        assert ci.estimate == 0.5
        assert ci.lower < 0.5 < ci.upper

    def test_zero_successes_lower_is_zero(self):
        ci = wilson_interval(0, 100)
        assert ci.lower == 0.0
        assert ci.upper > 0.0

    def test_all_successes_upper_is_one(self):
        ci = wilson_interval(100, 100)
        assert ci.upper == 1.0
        assert ci.lower < 1.0

    def test_more_trials_narrower(self):
        wide = wilson_interval(5, 10)
        narrow = wilson_interval(500, 1000)
        assert narrow.upper - narrow.lower < wide.upper - wide.lower

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=0.0)


class TestRunningStats:
    def test_matches_numpy(self, rng):
        xs = rng.normal(2.0, 3.0, 1000)
        rs = RunningStats()
        rs.extend(xs)
        assert rs.count == 1000
        assert rs.mean == pytest.approx(xs.mean())
        assert rs.variance == pytest.approx(xs.var(ddof=1))
        assert rs.std == pytest.approx(xs.std(ddof=1))

    def test_ci_matches_batch(self, rng):
        xs = rng.normal(0, 1, 200)
        rs = RunningStats()
        rs.extend(xs)
        ci_running = rs.confidence_interval()
        ci_batch = mean_confidence_interval(xs)
        assert ci_running.lower == pytest.approx(ci_batch.lower)
        assert ci_running.upper == pytest.approx(ci_batch.upper)

    def test_empty_raises(self):
        rs = RunningStats()
        with pytest.raises(ValueError):
            _ = rs.mean
        rs.push(1.0)
        with pytest.raises(ValueError):
            _ = rs.variance


class TestStudentQuantile:
    """The t quantile comes from ``scipy.special.stdtrit``, which
    ``scipy.stats.t.ppf`` wraps: the swap must not move a single bit."""

    def test_stdtrit_equals_stats_t_ppf_on_grid(self):
        from scipy import stats
        from scipy.special import stdtrit

        df = np.arange(1, 10_000, dtype=float)
        for confidence in CONFIDENCES:
            q = 0.5 + confidence / 2.0
            assert np.array_equal(stdtrit(df, q), stats.t.ppf(q, df=df))

    def test_interval_matches_stats_formula_bitwise(self, rng):
        # The runner calls mean_confidence_interval once per metric with
        # one sample per replication: df = replications - 1.
        from scipy import stats

        for confidence in CONFIDENCES:
            for n in range(2, 200):
                samples = rng.normal(0.3, 2.0, n)
                ci = mean_confidence_interval(samples, confidence=confidence)
                mean = float(samples.mean())
                sem = float(samples.std(ddof=1) / math.sqrt(n))
                t = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
                assert (ci.lower, ci.upper) == (mean - t * sem, mean + t * sem)
