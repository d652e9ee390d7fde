"""Benchmarks of the kNN mutual-information estimators.

Tracks the estimator's wall clock against sample count and asserts the
acceptance targets of the estimation subsystem:

* the fast path (sorted arrays for these 1-D outputs) beats the
  retained O(n^2) reference scan by >= 5x at n = 4096. Both paths share
  jitter draws, so the comparison also re-checks bit-for-bit parity at
  full benchmark size;
* on 1-D outputs at n = 8192, the sorted neighbour counts beat the
  cKDTree counts they replace by >= 3x, with identical outputs.

``BENCH_SMOKE`` shrinks n below the fast paths' payoff regime and
drops the speedup thresholds; the parity checks still hold.
"""

import os
import time

import numpy as np

from repro.estimation import mixed_mutual_information, tie_break_jitter
from repro.estimation.knn import _mixed_counts_sorted, _mixed_counts_tree
from repro.simulation.rng import RngFactory
from tests.estimation.oracles import mixed_mutual_information_reference

#: CI smoke mode: tiny sizes, no speedup thresholds (see ci.yml).
_SMOKE = os.environ.get("BENCH_SMOKE") == "1"


def _bsc_pairs(n, crossover, factory):
    x = factory.fresh("x").integers(0, 2, n)
    flip = factory.fresh("flip").random(n) < crossover
    return x, np.where(flip, 1 - x, x).astype(float)


def test_bench_mixed_mi_scaling(benchmark):
    """Wall clock of the estimator at the E17 operating point."""
    n = 512 if _SMOKE else 4096
    factory = RngFactory(0)
    x, y = _bsc_pairs(n, 0.1, factory)

    def run():
        return mixed_mutual_information(
            x, y, k=8, rng=RngFactory(0).fresh("j")
        )

    mi = benchmark(run)
    assert np.isfinite(mi)


def test_bench_tree_vs_naive_speedup(benchmark):
    """The fast path's >= 5x acceptance gate over the O(n^2) oracle."""
    n = 256 if _SMOKE else 4096
    factory = RngFactory(1)
    x, y = _bsc_pairs(n, 0.1, factory)

    fast = benchmark.pedantic(
        lambda: mixed_mutual_information(
            x, y, k=8, rng=RngFactory(1).fresh("j")
        ),
        rounds=3,
        iterations=1,
    )

    t0 = time.perf_counter()
    slow = mixed_mutual_information_reference(
        x, y, k=8, rng=RngFactory(1).fresh("j")
    )
    naive_seconds = time.perf_counter() - t0

    assert fast == slow  # shared jitter draws: parity is exact

    t0 = time.perf_counter()
    mixed_mutual_information(x, y, k=8, rng=RngFactory(1).fresh("j"))
    fast_seconds = time.perf_counter() - t0
    speedup = naive_seconds / fast_seconds
    print(f"\nn={n}: fast {fast_seconds:.4f}s, naive {naive_seconds:.4f}s, "
          f"speedup {speedup:.1f}x")
    if not _SMOKE:
        assert speedup >= 5.0, (
            f"fast path only {speedup:.1f}x over the naive scan"
        )


def _best_seconds(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_sorted_vs_tree_counts(benchmark):
    """The sorted 1-D neighbour counts' >= 3x gate over the cKDTree."""
    n = 512 if _SMOKE else 8192
    factory = RngFactory(2)
    x = factory.fresh("x").integers(0, 4, n)
    y = x + 0.3 * factory.fresh("n").normal(size=n)
    yj = tie_break_jitter(y, factory.fresh("j"))

    sorted_counts = benchmark.pedantic(
        lambda: _mixed_counts_sorted(x, yj, 8), rounds=3, iterations=1
    )
    tree_counts = _mixed_counts_tree(x, yj, 8)
    for got, want in zip(sorted_counts, tree_counts):
        assert np.array_equal(got, want)

    sorted_seconds = _best_seconds(lambda: _mixed_counts_sorted(x, yj, 8))
    tree_seconds = _best_seconds(lambda: _mixed_counts_tree(x, yj, 8))
    speedup = tree_seconds / sorted_seconds
    print(f"\nn={n}: sorted {sorted_seconds:.4f}s, tree {tree_seconds:.4f}s, "
          f"speedup {speedup:.1f}x")
    if not _SMOKE:
        assert speedup >= 3.0, (
            f"sorted counts only {speedup:.1f}x over the cKDTree counts"
        )
