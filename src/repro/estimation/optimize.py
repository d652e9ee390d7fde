"""Sample-based capacity estimation: maximize kNN MI over inputs.

Capacity is ``max_p I(p)`` (bits per symbol) or, for channels whose
symbols occupy unequal time, ``max_p I(p) / T(p)`` with
``T(p) = sum_x p(x) tau(x)`` (bits per time unit). When the channel is
only available as a :class:`repro.estimation.samplers.ChannelSampler`,
neither ``I`` nor its gradient is exact — both are estimated from
draws:

* the per-sample KSG contributions
  (:func:`repro.estimation.knn.mixed_mi_contributions`) average, per
  input symbol ``s``, to an estimate of ``D(W(.|s) || q_p)`` — which
  is the Blahut–Arimoto gradient ``dI/dp_s`` up to the constant that
  the simplex projection absorbs;
* the optimizer runs projected stochastic gradient ascent on the
  simplex with a per-symbol probability floor of ``(k + 2) / n`` (every
  symbol must keep more than ``k`` samples or the estimator itself
  becomes undefined), a decaying step, and fresh RNG substreams per
  iteration;
* the loop runs under :class:`repro.numerics.IterationGuard` with the
  Blahut–Arimoto optimality gap ``max_s (g_s - rate * tau_s) / T`` as
  its residual, so noisy plateaus terminate as ``stalled`` rather than
  spinning, and every terminal status lands in the
  :func:`repro.numerics.record_status` collector;
* the *reported* capacity is never the optimizer's running value:
  maximizing over noisy iterates is upward-biased (a max over
  estimates exceeds the estimate at the max), so the final number
  comes from one fresh full-size evaluation at the best iterate, on
  RNG substreams the search never touched.

Results are memoized per ``(sampler, n_samples, seed, k, knobs)``
through :func:`repro.store.cached_batch` — the sampler dataclass is
its own cache fingerprint — so warm replays answer from the store with
zero optimizer iterations while still replaying solver status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..numerics import (
    IterationGuard,
    SolverDiagnostics,
    SolverStatus,
    record_status,
    stage,
)
from ..simulation.rng import RngFactory
from ..store import cached_batch, code_fingerprint
from .knn import mixed_mi_contributions
from .samplers import ChannelSampler

__all__ = [
    "SampleCapacityResult",
    "estimate_sample_capacity",
    "project_to_simplex",
]

#: Solver name in diagnostics and the status collector.
SOLVER_NAME = "sample_capacity"

#: Store namespace for memoized estimates.
ESTIMATE_FN_ID = "estimation.sample_capacity"

#: Initial step of the gradient ascent. It is part of every estimate's
#: store key, so editing it misses the store.
STEP_SIZE = 0.25


@dataclass(frozen=True)
class SampleCapacityResult:
    """Outcome of one sample-based capacity estimation.

    Attributes
    ----------
    capacity:
        Estimated capacity in bits per time unit (equals
        ``bits_per_symbol`` for untimed channels).
    input_distribution:
        The best input distribution found (simplex point with a
        ``(k + 2) / n`` per-symbol floor).
    bits_per_symbol:
        kNN MI estimate at that distribution, from the fresh final
        evaluation.
    mean_time:
        Expected symbol duration under the realized final-evaluation
        symbol counts.
    n_samples:
        Channel uses drawn per estimator evaluation.
    k:
        kNN neighbour order.
    iterations:
        Optimizer iterations executed (0 on a warm store replay).
    status:
        Terminal :class:`repro.numerics.SolverStatus` of the search.
    split_estimates:
        ``(even, odd)`` MI estimates from the deterministic
        even/odd-index split of the final evaluation's contributions —
        their spread is a direct variance read on the estimate.
    diagnostics:
        Guard trace; notes carry the bias/variance characterization,
        among them ``half_sample_mi``: MI re-estimated from the first
        half of the (shuffled) final sample, or ``skipped_small_class``
        when a symbol class would drop to ``<= k`` samples.
        ``bits_per_symbol - half_sample_mi`` tracks the finite-sample
        bias trend (kNN MI bias shrinks with ``n``).
    """

    capacity: float
    input_distribution: np.ndarray
    bits_per_symbol: float
    mean_time: float
    n_samples: int
    k: int
    iterations: int
    status: SolverStatus = SolverStatus.CONVERGED
    split_estimates: Tuple[float, float] = (float("nan"), float("nan"))
    diagnostics: Optional[SolverDiagnostics] = None

    @property
    def split_spread(self) -> float:
        """Absolute spread of the even/odd split estimates (bits)."""
        return abs(self.split_estimates[0] - self.split_estimates[1])


def project_to_simplex(v: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Euclidean projection of *v* onto ``{p : p >= floor, sum p = 1}``.

    The standard sort-based simplex projection (Held–Wolfe–Crowder),
    shifted so every coordinate keeps at least *floor* mass. Requires
    ``floor * len(v) <= 1``.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("v must be a non-empty 1-D array")
    if floor < 0 or floor * arr.size > 1.0 + 1e-12:
        raise ValueError(
            f"floor {floor} infeasible for a {arr.size}-point simplex"
        )
    budget = 1.0 - floor * arr.size
    w = arr - floor
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - budget
    rho = int(np.nonzero(u * np.arange(1, arr.size + 1) > css)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(w - theta, 0.0) + floor


def _allocate_counts(
    p: np.ndarray, n: int, min_count: int
) -> np.ndarray:
    """Deterministic largest-remainder allocation of *n* draws.

    Every symbol receives at least *min_count* draws (the estimator
    needs more than ``k`` samples per class); the remaining budget is
    split proportionally to *p* with stable tie-breaking.
    """
    m = p.size
    budget = n - m * min_count
    if budget < 0:
        raise ValueError(
            f"n_samples={n} cannot give {m} symbols {min_count} draws each"
        )
    target = p / p.sum() * budget
    base = np.floor(target).astype(np.int64)
    remainder = target - base
    leftover = budget - int(base.sum())
    order = np.argsort(-remainder, kind="stable")
    base[order[:leftover]] += 1
    return base + min_count


def _draw_and_score(
    sampler: ChannelSampler,
    counts: np.ndarray,
    k: int,
    factory: RngFactory,
    tag: str,
    *,
    shuffle: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """One estimator evaluation: draw per-symbol samples, score them.

    Returns ``(x, contributions)``. All randomness comes from named
    substreams under *tag*, so every evaluation is replayable in
    isolation and the final evaluation never shares a stream with the
    search iterations.
    """
    x = np.repeat(np.arange(counts.size), counts)
    y = sampler.sample(x, factory.fresh(f"{tag}/sample"))
    if shuffle:
        perm = factory.fresh(f"{tag}/permute").permutation(x.size)
        x, y = x[perm], y[perm]
    xi = mixed_mi_contributions(
        x, y, k=k, rng=factory.fresh(f"{tag}/jitter")
    )
    return x, xi


def _symbol_means(
    x: np.ndarray, xi: np.ndarray, m: int
) -> np.ndarray:
    """Per-symbol means of the contributions — the gradient estimate."""
    sums = np.bincount(x, weights=xi, minlength=m)
    counts = np.bincount(x, minlength=m)
    return sums / np.maximum(counts, 1)


def _solve_sample_capacity(
    sampler: ChannelSampler,
    n_samples: int,
    seed: int,
    k: int,
    max_iter: int,
    tol: float,
    step_size: float,
    stall_window: int,
) -> SampleCapacityResult:
    m = sampler.num_symbols
    tau = np.asarray(sampler.symbol_durations(), dtype=float)
    if tau.shape != (m,) or np.any(tau <= 0) or not np.all(np.isfinite(tau)):
        raise ValueError("sampler durations must be positive and finite")
    min_count = k + 2
    if n_samples < 2 * m * min_count:
        raise ValueError(
            f"n_samples={n_samples} too small: need at least "
            f"{2 * m * min_count} for {m} symbols at k={k}"
        )
    floor = min_count / float(n_samples)
    factory = RngFactory(seed)
    p = np.full(m, 1.0 / m)
    guard = IterationGuard(
        SOLVER_NAME,
        max_iter=max_iter,
        tol=tol,
        stall_window=stall_window,
    )
    status: Optional[SolverStatus] = None
    with stage("estimation:optimize"):
        t = 0
        while status is None:
            counts = _allocate_counts(p, n_samples, min_count)
            x, xi = _draw_and_score(
                sampler, counts, k, factory, f"estimation/iter/{t}"
            )
            g = _symbol_means(x, xi, m)
            p_hat = counts / float(n_samples)
            mean_time = float(p_hat @ tau)
            rate = float(p_hat @ g) / mean_time
            grad = (g - rate * tau) / mean_time
            # Blahut–Arimoto optimality gap, per time unit: zero iff no
            # symbol's divergence-per-second beats the current rate.
            residual = max(0.0, float(np.max(grad)))
            status = guard.update(residual, value=p.copy())
            step = step_size / (1.0 + 0.1 * t)
            p = project_to_simplex(p + step * grad, floor)
            t += 1
    p_best = guard.best_value if guard.best_value is not None else p
    p_best = project_to_simplex(np.asarray(p_best, dtype=float), floor)

    # Fresh full-size evaluation at the chosen distribution: the
    # search's running values are an upward-biased max over noise and
    # are never reported.
    final_counts = _allocate_counts(p_best, n_samples, min_count)
    x, xi = _draw_and_score(
        sampler, final_counts, k, factory, "estimation/final", shuffle=True
    )
    info = float(np.mean(xi))
    mean_time = float((final_counts / float(n_samples)) @ tau)
    capacity = info / mean_time

    # Bias/variance characterization on deterministic subsample splits.
    split_even = float(np.mean(xi[0::2]))
    split_odd = float(np.mean(xi[1::2]))
    half = x.size // 2
    half_counts = np.bincount(x[:half], minlength=m)
    if np.all(half_counts > k):
        half_xi = mixed_mi_contributions(
            x[:half],
            sampler.sample(x[:half], factory.fresh("estimation/half/sample")),
            k=k,
            rng=factory.fresh("estimation/half/jitter"),
        )
        half_note = f"half_sample_mi={float(np.mean(half_xi)):.6f}"
    else:
        half_note = "half_sample_mi=skipped_small_class"
    notes = (
        f"split_even={split_even:.6f}",
        f"split_odd={split_odd:.6f}",
        f"split_spread={abs(split_even - split_odd):.6f}",
        half_note,
        f"final_mi={info:.6f}",
    )
    record_status(SOLVER_NAME, status)
    return SampleCapacityResult(
        capacity=float(capacity),
        input_distribution=p_best,
        bits_per_symbol=info,
        mean_time=mean_time,
        n_samples=int(n_samples),
        k=int(k),
        iterations=guard.iterations,
        status=status,
        split_estimates=(split_even, split_odd),
        diagnostics=guard.diagnostics(notes=notes),
    )


def _replay_sample_status(result: SampleCapacityResult) -> None:
    """Surface the stored terminal status on a warm store hit."""
    record_status(SOLVER_NAME, result.status)


def estimate_sample_capacity(
    sampler: ChannelSampler,
    *,
    n_samples: int = 4096,
    seed: int = 0,
    k: int = 8,
    max_iter: int = 40,
    tol: float = 5e-3,
    stall_window: int = 12,
) -> SampleCapacityResult:
    """Estimate channel capacity from samples alone.

    Runs projected stochastic gradient ascent of the mixed KSG MI
    estimate over input distributions (see the module docstring for
    the full recipe). Deterministic: the same ``(sampler, n_samples,
    seed, k, knobs)`` always returns a bit-identical result, and when
    a result store is active the whole solve memoizes on exactly that
    tuple — a warm call replays from the store with zero optimizer
    iterations.

    Parameters
    ----------
    sampler:
        The channel, as a :class:`ChannelSampler` dataclass.
    n_samples:
        Channel uses per estimator evaluation. Must cover at least
        ``2 * num_symbols * (k + 2)`` draws; the kNN bias at the
        default ``k`` is ~0.01 bits at 4096 samples on the E17
        cross-validation channels.
    seed:
        Root seed of the :class:`repro.simulation.RngFactory` whose
        named substreams drive sampling, tie-break jitter, and the
        final-evaluation shuffle.
    k:
        Neighbour order of the mixed KSG estimator.
    max_iter, tol, stall_window:
        Search knobs: iteration cap, optimality-gap tolerance, and the
        guard's stall window. The initial step is :data:`STEP_SIZE`,
        decayed as ``1 / (1 + 0.1 t)``.
    """
    params = {
        "sampler": sampler,
        "n_samples": int(n_samples),
        "seed": int(seed),
        "k": int(k),
        "max_iter": int(max_iter),
        "tol": float(tol),
        "step_size": float(STEP_SIZE),
        "stall_window": int(stall_window),
    }

    def _solve(miss_indices: Sequence[int]) -> List[SampleCapacityResult]:
        return [
            _solve_sample_capacity(
                sampler,
                int(n_samples),
                int(seed),
                int(k),
                int(max_iter),
                float(tol),
                float(STEP_SIZE),
                int(stall_window),
            )
            for _ in miss_indices
        ]

    (result,) = cached_batch(
        ESTIMATE_FN_ID,
        [params],
        _solve,
        fingerprint=code_fingerprint(_solve_sample_capacity),
        on_hit=_replay_sample_status,
    )
    return result
