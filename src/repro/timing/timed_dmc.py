"""Capacity of a general DMC with input-dependent symbol durations.

Generalizes the Moskowitz-Greenwald-Kang timed Z-channel: any discrete
memoryless channel whose input ``x`` occupies the channel for ``tau(x)``
time units has capacity (bits per time unit)

    C = max_p I(p, W) / T(p),      T(p) = sum_x p(x) tau(x).

This is capacity per unit cost, solved by the package's one
Blahut-Arimoto loop, :func:`repro.infotheory.blahut_arimoto_batch`, on a
1-stack with ``durations = tau``. Every iterate brackets the capacity
between ``I(p_t) / T(p_t)`` and ``max_x D(W(.|x) || q_t) / tau_x``
(Verdu, IEEE Trans. IT 1990), and the loop stops on the running
bracket's width. Cross-checks in the test suite: the timed Z-channel
and Shannon's noiseless channels with non-uniform durations both drop
out as special cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..infotheory.kernels import blahut_arimoto_batch
from ..numerics import SolverStatus, record_status
from ..store import cached_solve

__all__ = ["TimedDMCResult", "timed_dmc_capacity"]


@dataclass(frozen=True)
class TimedDMCResult:
    """Capacity of a timed DMC.

    Attributes
    ----------
    capacity:
        Bits per time unit: the best lower end ``max_t I(p_t)/T(p_t)``
        the solve reached, whatever its status.
    input_distribution:
        The iterate that reached ``capacity``.
    mean_time:
        Expected symbol duration under that distribution.
    bits_per_symbol:
        ``I`` at that distribution (= capacity * mean_time).
    iterations:
        Blahut-Arimoto iterations used.
    status:
        Terminal :class:`repro.numerics.SolverStatus` of the solve.
    gap:
        Width of the running bracket: the capacity lies in
        ``[capacity, capacity + gap]`` on every status, and
        ``converged`` means ``gap <= tol``.
    """

    capacity: float
    input_distribution: np.ndarray
    mean_time: float
    bits_per_symbol: float
    iterations: int
    status: SolverStatus
    gap: float


def _replay_timed_status(result: TimedDMCResult) -> None:
    """Report the stored status on a cache hit (warm runs surface the
    same solver health as the cold solve)."""
    record_status("timed_dmc", result.status)


@cached_solve("timed_dmc", on_hit=_replay_timed_status)
def timed_dmc_capacity(
    transition: np.ndarray,
    durations: np.ndarray,
) -> TimedDMCResult:
    """Capacity (bits per time unit) of a DMC with per-input durations.

    Memoized through :mod:`repro.store` when a result store is active;
    pass-through (bit-exact) otherwise.

    Parameters
    ----------
    transition:
        Row-stochastic ``P(y|x)`` of shape ``(nx, ny)``, admitted by
        :func:`repro.infotheory.validate_transition_stack` (finite,
        non-negative, rows summing to 1).
    durations:
        Positive per-input occupation times, length ``nx``.

    The solve stops at a bracket width of 1e-10 or after 10,000
    iterations.
    """
    w = np.asarray(transition, dtype=float)
    tau = np.asarray(durations, dtype=float)
    if w.ndim != 2:
        raise ValueError("transition must be a 2-D matrix")
    if tau.shape != (w.shape[0],):
        raise ValueError("durations must match the input alphabet")
    [result] = blahut_arimoto_batch(
        w, tol=1e-10, max_iter=10_000, durations=tau
    ).unbatch()
    record_status("timed_dmc", result.status)
    p = result.input_distribution
    mean_t = float(p @ tau)
    return TimedDMCResult(
        capacity=result.capacity,
        input_distribution=p,
        mean_time=mean_t,
        bits_per_symbol=result.capacity * mean_t,
        iterations=result.iterations,
        status=result.status,
        gap=result.gap,
    )
