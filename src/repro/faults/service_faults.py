"""Service-level fault scenarios: crashy workers, slow solvers, chaos.

Where :mod:`repro.faults.injector` perturbs the *channel* a protocol
runs over, this module perturbs the *infrastructure* a capacity-query
service runs on. A :class:`ServiceFaultPlan` describes, per worker
batch, the probability of a hard worker crash (``SIGKILL``), an
artificially slow solve, and a transient (retryable) error — plus the
rate of malformed queries the trace generator mixes into a synthetic
load. All fault randomness is drawn from the RNG substream the caller
passes in, so a chaos run is reproducible bit-for-bit from
``(scenario, seed)``.

Consumers: :func:`repro.service.workers.solve_query_batch` (applies
:func:`apply_worker_faults` before solving) and
:mod:`repro.service.loadtest` (drives the ≥10k-query fault-injected
acceptance run).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .process import in_worker_process, kill_current_worker

__all__ = [
    "TransientWorkerError",
    "ServiceFaultPlan",
    "SERVICE_SCENARIOS",
    "get_service_scenario",
    "apply_worker_faults",
]


class TransientWorkerError(RuntimeError):
    """A worker failed in a way that is expected to heal on retry."""


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Per-batch fault probabilities for the service worker tier.

    Parameters
    ----------
    worker_crash_prob:
        Probability that the worker handling a batch SIGKILLs itself
        before solving (modelling OOM kills / hard crashes). Applied
        only inside real worker processes.
    slow_prob:
        Probability of sleeping ``slow_seconds`` before solving
        (modelling a pathological solver input or an overloaded host).
    slow_seconds:
        Duration of the injected slowdown.
    transient_error_prob:
        Probability of raising :class:`TransientWorkerError` instead of
        solving — the retryable failure class the service's
        ``RetryPolicy`` exists for.
    malformed_rate:
        Fraction of queries in a synthetic trace that are malformed
        (consumed by the trace generator, not by workers: malformed
        queries must be rejected at admission, before any worker sees
        them).
    """

    worker_crash_prob: float = 0.0
    slow_prob: float = 0.0
    slow_seconds: float = 0.02
    transient_error_prob: float = 0.0
    malformed_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_prob("worker_crash_prob", self.worker_crash_prob)
        _check_prob("slow_prob", self.slow_prob)
        _check_prob("transient_error_prob", self.transient_error_prob)
        _check_prob("malformed_rate", self.malformed_rate)
        if self.slow_seconds < 0:
            raise ValueError("slow_seconds must be non-negative")

    @property
    def injects_faults(self) -> bool:
        """Whether this plan can perturb worker execution at all."""
        return (
            self.worker_crash_prob > 0
            or self.slow_prob > 0
            or self.transient_error_prob > 0
        )


#: Named scenarios for the CLI (``repro service replay --scenario``) and
#: the load-test harness. "chaos" is the acceptance-test mix: crashes,
#: slowdowns, transient errors, and malformed queries all at once.
SERVICE_SCENARIOS: Dict[str, ServiceFaultPlan] = {
    "none": ServiceFaultPlan(),
    "crashy_workers": ServiceFaultPlan(worker_crash_prob=0.05),
    "slow_solvers": ServiceFaultPlan(slow_prob=0.2, slow_seconds=0.05),
    "flaky_solvers": ServiceFaultPlan(transient_error_prob=0.1),
    "chaos": ServiceFaultPlan(
        worker_crash_prob=0.02,
        slow_prob=0.05,
        slow_seconds=0.02,
        transient_error_prob=0.05,
        malformed_rate=0.02,
    ),
}


def get_service_scenario(name: str) -> ServiceFaultPlan:
    """Look up a named :class:`ServiceFaultPlan` or raise ``KeyError``."""
    try:
        return SERVICE_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown service fault scenario {name!r}; available: "
            f"{', '.join(sorted(SERVICE_SCENARIOS))}"
        ) from None


def apply_worker_faults(plan: ServiceFaultPlan, rng: np.random.Generator) -> None:
    """Roll *plan*'s dice against *rng*; maybe crash, stall, or raise.

    Called by the worker-side batch solver before it touches a query.
    Draw order is fixed (crash, slow, transient) so a given
    ``(plan, substream)`` pair always injects the same fault — chaos
    runs replay deterministically. Crashes are skipped outside real
    worker processes (e.g. a plan evaluated inline in tests).
    """
    if not plan.injects_faults:
        return
    if plan.worker_crash_prob > 0 and float(rng.random()) < plan.worker_crash_prob:
        if in_worker_process():
            kill_current_worker()
    if plan.slow_prob > 0 and float(rng.random()) < plan.slow_prob:
        time.sleep(plan.slow_seconds)
    if (
        plan.transient_error_prob > 0
        and float(rng.random()) < plan.transient_error_prob
    ):
        raise TransientWorkerError(
            "injected transient worker failure (service fault plan)"
        )
