"""Experiment registry: id -> runner.

Used by the CLI (``python -m repro run-experiment E3``), the benchmark
harness, and the EXPERIMENTS.md generator.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from . import (  # noqa: I001 — experiment-number order, not alphabetical
    e1_erasure_bound,
    e2_feedback_deletion,
    e3_counter_protocol,
    e4_convergence,
    e5_degradation,
    e6_common_event,
    e7_scheduler,
    e8_coding,
    e9_bounds,
    e10_imperfect_feedback,
    e11_iterative_decoding,
    e12_markov_bounds,
    e13_network_channel,
    e14_countermeasure,
    e15_fault_resilience,
    e16_extreme_regimes,
    e17_sample_estimation,
)
from .tables import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment", "run_all", "runner_kwargs"]

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "E1": e1_erasure_bound.run,
    "E2": e2_feedback_deletion.run,
    "E3": e3_counter_protocol.run,
    "E4": e4_convergence.run,
    "E5": e5_degradation.run,
    "E6": e6_common_event.run,
    "E7": e7_scheduler.run,
    "E8": e8_coding.run,
    "E9": e9_bounds.run,
    "E10": e10_imperfect_feedback.run,
    "E11": e11_iterative_decoding.run,
    "E12": e12_markov_bounds.run,
    "E13": e13_network_channel.run,
    "E14": e14_countermeasure.run,
    "E15": e15_fault_resilience.run,
    "E16": e16_extreme_regimes.run,
    "E17": e17_sample_estimation.run,
}


def _runner(experiment_id: str) -> Callable[..., ExperimentResult]:
    """The registered runner of *experiment_id* (case-insensitive)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id (case-insensitive)."""
    return _runner(experiment_id)(**kwargs)


def runner_kwargs(experiment_id: str, **kwargs) -> Dict:
    """Keep only the kwargs experiment *experiment_id*'s runner accepts
    (``seed``/``workers`` are meaningless to the deterministic tables).

    Reads the runner's ``__code__``, the one attribute a wrapped
    registry entry is guaranteed to carry."""
    code = _runner(experiment_id).__code__
    names = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    return {k: v for k, v in kwargs.items() if k in names}


def run_all(**kwargs) -> List[ExperimentResult]:
    """Run every experiment in order; kwargs are passed only where the
    runner accepts them (``seed`` is universal for the stochastic ones;
    ``workers`` fans Monte-Carlo replications over processes for the
    experiments that accept it, without changing any result)."""
    return [
        EXPERIMENTS[key](**runner_kwargs(key, **kwargs))
        for key in sorted(EXPERIMENTS, key=lambda k: int(k[1:]))
    ]
