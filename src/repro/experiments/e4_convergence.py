"""E4 — eqs. (6)-(7): asymptotic convergence of the Theorem-5 lower
bound to the Theorem-4 upper bound.

With ``P_i = P_d = p`` the time coefficient is 1 and the ratio
``C_lower / C_upper = C_conv(N, p) / (N (1 - p))`` must increase to 1
as the symbol width ``N`` grows, for every fixed ``p < 1``. The table
sweeps ``N`` for several ``p`` and also records the paper's explicit
large-N form ``(N(1-p) - H(p)) / (N(1-p))`` for comparison.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.capacity import convergence_ratio, convergence_ratio_limit
from ..simulation.runner import ExperimentRunner
from .tables import ExperimentResult

__all__ = ["convergence_trial", "run"]

BITS_PER_SYMBOL_VALUES = (1, 2, 4, 8, 12, 16, 24)
PROBS = (0.05, 0.1, 0.2)


def convergence_trial(
    rng: np.random.Generator,
    *,
    bits_per_symbol_values: Sequence[int] = BITS_PER_SYMBOL_VALUES,
    draws: int = 200,
) -> Dict[str, float]:
    """One Monte-Carlo replication of the E4 convergence spot-check.

    Samples *draws* random probabilities ``p`` and verifies that the
    ratio ``C_lower / C_upper`` stays in ``[0, 1]`` and is monotone in
    ``N`` across the swept symbol widths — the randomized counterpart
    of the deterministic grid in :func:`run`.

    Module-level (not a closure) so :class:`ExperimentRunner` can pickle
    it to worker processes; bind keyword arguments with
    :func:`functools.partial` when customizing.
    """
    ns = tuple(bits_per_symbol_values)
    min_ratio = 1.0
    max_monotonicity_violation = 0.0
    max_bound_violation = 0.0
    final_gap_total = 0.0
    for _ in range(draws):
        p = float(rng.uniform(0.01, 0.45))
        previous = -1.0
        ratio = 0.0
        for n in ns:
            ratio = convergence_ratio(n, p)
            max_monotonicity_violation = max(
                max_monotonicity_violation, previous - ratio
            )
            max_bound_violation = max(
                max_bound_violation, -ratio, ratio - 1.0
            )
            min_ratio = min(min_ratio, ratio)
            previous = ratio
        final_gap_total += 1.0 - ratio
    return {
        "min_ratio": min_ratio,
        "max_monotonicity_violation": max_monotonicity_violation,
        "max_bound_violation": max_bound_violation,
        "mean_final_gap": final_gap_total / draws,
    }


# The run's settings, read at call time.
MONTE_CARLO_REPLICATIONS = 4


def run(
    *,
    seed: int = 0,
    workers: int = 1,
    budget: Optional[float] = None,
) -> ExperimentResult:
    """Execute E4 and return the result table.

    The table itself is deterministic; a seeded Monte-Carlo spot-check
    (:func:`convergence_trial`, :data:`MONTE_CARLO_REPLICATIONS`
    replications, optionally fanned over *workers* processes) randomizes
    ``p`` and is reported in the notes. Identical seeds give identical results for
    any worker count. *budget* caps the Monte-Carlo wall-clock
    (``ExperimentRunner.time_budget_seconds``); an exhausted budget is
    reported in the notes and fails the spot-check only if no
    replication completed.
    """
    rows = []
    passed = True
    for p in PROBS:
        previous = -1.0
        for n in BITS_PER_SYMBOL_VALUES:
            ratio = convergence_ratio(n, p)
            approx = convergence_ratio_limit(n, p)
            monotone = ratio >= previous - 1e-12
            # The large-N form is asymptotic; only hold it to account
            # once the 2^-N corrections are small.
            close_to_approx = n < 4 or abs(ratio - approx) < 0.5 / n
            ok = monotone and 0.0 <= ratio <= 1.0 + 1e-12 and close_to_approx
            passed = passed and ok
            rows.append(
                {
                    "p": p,
                    "N": n,
                    "C_lower/C_upper": ratio,
                    "large-N form": approx,
                    "gap to 1": 1.0 - ratio,
                    "ok": ok,
                }
            )
            previous = ratio
        # Convergence: the largest N must be within H(p)/(N(1-p)) of 1.
        final_gap = 1.0 - convergence_ratio(max(BITS_PER_SYMBOL_VALUES), p)
        if final_gap > 0.12:
            passed = False

    notes = (
        "The gap decays like H(p)/(N(1-p)) + O(2^-N): doubling N "
        "roughly halves it."
    )
    runner = ExperimentRunner(
        root_seed=seed,
        replications=MONTE_CARLO_REPLICATIONS,
        workers=workers,
        time_budget_seconds=budget,
    )
    try:
        mc = runner.run(
            partial(
                convergence_trial,
                bits_per_symbol_values=tuple(BITS_PER_SYMBOL_VALUES),
            ),
            label="e4/monte-carlo",
        )
    except RuntimeError as exc:
        # Too few replications for intervals (e.g. the budget ran
        # out almost immediately); completed work is checkpointed,
        # so re-running with more budget resumes instead of redoing.
        mc = None
        passed = False
        notes += f" Monte-Carlo spot-check aborted ({exc}) -> FAILED."
    completed = (
        len(mc["min_ratio"].samples)
        if mc is not None and "min_ratio" in mc
        else 0
    )
    if mc is None:
        pass
    elif completed:
        worst_violation = max(
            max(mc["max_monotonicity_violation"].samples),
            max(mc["max_bound_violation"].samples),
        )
        mc_ok = worst_violation <= 1e-12
        passed = passed and mc_ok
        notes += (
            f" Monte-Carlo spot-check ({completed} "
            f"replications x 200 draws, seed {seed}): "
            f"worst violation {worst_violation:.3g}, "
            f"min ratio {min(mc['min_ratio'].samples):.4f} -> "
            f"{'ok' if mc_ok else 'FAILED'}."
        )
    else:
        passed = False
        notes += (
            " Monte-Carlo spot-check: no replication finished "
            "within the budget -> FAILED."
        )
    if mc is not None and mc.budget_exhausted:
        notes += (
            f" (wall-clock budget {budget:.3g}s exhausted after "
            f"{completed}/{MONTE_CARLO_REPLICATIONS} replications)"
        )
    return ExperimentResult(
        experiment_id="E4",
        title="Asymptotic convergence of the feedback bounds (P_i = P_d)",
        paper_claim=(
            "eqs. (6)-(7): lim_{N->inf} C_lower / C_upper = 1 when "
            "P_i = P_d"
        ),
        columns=["p", "N", "C_lower/C_upper", "large-N form", "gap to 1", "ok"],
        rows=rows,
        passed=passed,
        notes=notes,
    )
