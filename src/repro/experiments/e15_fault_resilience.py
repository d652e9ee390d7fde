"""E15 — fault resilience: the hardened counter protocol under every
named fault scenario (extension; see ``repro.faults``).

The paper's Theorem 1 bound ``N (1 - P_d)`` is stated for i.i.d.
events, but its *estimation recipe* (§4.3) is empirical: measure the
event frequencies, plug ``P̂_d`` in. This experiment checks that the
recipe — and the hardened counter protocol — degrade gracefully when
the i.i.d. and perfect-feedback assumptions are broken:

1. under every registered fault scenario the protocol **completes**
   (delivers every message position) rather than dying or hanging;
2. the achieved information rate never exceeds the *empirical* erasure
   bound ``N (1 - P̂_d)`` computed from the observed event frequencies
   of the faulted run — capacity claims degrade, they don't break;
3. under every scenario with a counter-desync rate (``bursty_loss``,
   ``counter_desync``, ``stress``), the resynchronization machinery
   actually engages (epochs run and recoveries happen), i.e. the run is
   honestly flagged ``degraded`` instead of silently misaligned.
"""

from __future__ import annotations

from ..core.events import ChannelParameters
from ..faults.injector import run_under_faults
from ..faults.scenarios import get_scenario, list_scenarios
from ..simulation.rng import make_rng
from .tables import ExperimentResult

__all__ = ["run"]


# The run's settings, read at call time.
BITS_PER_SYMBOL = 3
NUM_SYMBOLS = 25_000
DELETION = 0.1
INSERTION = 0.05


def run(*, seed: int = 0) -> ExperimentResult:
    """Execute E15 and return the result table."""
    rng = make_rng(seed)
    n = BITS_PER_SYMBOL
    params = ChannelParameters.from_rates(deletion=DELETION, insertion=INSERTION)
    names = [s.name for s in list_scenarios()]
    rows = []
    passed = True
    for name in names:
        scenario = get_scenario(name)
        injector = scenario.build(params, seed=seed)
        message = rng.integers(0, 2**n, NUM_SYMBOLS)
        fm = run_under_faults(params, message, rng, injector, bits_per_symbol=n)
        recovery_expected = injector.desync_prob > 0
        recovery_ok = (not recovery_expected) or (
            fm.run.degraded
            and fm.fault_counts.get("resync_epochs", 0) > 0
            and fm.fault_counts.get("desyncs_recovered", 0) > 0
        )
        ok = fm.completed and fm.within_bound and recovery_ok
        passed = passed and ok
        rows.append(
            {
                "scenario": name,
                "P̂_d": fm.empirical_params.deletion,
                "P̂_i": fm.empirical_params.insertion,
                "sub rate": fm.run.symbol_error_rate,
                "rate/use": fm.information_rate_per_use,
                "UB N(1-P̂d)": fm.empirical_erasure_bound,
                "desyncs": fm.fault_counts.get("desyncs_injected", 0),
                "recovered": fm.fault_counts.get("desyncs_recovered", 0),
                "degraded": fm.run.degraded,
                "ok": ok,
            }
        )
    return ExperimentResult(
        experiment_id="E15",
        title="Fault resilience: hardened counter protocol vs. empirical bound",
        paper_claim=(
            "§4.3 estimation recipe, stressed: under bursty, drifting, and "
            "faulty-feedback regimes the achieved rate stays below the "
            "empirical Theorem-1 bound N(1 - P̂_d), and desync recovery "
            "keeps runs honest"
        ),
        columns=[
            "scenario",
            "P̂_d",
            "P̂_i",
            "sub rate",
            "rate/use",
            "UB N(1-P̂d)",
            "desyncs",
            "recovered",
            "degraded",
            "ok",
        ],
        rows=rows,
        passed=passed,
        notes=(
            "Rates under faults are far below the nominal Theorem-5 value — "
            "the gap quantifies what the i.i.d./perfect-feedback hypotheses "
            "are worth. The empirical bound is computed from the faulted "
            "run's own event frequencies, so it moves with the scenario."
        ),
    )
