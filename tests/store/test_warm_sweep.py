"""Acceptance: a warm-cache E9-style bounds sweep runs zero solver
iterations.

The cold pass populates the store through the batched sweep's
per-point ``deletion_block_bound_batch`` entries; the warm pass must
answer entirely from cache — no ``solver`` stage appears in the timing
profile, the event counters show hits only, and the rows are
bit-identical. A partially-warm sweep batch-solves only its missing
points.
"""

import pytest

from repro.bounds import deletion
from repro.bounds.brackets import capacity_bracket_sweep
from repro.bounds.deletion import block_bound_sweep
from repro.numerics import (
    collect_solver_statuses,
    collect_stage_timings,
    collect_store_events,
)
from repro.store import ResultStore, use_store

DELETION_PROBS = (0.05, 0.1, 0.2)
BLOCK_LENGTH = 4


def run_sweep():
    with collect_stage_timings() as timings, collect_store_events() as events:
        with collect_solver_statuses() as statuses:
            rows = capacity_bracket_sweep(
                DELETION_PROBS, block_length=BLOCK_LENGTH
            )
    return rows, dict(timings), dict(events), dict(statuses)


def test_warm_sweep_runs_zero_solver_iterations(tmp_path):
    store = ResultStore(tmp_path / "cache")
    with use_store(store):
        cold_rows, cold_timings, cold_events, cold_statuses = run_sweep()
        warm_rows, warm_timings, warm_events, warm_statuses = run_sweep()

    # Cold pass actually solved: the solver stage ran and every point
    # was a miss.
    assert "solver" in cold_timings
    assert cold_events.get("deletion_block_bound_batch:miss") == len(
        DELETION_PROBS
    )

    # Warm pass did zero Blahut-Arimoto work: no solver stage at all,
    # pure hits, and the replayed solver statuses match the cold run's.
    assert "solver" not in warm_timings
    assert warm_events.get("deletion_block_bound_batch:hit") == len(
        DELETION_PROBS
    )
    assert "deletion_block_bound_batch:miss" not in warm_events
    assert warm_statuses == cold_statuses

    # And the answers are the same rows, bitwise.
    assert warm_rows == cold_rows


def test_partially_warm_sweep_solves_only_misses(tmp_path):
    store = ResultStore(tmp_path / "cache")
    with use_store(store):
        capacity_bracket_sweep(DELETION_PROBS[:2], block_length=BLOCK_LENGTH)
        with collect_store_events() as events:
            rows = capacity_bracket_sweep(
                DELETION_PROBS, block_length=BLOCK_LENGTH
            )
    assert events.get("deletion_block_bound_batch:hit") == 2
    assert events.get("deletion_block_bound_batch:miss") == 1
    assert len(rows) == len(DELETION_PROBS)


def test_store_disabled_sweep_is_unaffected(tmp_path):
    store = ResultStore(tmp_path / "cache")
    with use_store(store):
        cached_rows = capacity_bracket_sweep(
            DELETION_PROBS, block_length=BLOCK_LENGTH
        )
    plain_rows = capacity_bracket_sweep(DELETION_PROBS, block_length=BLOCK_LENGTH)
    assert plain_rows == cached_rows


@pytest.mark.parametrize(
    "block_length, deletion_prob",
    [
        (4, 0.8),
        (3, 0.95),
    ],
)
def test_fallback_points_record_the_same_statuses_cold_and_warm(
    tmp_path, monkeypatch, block_length, deletion_prob
):
    """A point that ends non-converged (a tol below float resolution
    stalls it) records one status, its final one, both when it is
    solved and when a hit replays it."""
    monkeypatch.setattr(deletion, "BLOCK_BOUND_TOL", 1e-18)
    with use_store(ResultStore(tmp_path / "cache")):
        with collect_solver_statuses() as cold:
            block_bound_sweep([deletion_prob], block_length=block_length)
        with collect_solver_statuses() as warm:
            block_bound_sweep([deletion_prob], block_length=block_length)
    assert cold == {"blahut_arimoto_batch:stalled": 1}
    assert warm == cold
