"""Admission levels and the shed ladder (cache -> coarse bound)."""

import pytest

from repro.core.capacity import erasure_upper_bound
from repro.numerics import collect_solver_statuses
from repro.service import (
    SHED_LADDER_SOLVER,
    AdmissionController,
    ShedLevel,
    cached_lookup,
    coarse_bound_value,
    normalize_query,
    query_key,
    resolve_degraded,
    store_answer,
)
from repro.store import ResultStore, use_store


def _query(**overrides):
    raw = {
        "query_id": "q",
        "kind": "estimate",
        "deletion": 0.2,
        "insertion": 0.1,
        "bits_per_symbol": 4,
    }
    raw.update(overrides)
    return normalize_query(raw)


# ----------------------------------------------------------------------
# admission control


def test_admission_validation():
    with pytest.raises(ValueError):
        AdmissionController(queue_limit=0)
    with pytest.raises(ValueError):
        AdmissionController(cache_only_fraction=0.0)
    with pytest.raises(ValueError):
        AdmissionController(cache_only_fraction=0.9, coarse_fraction=0.5)


def test_admission_ladder_escalates_with_queue_depth():
    admission = AdmissionController(
        queue_limit=100, cache_only_fraction=0.6, coarse_fraction=0.85
    )
    assert admission.level(0) is ShedLevel.FULL
    assert admission.level(59) is ShedLevel.FULL
    assert admission.level(60) is ShedLevel.CACHE_ONLY
    assert admission.level(84) is ShedLevel.CACHE_ONLY
    assert admission.level(85) is ShedLevel.COARSE
    assert admission.level(99) is ShedLevel.COARSE
    assert admission.level(100) is ShedLevel.REJECT
    assert admission.level(500) is ShedLevel.REJECT


def test_shed_levels_order_by_severity():
    assert (
        ShedLevel.FULL
        < ShedLevel.CACHE_ONLY
        < ShedLevel.COARSE
        < ShedLevel.REJECT
    )


# ----------------------------------------------------------------------
# ladder rungs


def test_coarse_bound_is_the_erasure_bound():
    query = _query(deletion=0.25, bits_per_symbol=8)
    assert coarse_bound_value(query) == {
        "upper": erasure_upper_bound(8, 0.25)
    }


def test_cached_lookup_without_a_store_is_none():
    assert cached_lookup(_query()) is None


def test_store_roundtrip_through_the_ladder(tmp_path):
    query = _query()
    with use_store(ResultStore(tmp_path)):
        assert cached_lookup(query) is None
        store_answer(query, {"corrected_capacity": 3.2, "feedback_lower": 2.9})
        assert cached_lookup(query) == {
            "corrected_capacity": 3.2,
            "feedback_lower": 2.9,
        }
        # A semantically different query misses.
        assert cached_lookup(_query(deletion=0.3)) is None


def test_resolve_degraded_prefers_the_cache(tmp_path):
    query = _query()
    with use_store(ResultStore(tmp_path)):
        store_answer(query, {"corrected_capacity": 3.2, "feedback_lower": 2.9})
        with collect_solver_statuses() as statuses:
            outcome = resolve_degraded(query)
    assert outcome.source == "store"
    assert outcome.value == {
        "corrected_capacity": 3.2,
        "feedback_lower": 2.9,
    }
    assert statuses == {f"{SHED_LADDER_SOLVER}:converged": 1}


def test_resolve_degraded_falls_back_to_the_coarse_bound(tmp_path):
    query = _query()
    with collect_solver_statuses() as statuses:
        outcome = resolve_degraded(query)  # no store: nothing cached
    assert outcome.source == "coarse_bound"
    assert outcome.value == coarse_bound_value(query)
    assert statuses == {f"{SHED_LADDER_SOLVER}:stalled": 1}

    with use_store(ResultStore(tmp_path)):
        with collect_solver_statuses() as statuses:
            outcome = resolve_degraded(query)  # store miss
    assert outcome.source == "coarse_bound"
    assert statuses == {f"{SHED_LADDER_SOLVER}:stalled": 1}


def test_resolve_degraded_can_skip_the_cache(tmp_path):
    query = _query()
    with use_store(ResultStore(tmp_path)):
        store_answer(query, {"corrected_capacity": 3.2, "feedback_lower": 2.9})
        with collect_solver_statuses() as statuses:
            outcome = resolve_degraded(query, try_cache=False)
    assert outcome.source == "coarse_bound"
    assert statuses == {f"{SHED_LADDER_SOLVER}:stalled": 1}


def test_store_answer_without_a_store_is_a_noop():
    store_answer(_query(), {"upper": 1.0})  # must not raise


def test_query_key_is_the_store_key(tmp_path):
    query = _query()
    with use_store(ResultStore(tmp_path)) as store:
        store_answer(query, {"upper": 1.0})
        assert store.fetch(query_key(query)) is not None
