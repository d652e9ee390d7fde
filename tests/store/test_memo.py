"""Memoization semantics: opt-in activation, cache events, invalidation."""

from pathlib import Path

import numpy as np
import pytest

from repro.infotheory.blahut_arimoto import blahut_arimoto
from repro.numerics import collect_stage_timings, collect_store_events
from repro.store import (
    ResultStore,
    cached_solve,
    lookup,
    publish,
    result_store,
    use_store,
)

BSC = np.array([[0.9, 0.1], [0.1, 0.9]])


@pytest.fixture(autouse=True)
def _no_leftover_handles():
    from repro.store import memo

    memo._ACTIVE.clear()  # no leftover explicit handles between tests
    yield
    memo._ACTIVE.clear()


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def make_counting_solver(fn_id, body=None):
    calls = []

    @cached_solve(fn_id)
    def solve(x, *, scale=1.0):
        calls.append(x)
        return {"y": (body or (lambda v: v * 2.0))(x) * scale}

    return solve, calls


def test_no_store_means_pass_through(store):
    solve, calls = make_counting_solver("memo_passthrough")
    with collect_store_events() as events:
        assert solve(3.0) == {"y": 6.0}
        assert solve(3.0) == {"y": 6.0}
    assert calls == [3.0, 3.0]  # computed twice: no store, no caching
    assert events == {}


def test_hit_miss_counters_and_collector(store):
    solve, calls = make_counting_solver("memo_basic")
    with use_store(store):
        with collect_store_events() as events:
            assert solve(3.0) == {"y": 6.0}
            assert solve(3.0) == {"y": 6.0}
            assert solve(4.0, scale=2.0) == {"y": 16.0}
    assert calls == [3.0, 4.0]
    assert events == {"memo_basic:miss": 2, "memo_basic:hit": 1}


def test_kwarg_spelling_shares_entries(store):
    solve, calls = make_counting_solver("memo_kwargs")
    with use_store(store):
        solve(1.0, scale=3.0)
        solve(1.0, scale=3.0)
    assert len(calls) == 1


def test_bypass_on_unsupported_parameter(store):
    @cached_solve("memo_bypass")
    def solve(x):
        return {"r": repr(x)}

    with use_store(store), collect_store_events() as events:
        solve(object())
    assert events == {"memo_bypass:bypass": 1}
    assert store.stats().entries == 0


def test_on_hit_callback_replays(store):
    seen = []

    @cached_solve("memo_onhit", on_hit=seen.append)
    def solve(x):
        return x + 1

    with use_store(store):
        assert solve(1) == 2
        assert seen == []  # cold call: no replay
        assert solve(1) == 2
    assert seen == [2]


def test_explicit_none_pins_caching_off(store, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "envstore"))
    solve, calls = make_counting_solver("memo_pinned_off")
    with use_store(None), collect_store_events() as events:
        solve(5.0)
        solve(5.0)
    assert calls == [5.0, 5.0]
    assert events == {}


def test_set_active_store_installs_process_wide_handle(store):
    # An explicit handle left on the active stack (no ``with`` block)
    # serves every later solve in the process.
    from repro.store import memo

    solve, calls = make_counting_solver("memo_setactive")
    memo._ACTIVE.append(store)
    solve(9.0)
    solve(9.0)
    assert calls == [9.0]


def test_env_var_activates_store(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "envstore"))
    solve, calls = make_counting_solver("memo_env")
    solve(2.0)
    solve(2.0)
    assert calls == [2.0]
    assert ResultStore(tmp_path / "envstore").stats().entries == 1


def test_instance_attrs_share_across_equal_instances(store):
    from dataclasses import dataclass

    calls = []

    @dataclass
    class Model:
        rate: float

        @cached_solve("memo_method", instance_attrs=("rate",))
        def solve(self, x):
            calls.append((self.rate, x))
            return self.rate * x

    with use_store(store):
        assert Model(0.5).solve(4.0) == 2.0
        assert Model(0.5).solve(4.0) == 2.0  # equal params: shared entry
        assert Model(0.25).solve(4.0) == 1.0
    assert calls == [(0.5, 4.0), (0.25, 4.0)]


def test_code_edit_invalidates_entries(store):
    """Regression: two solvers registered under the same fn_id but with
    different source must never serve each other's entries — the code
    fingerprint salts the key."""
    calls = []

    @cached_solve("memo_edit")
    def solve_v1(x):
        calls.append("v1")
        return x * 2

    @cached_solve("memo_edit")
    def solve_v2(x):
        calls.append("v2")
        return x * 3  # the "edited" implementation

    with use_store(store):
        assert solve_v1(5) == 10
        assert solve_v1(5) == 10  # warm
        assert solve_v2(5) == 15  # edited code: recompute, not 10
        assert solve_v2(5) == 15  # warm under the new fingerprint
    assert calls == ["v1", "v2"]
    assert store.stats().entries == 2


def test_corrupt_entry_degrades_to_recompute(store):
    solve, calls = make_counting_solver("memo_corrupt")
    with use_store(store):
        solve(7.0)
        [key] = store.keys()
        (store.path_for(key) / "payload.json").write_text("broken")
        assert solve(7.0) == {"y": 14.0}
    assert calls == [7.0, 7.0]


def test_real_solver_hits_are_bit_identical(store):
    cold = blahut_arimoto(BSC)
    with use_store(store):
        miss = blahut_arimoto(BSC)
        hit = blahut_arimoto(BSC)
    assert miss.capacity == cold.capacity
    assert hit.capacity == cold.capacity
    assert hit.iterations == cold.iterations
    assert hit.status is cold.status
    np.testing.assert_array_equal(
        hit.input_distribution, cold.input_distribution
    )


# ----------------------------------------------------------------------
# the protocol: lookup / publish

KEY = "ab" * 32


def test_lookup_without_a_store_is_none_and_silent():
    with collect_store_events() as events, collect_stage_timings() as timings:
        assert lookup("memo_nostore", KEY) is None
        assert lookup("memo_nostore", None) is None
        publish("memo_nostore", KEY, 1.0)  # no-op, must not raise
    assert events == {}
    assert timings == {}


def test_lookup_records_hit_miss_and_bypass(store):
    seen = []
    with use_store(store), collect_store_events() as events:
        assert lookup("memo_proto", KEY) is None
        publish("memo_proto", KEY, {"v": 2.0}, compute_seconds=1.5)
        with collect_stage_timings() as timings:
            assert lookup("memo_proto", KEY, on_hit=seen.append) == ({"v": 2.0},)
        assert lookup("memo_proto", None) is None
    assert events == {
        "memo_proto:miss": 1,
        "memo_proto:hit": 1,
        "memo_proto:bypass": 1,
    }
    assert timings == {"store:saved_seconds": 1.5}
    assert seen == [{"v": 2.0}]


def test_a_stored_none_is_a_hit(store):
    calls = []

    @cached_solve("memo_none")
    def solve(x):
        calls.append(x)
        return None

    with use_store(store), collect_store_events() as events:
        publish("memo_none_raw", KEY, None)
        assert lookup("memo_none_raw", KEY) == (None,)
        assert solve(1) is None
        assert solve(1) is None
    assert calls == [1]
    assert events == {
        "memo_none_raw:hit": 1,
        "memo_none:miss": 1,
        "memo_none:hit": 1,
    }


def _fail_rename(*args, **kwargs):
    raise OSError("disk full")


@pytest.mark.parametrize(
    "failure",
    ["oserror", "serialization", "store"],
)
def test_publish_swallows_what_put_raises(store, monkeypatch, failure):
    key, value = KEY, {"v": 1.0}
    if failure == "oserror":
        monkeypatch.setattr(result_store.os, "rename", _fail_rename)
    elif failure == "serialization":
        value = {"v": object()}  # outside the payload vocabulary
    else:
        key = "not-a-hex-key"  # rejected by ResultStore.path_for
    with use_store(store):
        publish("memo_failing", key, value)
    assert store.keys() == []


def test_service_and_graph_hits_record_saved_seconds(store):
    from repro.analysis.graph import analyze_source_root
    from repro.service import QUERY_FN_ID, cached_lookup

    fixture = Path(__file__).parents[1] / "analysis" / "fixtures" / "graph_clock"
    with use_store(store):
        publish(QUERY_FN_ID, KEY, {"upper": 1.0})
        with collect_stage_timings() as timings:
            assert cached_lookup(KEY) == {"upper": 1.0}
        assert "store:saved_seconds" in timings
        analyze_source_root(fixture / "src")
        with collect_stage_timings() as timings:
            warm = analyze_source_root(fixture / "src")
    assert warm.cache_misses == 0
    assert timings["store:saved_seconds"] > 0.0


@pytest.mark.parametrize(
    "corruption",
    [
        "broken",
        '{"tampered": 1}',
        '{"__repro__": "dataclass", "fields": {"bogus": 1}, '
        '"cls": "repro.analysis.graph.symbols:ModuleSummary"}',
    ],
)
def test_corrupt_graph_entry_is_reextracted(store, corruption):
    from repro.analysis.graph import analyze_source_root

    fixture = Path(__file__).parents[1] / "analysis" / "fixtures" / "graph_clock"
    with use_store(store):
        cold = analyze_source_root(fixture / "src")
        for key in store.keys():
            (store.path_for(key) / "payload.json").write_text(corruption)
        warm = analyze_source_root(fixture / "src")
    assert warm.cache_hits == 0
    assert warm.reanalyzed == cold.reanalyzed
    assert warm.closure == cold.closure


def test_service_keys_each_query_once(store, monkeypatch):
    from repro.service import query, serve_queries

    calls = []
    real = query.canonical_key

    def counting_key(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(query, "canonical_key", counting_key)
    raws = [
        {"kind": "erasure", "deletion": d, "insertion": 0.0, "bits_per_symbol": 2}
        for d in (0.1, 0.2, 0.1)
    ]
    with use_store(store):
        serve_queries(raws, workers=1)
    assert len(calls) == len(raws)
