"""Memoization semantics: opt-in activation, cache events, invalidation."""

import numpy as np
import pytest

from repro.infotheory.blahut_arimoto import blahut_arimoto
from repro.numerics import collect_store_events
from repro.store import (
    ResultStore,
    cached_solve,
    set_active_store,
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
    solve, calls = make_counting_solver("memo_setactive")
    set_active_store(store)
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
