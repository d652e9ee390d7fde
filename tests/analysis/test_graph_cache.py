"""Incremental reuse of per-module summaries through the result store."""

from pathlib import Path

from repro.analysis.graph import analyze_source_root
from repro.analysis.graph.project import GRAPH_CACHE_FN_ID
from repro.numerics import collect_store_events
from repro.store import ResultStore, use_store

FIXTURE_SRC = (
    Path(__file__).parent / "fixtures" / "graph_clock" / "src"
)


def test_no_store_is_a_plain_computation():
    with collect_store_events() as events:
        analysis = analyze_source_root(FIXTURE_SRC)
    assert analysis.cache_hits == 0
    assert analysis.cache_misses > 0
    assert events == {}


def test_cold_then_warm_run_reuses_every_summary(tmp_path):
    store = ResultStore(tmp_path / "cache")
    with use_store(store), collect_store_events() as events:
        cold = analyze_source_root(FIXTURE_SRC)
        warm = analyze_source_root(FIXTURE_SRC)
    n = cold.cache_misses
    assert n > 0 and cold.cache_hits == 0
    assert warm.cache_hits == n and warm.cache_misses == 0
    assert warm.reanalyzed == ()
    assert events == {
        f"{GRAPH_CACHE_FN_ID}:miss": n,
        f"{GRAPH_CACHE_FN_ID}:hit": n,
    }
    # The cached round-trip is semantics-preserving.
    assert warm.closure == cold.closure


def test_modified_file_is_the_only_reextraction(tmp_path):
    src = tmp_path / "src"
    pkg = src / "clockpkg"
    for path in FIXTURE_SRC.rglob("*.py"):
        dest = src / path.relative_to(FIXTURE_SRC)
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    store = ResultStore(tmp_path / "cache")
    with use_store(store):
        analyze_source_root(src)
        timing = pkg / "timing.py"
        timing.write_text(
            timing.read_text(encoding="utf-8") + "\n\nX = 1\n",
            encoding="utf-8",
        )
        warm = analyze_source_root(src)
    assert warm.reanalyzed == ("clockpkg.timing",)
    assert warm.cache_misses == 1
