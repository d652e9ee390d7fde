"""Cold = warm for every cached namespace.

One row per store namespace (``fn_id``). Each row runs its cached
computation twice under one fresh store and checks that

* the warm value is bit-identical to the cold one;
* the cache events go from ``{<fn_id>:miss: k}`` to ``{<fn_id>:hit: k}``;
* the solver statuses the warm run replays equal the cold run's.

A completeness case scans ``src/`` for every ``cached_solve("...")``
literal and ``*_FN_ID`` constant, so a new namespace cannot ship
without a row here.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.graph import analyze_source_root
from repro.bounds.deletion import block_bound_sweep
from repro.bounds.indel import indel_block_bound_sweep
from repro.coding.forward_backward import DriftChannelModel
from repro.estimation import bsc_sampler, estimate_sample_capacity
from repro.infotheory.blahut_arimoto import blahut_arimoto
from repro.numerics import collect_solver_statuses, collect_store_events
from repro.service import serve_queries
from repro.simulation.runner import ExperimentRunner
from repro.store import ResultStore, canonical_bytes, use_store
from repro.timing.timed_dmc import timed_dmc_capacity

SRC = Path(__file__).resolve().parents[2] / "src"
GRAPH_FIXTURE_SRC = (
    Path(__file__).resolve().parents[1]
    / "analysis"
    / "fixtures"
    / "graph_clock"
    / "src"
)

BSC = np.array([[0.9, 0.1], [0.1, 0.9]])


def _blahut_arimoto():
    return blahut_arimoto(BSC)


def _timed_dmc():
    return timed_dmc_capacity(BSC, np.array([1.0, 2.0]))


def _deletion_sweep():
    return block_bound_sweep([0.1, 0.3], block_length=3)


def _indel_sweep():
    return indel_block_bound_sweep(
        [(0.1, 0.05), (0.2, 0.1)], block_length=3, max_extra=2
    )


def _sample_capacity():
    return estimate_sample_capacity(
        bsc_sampler(0.1), n_samples=512, seed=1, max_iter=20
    )


def _drift_decode():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=24)
    model = DriftChannelModel(0.05, 0.05, max_drift=6)
    return model.decode(bits, np.full(24, 0.5))


def _coin_trial(rng):
    return {"value": float(rng.random())}


def _runner():
    # A run's solver statuses travel inside the stored value
    # (``RunResult.solver_statuses``), so the value check covers them.
    runner = ExperimentRunner(root_seed=11, replications=3)
    return runner.run(_coin_trial).to_dict()


def _service():
    results, _ = serve_queries(
        [
            {
                "kind": "estimate",
                "deletion": 0.1,
                "insertion": 0.05,
                "bits_per_symbol": 4,
            }
        ],
        workers=1,
    )
    return results[0].value


def _graph():
    return analyze_source_root(GRAPH_FIXTURE_SRC).graph.modules


#: fn_id -> (cached computation, entries it consults per call)
ROWS = {
    "blahut_arimoto": (_blahut_arimoto, 1),
    "timed_dmc": (_timed_dmc, 1),
    "deletion_block_bound_batch": (_deletion_sweep, 2),
    "indel_block_bound_batch": (_indel_sweep, 2),
    "estimation.sample_capacity": (_sample_capacity, 1),
    "drift_decode": (_drift_decode, 1),
    "experiment_runner.run": (_runner, 1),
    "service.capacity_query": (_service, 1),
    "graph_module": (
        _graph,
        len(list(GRAPH_FIXTURE_SRC.rglob("*.py"))),
    ),
}


def _observe(compute):
    with collect_store_events() as events:
        with collect_solver_statuses() as statuses:
            value = compute()
    return value, dict(events), dict(statuses)


@pytest.mark.parametrize("fn_id", sorted(ROWS))
def test_cold_equals_warm(fn_id, tmp_path):
    compute, k = ROWS[fn_id]
    with use_store(ResultStore(tmp_path / "store")):
        cold, cold_events, cold_statuses = _observe(compute)
        warm, warm_events, warm_statuses = _observe(compute)
    assert canonical_bytes(warm) == canonical_bytes(cold)
    assert cold_events == {f"{fn_id}:miss": k}
    assert warm_events == {f"{fn_id}:hit": k}
    assert warm_statuses == cold_statuses


def test_every_cached_namespace_has_a_row():
    text = "\n".join(
        path.read_text(encoding="utf-8") for path in SRC.rglob("*.py")
    )
    ids = set(re.findall(r'cached_solve\(\s*"([^"]+)"', text))
    ids |= set(re.findall(r'^\w*_FN_ID\s*=\s*"([^"]+)"', text, re.M))
    assert ids == set(ROWS), (
        f"namespaces without a row: {sorted(ids - set(ROWS))}; "
        f"rows without a namespace: {sorted(set(ROWS) - ids)}"
    )
