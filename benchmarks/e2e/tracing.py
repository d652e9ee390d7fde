"""Span recording around the program's public functions, from outside.

Nothing under ``src/`` knows about this module. :func:`install` rebinds
module-level names (and a few class attributes) in the already-imported
``repro`` modules to thin wrappers that record one span per call. It is
called only in a traced run, before any worker pool forks, so pool
workers inherit the wrappers; a worker appends its spans to a per-pid
file after every wrapped call, because pool workers exit without
running ``atexit`` handlers.

A span is ``{"id", "name", "start", "end", "parent", "request", "pid"}``
with times from ``time.perf_counter`` (one clock per process; spans of
different processes are never nested into each other).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

_SPANS: List[Dict[str, Any]] = []
_LOCAL = threading.local()
_COUNTER = [0]
_LOCK = threading.Lock()
_STATE: Dict[str, Any] = {"on": False, "dir": None, "parent_pid": None}


def _after_fork_in_child() -> None:
    # The child starts with a copy of the parent's spans, of whatever
    # span stack the forking thread had open, and possibly of a held
    # lock: start clean so worker spans nest only under worker spans.
    global _LOCK
    _LOCK = threading.Lock()
    _SPANS.clear()
    _LOCAL.stack = []


os.register_at_fork(after_in_child=_after_fork_in_child)


def _stack() -> List[str]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _flush_worker() -> None:
    """Append this (worker) process's spans to its own file."""
    if not _SPANS:
        return
    with _LOCK:
        batch = list(_SPANS)
        _SPANS.clear()
    path = Path(_STATE["dir"]) / f"spans-{os.getpid()}.jsonl"
    with open(path, "a", encoding="utf-8") as handle:
        for span in batch:
            handle.write(json.dumps(span) + "\n")


class span:
    """Context manager recording one span (``request`` links a query)."""

    __slots__ = ("name", "request", "id", "parent", "start")

    def __init__(self, name: str, request: Optional[str] = None) -> None:
        self.name = name
        self.request = request

    def __enter__(self) -> "span":
        if not _STATE["on"]:
            return self
        with _LOCK:
            _COUNTER[0] += 1
            self.id = f"{os.getpid()}:{_COUNTER[0]}"
        stack = _stack()
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if not _STATE["on"]:
            return
        end = time.perf_counter()
        stack = _stack()
        stack.pop()
        record = {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": end,
            "parent": self.parent,
            "request": self.request,
            "pid": os.getpid(),
        }
        with _LOCK:
            _SPANS.append(record)
        if not stack and os.getpid() != _STATE["parent_pid"]:
            _flush_worker()


def traced(name: str, fn: Callable[..., Any], request=None) -> Callable[..., Any]:
    """Wrap *fn* so each call records a span; ``request(args)`` names
    the request the call serves."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with span(name, request(args, kwargs) if request else None):
            return fn(*args, **kwargs)

    return wrapper


def rebind_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every module-level ``repro`` name bound to *original*."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _batch_request(args, kwargs) -> Optional[str]:
    payload = args[0] if args else kwargs.get("payload")
    if isinstance(payload, dict) and "queries" in payload:
        return ",".join(q.query_id for q in payload["queries"])
    return None


def _pool_request(args, kwargs) -> Optional[str]:
    # SupervisedPool.run(self, fn, payload, timeout=...)
    return _batch_request(args[2:], {}) if len(args) > 2 else None


def _normalize_request(args, kwargs) -> Optional[str]:
    return kwargs.get("query_id")


def install(span_dir: Path) -> None:
    """Install every wrapper and write worker spans under *span_dir*.

    Call it before the workload imports program functions by name and
    before any pool starts."""
    _STATE.update(on=True, dir=str(span_dir), parent_pid=os.getpid())

    # import_module, not ``import a.b as c``: some packages re-export a
    # function under their submodule's name.
    knn = importlib.import_module("repro.estimation.knn")
    optimize = importlib.import_module("repro.estimation.optimize")
    samplers = importlib.import_module("repro.estimation.samplers")
    ba = importlib.import_module("repro.infotheory.blahut_arimoto")
    kernels = importlib.import_module("repro.infotheory.kernels")
    query = importlib.import_module("repro.service.query")
    workers = importlib.import_module("repro.service.workers")
    runner = importlib.import_module("repro.simulation.runner")
    SupervisedPool = importlib.import_module("repro.simulation.pool").SupervisedPool
    ResultStore = importlib.import_module("repro.store.result_store").ResultStore

    for name, original in (
        ("infotheory.blahut_arimoto", ba.blahut_arimoto),
        ("infotheory.blahut_arimoto_batch", kernels.blahut_arimoto_batch),
        ("estimation.estimate", optimize.estimate_sample_capacity),
        ("estimation.mi_contrib", knn.mixed_mi_contributions),
        ("query.key", query.query_key),
    ):
        rebind_everywhere(original, traced(name, original))
    rebind_everywhere(
        query.normalize_query,
        traced("query.normalize", query.normalize_query, _normalize_request),
    )
    rebind_everywhere(
        workers.solve_query_batch,
        traced("workers.solve_batch", workers.solve_query_batch, _batch_request),
    )

    SupervisedPool.run = traced("pool.run", SupervisedPool.run, _pool_request)
    ResultStore.fetch = traced("store.fetch", ResultStore.fetch)
    ResultStore.put = traced("store.put", ResultStore.put)
    runner.ExperimentRunner.run = traced("runner.run", runner.ExperimentRunner.run)
    save = getattr(runner.ExperimentRunner, "_save_checkpoint", None)
    if save is not None:
        # Only calls that write a file: without a checkpoint path the
        # method returns at once.
        @functools.wraps(save)
        def traced_save(self: Any, *args: Any, **kwargs: Any) -> Any:
            if self.checkpoint_path is None:
                return save(self, *args, **kwargs)
            with span("runner.checkpoint"):
                return save(self, *args, **kwargs)

        runner.ExperimentRunner._save_checkpoint = traced_save
    for cls_name in ("DMCSampler", "TimedDMCSampler", "SchedulerTimingSampler",
                     "PacketGapSampler"):
        cls = getattr(samplers, cls_name, None)
        if cls is not None and "sample" in vars(cls):
            cls.sample = traced("estimation.sample", cls.sample)

    base = knn.cKDTree

    class TracedKDTree(base):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            with span("estimation.knn.tree_build"):
                super().__init__(*args, **kwargs)

        def query(self, *args: Any, **kwargs: Any) -> Any:
            with span("estimation.knn.query"):
                return super().query(*args, **kwargs)

        def query_ball_point(self, *args: Any, **kwargs: Any) -> Any:
            with span("estimation.knn.ball_query"):
                return super().query_ball_point(*args, **kwargs)

    knn.cKDTree = TracedKDTree


def reset() -> None:
    """Drop the spans recorded so far (set-up), here and in workers."""
    with _LOCK:
        _SPANS.clear()
    for path in Path(_STATE["dir"]).glob("spans-*.jsonl"):
        path.unlink()


def collect() -> List[Dict[str, Any]]:
    """Every span: this process's plus those the workers flushed."""
    spans = list(_SPANS)
    for path in sorted(Path(_STATE["dir"]).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def write_jsonl(spans: Iterable[Dict[str, Any]], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record) + "\n")


def summarize(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, ``busy_s`` (summed durations) and
    ``self_s`` (durations minus the time covered by direct children)."""
    child_time: Dict[str, float] = defaultdict(float)
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] += record["end"] - record["start"]
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for record in spans:
        duration = record["end"] - record["start"]
        entry = out[record["name"]]
        entry["count"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - child_time.get(record["id"], 0.0)
    return dict(out)
