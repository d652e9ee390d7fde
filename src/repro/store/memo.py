"""Memoization layer: ``@cached_solve`` and the active-store registry.

Caching is strictly opt-in. A solve consults the store only when one is
*active*: either a handle installed with :func:`use_store` /
:func:`set_active_store`, or — for whole processes (CLI runs, worker
pools) — the ``REPRO_STORE_DIR`` environment variable. With no active
store every decorated function is a plain pass-through, which is what
keeps the default path (and the test suite, which scrubs the
environment variable) bit-identical to an uncached build.

Every consultation is counted as a **hit** (entry found and decoded),
**miss** (computed and written), or **bypass** (store active but the
call is uncacheable — e.g. a parameter outside the canonical key
vocabulary). Counters aggregate per process (:func:`store_counters`)
and stream into any open :func:`repro.numerics.collect_store_events`
collector, next to the stage timings the profiling module already
gathers.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from ..numerics import record_stage_seconds
from ..numerics.profiling import record_store_event
from .keys import UnsupportedParameterError, canonical_key, code_fingerprint
from .result_store import ResultStore, StoreError
from .serialization import SerializationError

__all__ = [
    "active_store",
    "set_active_store",
    "use_store",
    "resolve_store",
    "cached_solve",
    "cached_batch",
    "record_cache_event",
    "store_counters",
    "reset_store_counters",
]

_ACTIVE: List[Optional[ResultStore]] = []
_ENV_STORES: Dict[str, ResultStore] = {}
_COUNTERS: Dict[str, int] = {}


def active_store() -> Optional[ResultStore]:
    """The store cached solves consult, or ``None`` (caching off).

    Resolution order: the innermost :func:`use_store` /
    :func:`set_active_store` handle (an explicit ``None`` disables
    caching even under the environment variable), then
    ``REPRO_STORE_DIR``.
    """
    if _ACTIVE:
        return _ACTIVE[-1]
    env_dir = os.environ.get("REPRO_STORE_DIR")
    if not env_dir:
        return None
    store = _ENV_STORES.get(env_dir)
    if store is None:
        try:
            store = ResultStore(env_dir)
        except (StoreError, OSError):
            return None  # unusable directory: caching silently off
        _ENV_STORES[env_dir] = store
    return store


def set_active_store(store: Optional[ResultStore]) -> None:
    """Install *store* as the process-wide active store.

    Replaces any previous explicit handle; ``None`` pins caching off
    regardless of ``REPRO_STORE_DIR``. Prefer the scoped
    :func:`use_store` in tests.
    """
    _ACTIVE.clear()
    _ACTIVE.append(store)


@contextmanager
def use_store(store: Optional[ResultStore]) -> Iterator[Optional[ResultStore]]:
    """Scoped activation: cached solves inside the block use *store*."""
    _ACTIVE.append(store)
    try:
        yield store
    finally:
        _ACTIVE.pop()


def resolve_store(directory: Optional[Union[str, Path]] = None) -> ResultStore:
    """Open the store at *directory*, falling back to the environment.

    The CLI's entry point: an explicit ``--dir`` wins, else the
    ``REPRO_STORE_DIR`` store, else a :class:`StoreError` naming both.
    """
    if directory is not None:
        return ResultStore(directory)
    store = active_store()
    if store is None:
        raise StoreError(
            "no store configured: pass --dir or set REPRO_STORE_DIR"
        )
    return store


# ----------------------------------------------------------------------
# counters

def record_cache_event(fn_id: str, event: str) -> None:
    """Count one hit/miss/bypass for *fn_id* (process-wide + collectors)."""
    key = f"{fn_id}:{event}"
    _COUNTERS[key] = _COUNTERS.get(key, 0) + 1
    record_store_event(fn_id, event)


def store_counters() -> Dict[str, int]:
    """Snapshot of the process-wide ``{"fn_id:event": count}`` map."""
    return dict(_COUNTERS)


def reset_store_counters() -> None:
    """Zero the process-wide counters (test isolation)."""
    _COUNTERS.clear()


# ----------------------------------------------------------------------
# the decorator

def cached_solve(
    fn_id: str,
    *,
    instance_attrs: Optional[Sequence[str]] = None,
    on_hit: Optional[Callable[[Any], None]] = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Memoize an expensive solve through the active result store.

    Parameters
    ----------
    fn_id:
        Stable identifier for the solver (part of every key and of the
        hit/miss/bypass counter names).
    instance_attrs:
        For methods: names of the attributes on ``self`` that define
        the computation. They replace ``self`` in the cache key, so two
        model instances with equal parameters share entries.
    on_hit:
        Called with the decoded result on every hit. Used by solvers
        that report to the solver-status collector so a warm run
        surfaces the same solver health as the cold run that filled
        the cache.

    The wrapped function is bit-exact pass-through when no store is
    active. Uncacheable calls (parameters outside the canonical key
    vocabulary) and store write failures degrade to plain computation —
    the cache can only ever trade time, never correctness.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            store = active_store()
            if store is None:
                return fn(*args, **kwargs)
            try:
                if instance_attrs is not None:
                    self_obj = args[0]
                    params: Dict[str, Any] = {
                        "self": {
                            name: getattr(self_obj, name)
                            for name in instance_attrs
                        },
                        "args": list(args[1:]),
                        "kwargs": kwargs,
                    }
                else:
                    params = {"args": list(args), "kwargs": kwargs}
                key = canonical_key(
                    fn_id, params, code_fingerprint=code_fingerprint(fn)
                )
            except (UnsupportedParameterError, IndexError):
                record_cache_event(fn_id, "bypass")
                return fn(*args, **kwargs)
            found = store.fetch(key)
            if found is not None:
                value, entry = found
                record_cache_event(fn_id, "hit")
                record_stage_seconds(
                    "store:saved_seconds", entry.compute_seconds
                )
                if on_hit is not None:
                    on_hit(value)
                return value
            record_cache_event(fn_id, "miss")
            # Solve cost is provenance for the manifest (wall-time a
            # future hit saves), never an input to any computation.
            t0 = time.perf_counter()  # repro: noqa[DET001]
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0  # repro: noqa[DET001]
            try:
                store.put(
                    key,
                    result,
                    fn_id=fn_id,
                    code_fingerprint=code_fingerprint(fn),
                    compute_seconds=seconds,
                )
            except (OSError, SerializationError, UnsupportedParameterError, StoreError):
                pass  # best-effort write; the computed result stands
            return result

        wrapper.cache_fn_id = fn_id  # type: ignore[attr-defined]
        return wrapper

    return decorate


def cached_batch(
    fn_id: str,
    params_list: Sequence[Dict[str, Any]],
    solve_misses: Callable[[List[int]], Sequence[Any]],
    *,
    fingerprint: str = "",
    on_hit: Optional[Callable[[Any], None]] = None,
) -> List[Any]:
    """Memoize a *batched* solve: per-item store entries, one kernel call.

    The batched sweep counterpart of :func:`cached_solve`. Each item in
    *params_list* gets its own canonical key under *fn_id* (so warm
    sweeps answer point-by-point from the store, and a re-run with two
    new grid points solves exactly those two), but all misses of one
    call are handed to *solve_misses* together — which is what lets the
    sweep run them through a single batched kernel invocation instead
    of N scalar solves.

    Parameters
    ----------
    fn_id:
        Stable identifier (key namespace + counter names). Use a
        distinct id per (computation, numeric path): batched kernels
        may differ from their scalar oracles in the last ulp, so their
        entries must never masquerade as the scalar function's.
    params_list:
        One canonical-key parameter mapping per item. Include
        everything the numeric result depends on — tolerances and block
        lengths.
    solve_misses:
        Called once with the sorted list of indices whose entries were
        not found (skipped entirely when everything hit); must return
        one result per index, in order.
    fingerprint:
        Code fingerprint salt for the keys (pass
        :func:`repro.store.code_fingerprint` of the underlying solve).
    on_hit:
        Called with each decoded result on a hit — status replay, so a
        warm sweep surfaces the same solver health as the cold one.

    Returns the full result list in item order. With no active store
    this is a pass-through: one ``solve_misses(range(n))`` call and no
    counters, bit-identical to the uncached sweep.
    """
    n = len(params_list)
    store = active_store()
    if store is None:
        return list(solve_misses(list(range(n))))
    results: List[Any] = [None] * n
    misses: List[int] = []
    keys: List[Optional[str]] = [None] * n
    for i, params in enumerate(params_list):
        try:
            keys[i] = canonical_key(
                fn_id, params, code_fingerprint=fingerprint
            )
        except UnsupportedParameterError:
            record_cache_event(fn_id, "bypass")
            misses.append(i)
            continue
        found = store.fetch(keys[i])
        if found is not None:
            value, entry = found
            record_cache_event(fn_id, "hit")
            record_stage_seconds("store:saved_seconds", entry.compute_seconds)
            if on_hit is not None:
                on_hit(value)
            results[i] = value
        else:
            record_cache_event(fn_id, "miss")
            misses.append(i)
    if not misses:
        return results
    t0 = time.perf_counter()  # repro: noqa[DET001]
    solved = list(solve_misses(misses))
    seconds = time.perf_counter() - t0  # repro: noqa[DET001]
    if len(solved) != len(misses):
        raise ValueError(
            f"solve_misses returned {len(solved)} results "
            f"for {len(misses)} misses"
        )
    # Attribute the batch's wall-time evenly across its misses — the
    # per-entry compute_seconds is provenance (what a future hit
    # saves), never an input to any computation.
    per_item = seconds / len(misses)
    for i, value in zip(misses, solved):
        results[i] = value
        if keys[i] is None:
            continue
        try:
            store.put(
                keys[i],
                value,
                fn_id=fn_id,
                code_fingerprint=fingerprint,
                compute_seconds=per_item,
            )
        except (OSError, SerializationError, UnsupportedParameterError, StoreError):
            pass  # best-effort write; the computed result stands
    return results
