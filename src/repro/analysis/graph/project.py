"""Project-level driver: discover, extract (with caching), link, close.

:func:`analyze_project` is the one entry point the lint runner and the
``repro graph`` CLI share. It extracts a :class:`ModuleSummary` per
source file — consulting the active result store first, keyed by the
module's source hash and the analyzer's own fingerprint, so a warm run
only re-extracts files that actually changed — then links the summaries
into a :class:`CallGraph` and computes the transitive effect closure.

The cache discipline mirrors ``@cached_solve``: strictly opt-in (no
active store → plain computation), best-effort writes, and hit/miss
events recorded under the ``graph_module`` function id so tests and
CI can assert incremental reuse with the existing
:func:`repro.numerics.collect_store_events` collector.
"""

from __future__ import annotations

import ast
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ...store.keys import UnsupportedParameterError, canonical_key
from ...store.memo import active_store, record_cache_event
from ...store.result_store import StoreError
from ...store.serialization import SerializationError
from . import symbols as _symbols_module
from .callgraph import CallGraph, build_call_graph
from .effects import transitive_effects
from .lattice import EffectSet
from .symbols import SUMMARY_SCHEMA_VERSION, ModuleSummary, extract_module

__all__ = [
    "ModuleInput",
    "ProjectAnalysis",
    "analyze_project",
    "analyze_source_root",
    "iter_module_inputs",
]

#: Cache-event id for per-module summary lookups (so graph analysis
#: shows up in ``collect_store_events()`` next to solver hits).
GRAPH_CACHE_FN_ID = "graph_module"

_FINGERPRINT_CACHE: List[str] = []


def _analyzer_fingerprint() -> str:
    """Hash of the extractor's own source: salts every cache key so a
    change to the effect tables or the summary schema orphans every
    cached summary instead of silently mis-reading it."""
    if not _FINGERPRINT_CACHE:
        data = Path(_symbols_module.__file__).read_bytes()
        digest = hashlib.sha256(data).hexdigest()[:16]
        _FINGERPRINT_CACHE.append(f"{digest}:s{SUMMARY_SCHEMA_VERSION}")
    return _FINGERPRINT_CACHE[0]


@dataclass(frozen=True)
class ModuleInput:
    """One module to analyze: the minimal self-contained input."""

    display_path: str
    module: str
    source: str
    tree: Optional[ast.Module] = None


@dataclass
class ProjectAnalysis:
    """Everything the GRAPH rules and the CLI consume."""

    graph: CallGraph
    closure: Dict[str, EffectSet]
    cache_hits: int = 0
    cache_misses: int = 0
    #: Modules whose summaries were re-extracted this run (cache
    #: misses, in analysis order) — what "incremental" means.
    reanalyzed: Tuple[str, ...] = field(default_factory=tuple)


def iter_module_inputs(src_root: Path) -> List[ModuleInput]:
    """Discover the package under *src_root* (a ``src/`` directory)."""
    inputs: List[ModuleInput] = []
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root)
        parts = list(rel.parts)
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][: -len(".py")]
        module = ".".join(parts)
        inputs.append(
            ModuleInput(
                display_path=str(rel),
                module=module,
                source=path.read_text(encoding="utf-8"),
            )
        )
    return inputs


def _summary_for(item: ModuleInput) -> Tuple[ModuleSummary, bool]:
    """Extract one summary, consulting the active store. Returns
    ``(summary, was_cache_hit)``."""
    store = active_store()
    key: Optional[str] = None
    if store is not None:
        try:
            key = canonical_key(
                GRAPH_CACHE_FN_ID,
                {
                    "module": item.module,
                    "source_sha256": hashlib.sha256(
                        item.source.encode("utf-8")
                    ).hexdigest(),
                },
                code_fingerprint=_analyzer_fingerprint(),
            )
        except UnsupportedParameterError:  # pragma: no cover - keys are str
            key = None
    if store is not None and key is not None:
        found = store.fetch(key)
        if found is not None:
            value, _entry = found
            cached: Optional[ModuleSummary]
            try:
                cached = ModuleSummary.from_dict(value)
            except (KeyError, TypeError, ValueError):
                cached = None  # corrupted/foreign entry: recompute
            if cached is not None:
                record_cache_event(GRAPH_CACHE_FN_ID, "hit")
                return cached, True
    # Extraction cost is provenance for the store manifest only.
    t0 = time.perf_counter()  # repro: noqa[DET001]
    summary = extract_module(
        item.module, item.display_path, item.source, tree=item.tree
    )
    seconds = time.perf_counter() - t0  # repro: noqa[DET001]
    if store is not None and key is not None:
        record_cache_event(GRAPH_CACHE_FN_ID, "miss")
        try:
            store.put(
                key,
                summary.to_dict(),
                fn_id=GRAPH_CACHE_FN_ID,
                code_fingerprint=_analyzer_fingerprint(),
                compute_seconds=seconds,
            )
        except (OSError, SerializationError, StoreError, UnsupportedParameterError):
            pass  # best-effort write, like @cached_solve
    return summary, False


def analyze_project(
    inputs: Iterable[ModuleInput],
) -> ProjectAnalysis:
    """Extract every module (cache-aware), link, and close effects."""
    modules: Dict[str, ModuleSummary] = {}
    hits = 0
    misses = 0
    reanalyzed: List[str] = []
    for item in inputs:
        summary, was_hit = _summary_for(item)
        modules[summary.module] = summary
        if was_hit:
            hits += 1
        else:
            misses += 1
            reanalyzed.append(summary.module)
    graph = build_call_graph(modules)
    closure = transitive_effects(graph)
    return ProjectAnalysis(
        graph=graph,
        closure=closure,
        cache_hits=hits,
        cache_misses=misses,
        reanalyzed=tuple(reanalyzed),
    )


def analyze_source_root(src_root: Path) -> ProjectAnalysis:
    """Convenience: discover under ``src_root`` then analyze."""
    return analyze_project(iter_module_inputs(src_root))
