"""Project-level driver: discover, extract (with caching), link, close.

:func:`analyze_project` is the one entry point the lint runner and the
``repro graph`` CLI share. It extracts a :class:`ModuleSummary` per
source file — consulting the active result store first, keyed by the
module's source hash and the extractor's code fingerprint, so a warm
run only re-extracts files that actually changed — then links the
summaries into a :class:`CallGraph` and computes the transitive effect
closure.

The cache is one :func:`repro.store.cached_batch` call: strictly
opt-in, best-effort writes through the store's generic dataclass
codec, and hit/miss events recorded under the ``graph_module`` id so
tests and CI can assert incremental reuse with
:func:`repro.numerics.collect_store_events`.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...store.keys import code_fingerprint
from ...store.memo import cached_batch
from . import symbols as _symbols_module
from .callgraph import CallGraph, build_call_graph
from .effects import transitive_effects
from .lattice import EffectSet
from .symbols import ModuleSummary, extract_module

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


def analyze_project(
    inputs: Iterable[ModuleInput],
) -> ProjectAnalysis:
    """Extract every module (cache-aware), link, and close effects.

    The extractor's code fingerprint salts every key, so a change to
    the effect tables or the summary dataclasses orphans every cached
    summary instead of silently mis-reading it.
    """
    items = list(inputs)
    reanalyzed: List[str] = []

    def extract(misses: Sequence[int]) -> List[ModuleSummary]:
        reanalyzed.extend(items[i].module for i in misses)
        return [
            extract_module(it.module, it.display_path, it.source, tree=it.tree)
            for it in (items[i] for i in misses)
        ]

    summaries: List[ModuleSummary] = cached_batch(
        GRAPH_CACHE_FN_ID,
        [
            {
                "module": it.module,
                "source_sha256": hashlib.sha256(
                    it.source.encode("utf-8")
                ).hexdigest(),
            }
            for it in items
        ],
        extract,
        fingerprint=code_fingerprint(_symbols_module),
    )
    graph = build_call_graph({s.module: s for s in summaries})
    return ProjectAnalysis(
        graph=graph,
        closure=transitive_effects(graph),
        cache_hits=len(items) - len(reanalyzed),
        cache_misses=len(reanalyzed),
        reanalyzed=tuple(reanalyzed),
    )


def analyze_source_root(src_root: Path) -> ProjectAnalysis:
    """Convenience: discover under ``src_root`` then analyze."""
    return analyze_project(iter_module_inputs(src_root))
