"""Whole-program call-graph and effect analysis.

The pipeline has three module-shaped stages:

1. :mod:`.symbols` — per-module extraction (cacheable): symbol tables,
   raw call references, direct effect origins;
2. :mod:`.callgraph` — the cross-module link step: alias resolution,
   method dispatch, ``@cached_solve`` targets, pool submission sites;
3. :mod:`.effects` — transitive effect closure over the
   :mod:`.lattice` and BFS call-chain witnesses.

:func:`analyze_project` in :mod:`.project` drives all three with
result-store-backed incremental caching. The GRAPH lint rules
(:mod:`repro.analysis.rules.graph`) and the ``repro graph`` CLI both
consume its :class:`ProjectAnalysis`.
"""

from .callgraph import CallGraph, FunctionNode, Submission, build_call_graph
from .effects import (
    WitnessStep,
    direct_effects,
    format_witness,
    transitive_effects,
    witness_chain,
)
# EffectSet (a typing alias, no docstring) stays importable from
# .lattice but is not re-exported here: the public-API test requires
# every __all__ callable to carry a docstring.
from .lattice import EMPTY_EFFECTS, Effect
from .project import (
    ModuleInput,
    ProjectAnalysis,
    analyze_project,
    analyze_source_root,
    iter_module_inputs,
)
from .symbols import (
    ArgRef,
    CallRef,
    ClassInfo,
    EffectOrigin,
    FunctionInfo,
    ModuleSummary,
    extract_module,
)

__all__ = [
    "ArgRef",
    "CallGraph",
    "CallRef",
    "ClassInfo",
    "EMPTY_EFFECTS",
    "Effect",
    "EffectOrigin",
    "FunctionInfo",
    "FunctionNode",
    "ModuleInput",
    "ModuleSummary",
    "ProjectAnalysis",
    "Submission",
    "WitnessStep",
    "analyze_project",
    "analyze_source_root",
    "build_call_graph",
    "direct_effects",
    "extract_module",
    "format_witness",
    "iter_module_inputs",
    "transitive_effects",
    "witness_chain",
]
