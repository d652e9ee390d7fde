"""Static invariant analysis for the reproduction (``repro lint``).

A small AST-walking lint framework plus a domain rule pack that keeps
the conventions the reproduction's correctness rests on mechanical
rather than tribal:

========  ============================================================
rule id   invariant
========  ============================================================
RNG001    no legacy ``np.random.*`` global-state calls
RNG002    no argument-less ``default_rng()`` in library code
RNG003    stochastic functions accept an ``rng`` parameter
DET001    no wall-clock reads in simulation logic
PROB001   boundary tests via ``is_zero``/``is_one``, not ``== 0.0``
PROB002   probability dataclass fields validated in ``__post_init__``
REG001    experiments wired into registry, benchmarks, EXPERIMENTS.md
API001    ``__all__`` names resolve and packages are test-covered
GRAPH001  ``@cached_solve`` targets transitively effect-free
GRAPH002  pool submissions are picklable module-level functions
GRAPH003  no transitive wall-clock reads from experiment entry points
LINT001   no unused ``# repro: noqa`` suppression directives
========  ============================================================

Findings can be waived per line with ``# repro: noqa[RULE]``. Three
entry points: the ``repro lint`` CLI subcommand, the importable
:func:`lint_project` / :func:`lint_paths` API, and the tier-1 pytest
gate ``tests/analysis/test_self_lint.py``. The ``GRAPH00x`` family
runs the whole-program effect analysis in :mod:`repro.analysis.graph`
(``repro lint --graph``; witnesses via ``repro graph why``). See
``docs/analysis.md`` for the effect lattice and ``docs/dev.md`` for
the full rule catalog and how to add a rule.
"""

from .base import (
    FileContext,
    GraphContext,
    LintError,
    ProjectContext,
    Rule,
    UnknownRuleError,
    all_rule_ids,
    get_rules,
    register,
)
from .findings import Finding, format_json, format_sarif, format_text
from .runner import (
    find_project_root,
    lint_paths,
    lint_project,
    parse_count,
    reset_parse_count,
)
from .suppressions import SuppressionIndex

__all__ = [
    "FileContext",
    "GraphContext",
    "LintError",
    "ProjectContext",
    "Rule",
    "UnknownRuleError",
    "all_rule_ids",
    "get_rules",
    "register",
    "Finding",
    "format_json",
    "format_sarif",
    "format_text",
    "find_project_root",
    "lint_paths",
    "lint_project",
    "parse_count",
    "reset_parse_count",
    "SuppressionIndex",
]
