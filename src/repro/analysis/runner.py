"""Lint drivers: single sources, file sets, and whole projects.

The runner parses each file to an AST **exactly once** and shares the
tree across every pass that needs it: the file-scoped rules, the
unused-suppression meta check (LINT001, which needs the *raw*
pre-suppression findings), and — under ``lint_project(graph=True)`` —
the whole-program graph pass, whose per-module extraction reuses the
same trees. :func:`parse_count` exposes the parse counter so the
micro-benchmark can assert the single-parse discipline instead of
trusting it.

Pass order in project mode: file rules → LINT001 → project rules →
graph rules. Graph findings are filtered through the same per-line
``# repro: noqa[RULE]`` suppression indexes as file findings, so a
``noqa[GRAPH001]`` on a decorated ``def`` line waives that target.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from .base import FileContext, GraphContext, ProjectContext, Rule, get_rules
from .findings import Finding
from .suppressions import SuppressionIndex

__all__ = [
    "lint_paths",
    "lint_project",
    "find_project_root",
    "parse_count",
    "reset_parse_count",
]

PathLike = Union[str, Path]

_PARSE_COUNT = 0


def _parse(source: str) -> ast.Module:
    """The one choke point every lint parse goes through (counted)."""
    global _PARSE_COUNT
    _PARSE_COUNT += 1
    return ast.parse(source)


def parse_count() -> int:
    """Process-wide number of lint AST parses (benchmark instrument)."""
    return _PARSE_COUNT


def reset_parse_count() -> None:
    """Zero the parse counter (benchmark isolation)."""
    global _PARSE_COUNT
    _PARSE_COUNT = 0


def _module_name_for(path: Path) -> Optional[str]:
    """Dotted module name when *path* sits under a ``src/`` root."""
    parts = path.resolve().parts
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] == "src":
            tail = parts[idx + 1 :]
            if tail:
                module_parts = list(tail[:-1])
                stem = Path(tail[-1]).stem
                if stem != "__init__":
                    module_parts.append(stem)
                if module_parts:
                    return ".".join(module_parts)
            return None
    return None


def _scope_rules(rules: Sequence[Rule], scope: str) -> List[Rule]:
    return [rule for rule in rules if rule.scope == scope]


@dataclass
class _FileRun:
    """One file's shared lint state: context, suppressions, raw hits."""

    ctx: FileContext
    suppressions: SuppressionIndex
    raw: List[Finding] = field(default_factory=list)


def _run_for_source(
    source: str, *, path: str, module: Optional[str]
) -> _FileRun:
    return _FileRun(
        ctx=FileContext(
            path=Path(path),
            display_path=path,
            source=source,
            tree=_parse(source),
            module=module,
        ),
        suppressions=SuppressionIndex.from_source(source),
    )


def _run_for_file(path: Path, root: Optional[Path]) -> _FileRun:
    display = str(path)
    if root is not None:
        try:
            display = str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            pass
    return _run_for_source(
        path.read_text(encoding="utf-8"),
        path=display,
        module=_module_name_for(path),
    )


def _apply_file_rules(
    runs: Sequence[_FileRun], rules: Sequence[Rule]
) -> List[Finding]:
    """File pass: record raw findings, return the unsuppressed ones."""
    kept: List[Finding] = []
    for run in runs:
        for rule in rules:
            for finding in rule.check(run.ctx):
                run.raw.append(finding)
                if not run.suppressions.is_suppressed(
                    finding.line, finding.rule_id
                ):
                    kept.append(finding)
    return kept


def _apply_meta_rules(
    runs: Sequence[_FileRun],
    meta_rules: Sequence[Rule],
    executed_file_ids: Sequence[str],
) -> List[Finding]:
    """LINT001 pass: unused directives, given the raw file findings."""
    from .rules.lint_meta import UnusedSuppressionRule

    executed = set(executed_file_ids)
    findings: List[Finding] = []
    for rule in meta_rules:
        if not isinstance(rule, UnusedSuppressionRule):
            continue  # future meta rules define their own driver hook
        for run in runs:
            findings.extend(
                rule.check_directives(
                    run.ctx.display_path,
                    run.suppressions.directives(),
                    run.raw,
                    executed,
                )
            )
    return findings


def _lint_runs(
    runs: Sequence[_FileRun], rules: Sequence[Rule]
) -> List[Finding]:
    """File + meta passes over pre-built runs (shared ASTs)."""
    file_rules = _scope_rules(rules, "file")
    findings = _apply_file_rules(runs, file_rules)
    findings.extend(
        _apply_meta_rules(
            runs,
            _scope_rules(rules, "meta"),
            [rule.rule_id for rule in file_rules],
        )
    )
    return findings


def _iter_python_files(paths: Iterable[PathLike]) -> Iterator[Path]:
    for path in paths:
        p = Path(path)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        else:
            yield p


def lint_paths(
    paths: Iterable[PathLike],
    *,
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint files and directories with the file-scoped rules, reporting
    each file by the path it was given.

    Every file is read and parsed exactly once; the parsed contexts
    are shared across all rules.
    """
    runs = [_run_for_file(p, None) for p in _iter_python_files(paths)]
    return sorted(_lint_runs(runs, get_rules(rule_ids)))


def _graph_findings(
    runs: Sequence[_FileRun],
    graph_rules: Sequence[Rule],
    root: Path,
) -> List[Finding]:
    """Graph pass: analyze (reusing parsed trees), run GRAPH rules,
    filter through the owning file's suppression index."""
    from .graph import ModuleInput, analyze_project

    inputs = [
        ModuleInput(
            display_path=run.ctx.display_path,
            module=run.ctx.module,
            source=run.ctx.source,
            tree=run.ctx.tree,
        )
        for run in runs
        if run.ctx.module is not None
    ]
    analysis = analyze_project(inputs)
    ctx = GraphContext(root=root, analysis=analysis)
    suppressions_by_path: Dict[str, SuppressionIndex] = {
        run.ctx.display_path: run.suppressions for run in runs
    }
    findings: List[Finding] = []
    for rule in graph_rules:
        for finding in rule.check_graph(ctx):
            index = suppressions_by_path.get(finding.file)
            if index is not None and index.is_suppressed(
                finding.line, finding.rule_id
            ):
                continue
            findings.append(finding)
    return findings


def lint_project(
    root: Optional[PathLike] = None,
    *,
    rule_ids: Optional[Sequence[str]] = None,
    graph: bool = False,
) -> List[Finding]:
    """Lint a whole repository: ``src/`` files plus project rules.

    *root* defaults to :func:`find_project_root`. File rules walk every
    ``*.py`` under ``<root>/src``; project rules (registry completeness,
    public-API coverage) check the repository layout itself. With
    ``graph=True`` (or when a graph-scoped rule is explicitly named in
    *rule_ids*) the whole-program effect analysis runs as well,
    reusing the already-parsed ASTs.
    """
    resolved_root = Path(root) if root is not None else find_project_root()
    if resolved_root is None:
        raise FileNotFoundError(
            "cannot locate the project root (a directory containing "
            "src/repro); pass explicit paths or run from the repository"
        )
    resolved_root = resolved_root.resolve()
    rules = get_rules(rule_ids)
    runs: List[_FileRun] = []
    src_dir = resolved_root / "src"
    if src_dir.is_dir():
        runs = [
            _run_for_file(p, resolved_root)
            for p in _iter_python_files([src_dir])
        ]
    findings = _lint_runs(runs, rules)
    ctx = ProjectContext(root=resolved_root)
    for rule in _scope_rules(rules, "project"):
        findings.extend(rule.check_project(ctx))
    graph_rules = _scope_rules(rules, "graph")
    if graph_rules and (graph or rule_ids is not None):
        findings.extend(_graph_findings(runs, graph_rules, resolved_root))
    return sorted(findings)


def find_project_root() -> Optional[Path]:
    """Locate the repository root from the working directory.

    Walks upward looking for a directory containing ``src/repro``;
    falls back to the checkout this package was imported from, so
    ``repro lint`` works from any working directory of the repo.
    """
    here = Path.cwd()
    for candidate in [here, *here.resolve().parents]:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    # src/repro/analysis/runner.py -> parents[3] is the checkout root.
    packaged = Path(__file__).resolve()
    if len(packaged.parents) > 3:
        checkout = packaged.parents[3]
        if (checkout / "src" / "repro").is_dir():
            return checkout
    return None
