"""Tier-1 gate: the repository lints clean under its own rules.

This is the enforcement point for the determinism / probability-domain /
registry-completeness invariants: any unsuppressed finding anywhere in
``src/`` fails the suite with a ``file:line`` report.
"""

import pytest

from repro.analysis import find_project_root, lint_project
from repro.analysis.graph import Effect, analyze_source_root
from repro.store import ResultStore, use_store


@pytest.fixture(scope="module")
def summary_store(tmp_path_factory):
    """One result store for this module: the graph gate's self-analysis
    caches every module summary, so later closure checks re-link the
    call graph instead of re-extracting every file."""
    with use_store(ResultStore(tmp_path_factory.mktemp("graph"))) as store:
        yield store


def test_repository_is_lint_clean():
    root = find_project_root()
    assert root is not None, "cannot locate the repository root"
    findings = lint_project(root)
    assert not findings, "unsuppressed lint findings:\n" + "\n".join(
        f.format() for f in findings
    )


def test_repository_is_graph_clean(summary_store):
    """Whole-program self-analysis: every ``@cached_solve`` target is
    transitively pure, every pool submission is picklable, and no
    experiment entry point reaches the wall clock — with zero
    unsuppressed GRAPH/LINT001 findings."""
    root = find_project_root()
    assert root is not None, "cannot locate the repository root"
    findings = lint_project(root, graph=True)
    assert not findings, "unsuppressed graph findings:\n" + "\n".join(
        f.format() for f in findings
    )


def test_batched_kernels_read_no_environment(summary_store):
    """The batched kernel has one numeric path: nothing it reaches reads
    an environment variable, so no ambient setting can change its
    answers."""
    root = find_project_root()
    assert root is not None, "cannot locate the repository root"
    closure = analyze_source_root(root / "src").closure
    effects = closure["repro.infotheory.kernels.blahut_arimoto_batch"]
    assert Effect.ENV not in effects


def test_one_blahut_arimoto_loop(summary_store):
    """The Blahut-Arimoto step has one caller, the one loop: every
    capacity solve (scalar, E16's grid, block bounds, timed DMC) goes
    through ``blahut_arimoto_batch``."""
    root = find_project_root()
    assert root is not None, "cannot locate the repository root"
    graph = analyze_source_root(root / "src").graph
    assert graph.callers_of("repro.infotheory.kernels._divergence_step") == [
        "repro.infotheory.kernels.blahut_arimoto_batch"
    ]
