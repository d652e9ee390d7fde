"""Suppression directive semantics: ``# repro: noqa[RULE,...]``."""

from repro.analysis import SuppressionIndex
from tests.analysis.lint_helpers import lint_source

VIOLATION = "flag = p == 0.0\n"


def test_finding_without_directive_survives():
    findings = lint_source(VIOLATION, rule_ids=["PROB001"])
    assert len(findings) == 1
    assert findings[0].rule_id == "PROB001"


def test_matching_directive_suppresses():
    src = "flag = p == 0.0  # repro: noqa[PROB001]\n"
    assert lint_source(src, rule_ids=["PROB001"]) == []


def test_directive_lists_multiple_rules():
    src = "flag = p == 0.0  # repro: noqa[DET001, PROB001]\n"
    assert lint_source(src, rule_ids=["PROB001"]) == []


def test_directive_for_other_rule_does_not_suppress():
    src = "flag = p == 0.0  # repro: noqa[DET001]\n"
    assert len(lint_source(src, rule_ids=["PROB001"])) == 1


def test_bare_noqa_does_not_suppress():
    """Rule ids are mandatory — a bare noqa is not a blank cheque."""
    src = "flag = p == 0.0  # repro: noqa\n"
    assert len(lint_source(src, rule_ids=["PROB001"])) == 1


def test_directive_only_covers_its_own_line():
    src = "a = p == 0.0  # repro: noqa[PROB001]\nb = q == 1.0\n"
    findings = lint_source(src, rule_ids=["PROB001"])
    assert len(findings) == 1
    assert findings[0].line == 2


def test_index_is_case_insensitive_on_rule_ids():
    idx = SuppressionIndex.from_source("x = 1  # repro: noqa[prob001]\n")
    assert idx.is_suppressed(1, "PROB001")
    assert not idx.is_suppressed(1, "DET001")
