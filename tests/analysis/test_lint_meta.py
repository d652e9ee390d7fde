"""LINT001: unused-suppression detection semantics."""

import textwrap

from tests.analysis.lint_helpers import lint_source


def _lint(source, **kwargs):
    return lint_source(textwrap.dedent(source), **kwargs)


def test_used_suppression_is_not_flagged():
    findings = _lint(
        """
        def f(p):
            return p == 0.0  # repro: noqa[PROB001]
        """
    )
    assert findings == []


def test_unused_suppression_is_flagged():
    findings = _lint(
        """
        def f(p):
            return p  # repro: noqa[PROB001]
        """
    )
    (finding,) = findings
    assert finding.rule_id == "LINT001"
    assert "PROB001" in finding.message
    assert "unused" in finding.message


def test_unknown_rule_id_is_always_flagged():
    findings = _lint(
        """
        def f(p):
            return p == 0.0  # repro: noqa[PROB01]
        """
    )
    rule_ids = {f.rule_id for f in findings}
    # The typo'd directive suppresses nothing, so PROB001 still fires
    # AND the directive itself is flagged.
    assert rule_ids == {"LINT001", "PROB001"}
    lint001 = next(f for f in findings if f.rule_id == "LINT001")
    assert "typo" in lint001.message


def test_graph_waivers_are_exempt():
    # GRAPH/DET waivers at effect origins act at a distance: no
    # same-line finding even when honored, so LINT001 must not flag a
    # GRAPH-prefixed id.
    findings = _lint(
        """
        import time

        def budget():
            return time.monotonic()  # repro: noqa[GRAPH001]
        """
    )
    # DET001 still fires (the waiver names GRAPH001, not DET001) but
    # the GRAPH-prefixed directive is never reported as unused.
    assert all(f.rule_id != "LINT001" for f in findings)


def test_waived_ns_and_thread_clocks_are_used_suppressions():
    # The graph pass tags these clocks and honours noqa[DET001] at
    # them, so DET001 must flag them too or LINT001 calls the waiver
    # unused.
    findings = _lint(
        """
        import time

        def budget():
            a = time.perf_counter_ns()  # repro: noqa[DET001]
            b = time.thread_time()  # repro: noqa[DET001]
            return a, b
        """
    )
    assert findings == []


def test_filtered_run_has_no_evidence():
    # A --rule run that never executed PROB001 cannot call its
    # directives unused.
    findings = _lint(
        """
        def f(p):
            return p  # repro: noqa[PROB001]
        """,
        rule_ids=["DET001", "LINT001"],
    )
    assert findings == []


def test_lint001_respects_rule_filter():
    # LINT001 itself only runs when selected.
    findings = _lint(
        """
        def f(p):
            return p  # repro: noqa[PROB001]
        """,
        rule_ids=["PROB001"],
    )
    assert findings == []
