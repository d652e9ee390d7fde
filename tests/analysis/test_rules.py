"""Per-rule behaviour against the fixture snippets.

Each file-scoped rule has a ``<rule>_bad.py`` fixture that must produce
exactly the expected findings and a ``<rule>_good.py`` fixture that must
produce none — so rule regressions fail in both directions (missed
violations and false positives).
"""

from pathlib import Path

import pytest

from repro.analysis import UnknownRuleError, all_rule_ids, get_rules, lint_file

FIXTURES = Path(__file__).parent / "fixtures"

# (rule id, bad fixture, expected finding count)
BAD_CASES = [
    ("RNG001", "rng001_bad.py", 3),
    ("RNG002", "rng002_bad.py", 2),
    ("RNG003", "rng003_bad.py", 2),
    ("RNG004", "rng004_bad.py", 4),
    ("DET001", "det001_bad.py", 3),
    ("PROB001", "prob001_bad.py", 4),
    ("PROB002", "prob002_bad.py", 1),
    ("NUM001", "num001_bad.py", 4),
    ("STORE001", "store001_bad.py", 6),
    ("SVC001", "svc001_bad.py", 3),
    ("EST001", "est001_bad.py", 3),
]

GOOD_CASES = [
    ("RNG001", "rng001_good.py"),
    ("RNG002", "rng002_good.py"),
    ("RNG003", "rng003_good.py"),
    ("RNG004", "rng004_good.py"),
    ("DET001", "det001_good.py"),
    ("PROB001", "prob001_good.py"),
    ("PROB002", "prob002_good.py"),
    ("NUM001", "num001_good.py"),
    ("STORE001", "store001_good.py"),
    ("SVC001", "svc001_good.py"),
    ("EST001", "est001_good.py"),
]


@pytest.mark.parametrize("rule_id,fixture,expected", BAD_CASES)
def test_bad_fixture_is_flagged(rule_id, fixture, expected):
    findings = lint_file(FIXTURES / fixture, rule_ids=[rule_id])
    assert len(findings) == expected, "\n".join(f.format() for f in findings)
    assert all(f.rule_id == rule_id for f in findings)
    assert all(f.line >= 1 for f in findings)


@pytest.mark.parametrize("rule_id,fixture", GOOD_CASES)
def test_good_fixture_is_clean(rule_id, fixture):
    findings = lint_file(FIXTURES / fixture, rule_ids=[rule_id])
    assert findings == [], "\n".join(f.format() for f in findings)


@pytest.mark.parametrize("rule_id,fixture,expected", BAD_CASES)
def test_rule_filter_excludes_other_rules(rule_id, fixture, expected):
    """Linting a bad fixture under a *different* rule finds nothing."""
    other = "DET001" if rule_id != "DET001" else "RNG001"
    assert lint_file(FIXTURES / fixture, rule_ids=[other]) == []


def test_findings_are_sorted_and_formatted():
    findings = lint_file(FIXTURES / "rng001_bad.py", rule_ids=["RNG001"])
    lines = [f.line for f in findings]
    assert lines == sorted(lines)
    first = findings[0].format()
    assert "rng001_bad.py" in first
    assert "RNG001" in first
    # file:line:col: RULE message
    assert first.count(":") >= 3


def test_unknown_rule_raises():
    with pytest.raises(UnknownRuleError):
        get_rules(["NOPE999"])
    with pytest.raises(UnknownRuleError):
        lint_file(FIXTURES / "rng001_good.py", rule_ids=["RNG999"])


def test_parallel_worker_code_keeps_rng_discipline():
    """The process-pool runner must not regress the Generator-API rules:
    no legacy global state, no unseeded generators, no import-time
    Generator shared (and silently cloned) across worker processes."""
    src = Path(__file__).parents[2] / "src" / "repro"
    rng_rules = ["RNG001", "RNG002", "RNG003", "RNG004"]
    for module in (
        src / "simulation" / "runner.py",
        src / "numerics" / "telemetry.py",
        src / "experiments" / "e4_convergence.py",
    ):
        findings = lint_file(module, rule_ids=rng_rules)
        assert findings == [], "\n".join(f.format() for f in findings)


def test_rule_catalog_is_complete():
    ids = all_rule_ids()
    assert set(ids) == {
        "RNG001",
        "RNG002",
        "RNG003",
        "RNG004",
        "DET001",
        "PROB001",
        "PROB002",
        "REG001",
        "API001",
        "NUM001",
        "STORE001",
        "SVC001",
        "EST001",
        "GRAPH001",
        "GRAPH002",
        "GRAPH003",
        "LINT001",
    }
    for rule in get_rules():
        assert rule.title
        assert rule.rationale
