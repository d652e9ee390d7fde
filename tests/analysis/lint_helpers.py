"""Single-source and single-file lint drivers for the rule tests.

The package lints whole file sets (:func:`repro.analysis.lint_paths`)
and projects (:func:`repro.analysis.lint_project`); rule tests run one
fixture string or file through the same file and meta passes.
"""

from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.analysis import Finding, get_rules
from repro.analysis.runner import _lint_runs, _run_for_file, _run_for_source


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    module: Optional[str] = None,
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint a source string with the file-scoped (and meta) rules.

    Findings on lines carrying a matching ``# repro: noqa[RULE]``
    directive are dropped. Raises :class:`repro.analysis.base.
    UnknownRuleError` for unknown ids in *rule_ids*.
    """
    run = _run_for_source(source, path=path, module=module)
    return sorted(_lint_runs([run], get_rules(rule_ids)))


def lint_file(
    path: Union[str, Path],
    *,
    root: Optional[Path] = None,
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one Python file (file-scoped and meta rules only)."""
    run = _run_for_file(Path(path), root)
    return sorted(_lint_runs([run], get_rules(rule_ids)))
