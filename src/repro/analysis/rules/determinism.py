"""Determinism rule: no wall-clock reads in simulation logic.

Simulation results must be a pure function of (code, seed,
parameters). Wall-clock time sneaking into a hot path makes runs
irreproducible and breaks the checkpoint/resume guarantee. The one
legitimate consumer is the experiment runner's wall-clock *budget*,
which controls how long a campaign runs, never what it computes — those
sites carry ``# repro: noqa[DET001]`` with a justifying comment.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from ..base import FileContext, Rule, register
from ..findings import Finding
from ..graph.symbols import _DATETIME_FUNCS, _TIME_FUNCS

__all__ = ["WallClockRule"]


def _wall_clock_call(func: ast.AST) -> Optional[str]:
    """Return a dotted name when *func* reads the wall clock."""
    if not isinstance(func, ast.Attribute):
        return None
    if (
        isinstance(func.value, ast.Name)
        and func.value.id == "time"
        and func.attr in _TIME_FUNCS
    ):
        return f"time.{func.attr}"
    if func.attr in _DATETIME_FUNCS:
        value = func.value
        if isinstance(value, ast.Name) and value.id in ("datetime", "date"):
            return f"{value.id}.{func.attr}"
        if isinstance(value, ast.Attribute) and value.attr in ("datetime", "date"):
            return f"datetime.{value.attr}.{func.attr}"
    return None


@register
class WallClockRule(Rule):
    """DET001 — no ``time.time()`` / ``datetime.now()`` in hot paths."""

    rule_id = "DET001"
    title = "no wall-clock reads (time.time/datetime.now) in simulation code"
    rationale = (
        "Results must depend only on code, seed, and parameters; a "
        "wall-clock read in core/sync/simulation/faults logic makes "
        "reruns diverge. Wall clock belongs only to the runner's "
        "time budget, which is explicitly suppressed."
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _wall_clock_call(node.func)
            if dotted is not None:
                findings.append(
                    ctx.finding(
                        node,
                        self.rule_id,
                        f"wall-clock read {dotted}() in simulation code; "
                        "results must be a function of (code, seed, "
                        "parameters) only",
                    )
                )
        return findings
