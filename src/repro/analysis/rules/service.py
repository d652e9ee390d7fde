"""Service-layer rule: no blocking solver calls inside coroutines.

The capacity-query service keeps its event loop responsive by routing
every solve through the worker tier (``loop.run_in_executor`` over the
supervised process pool) or through the O(1) synchronous shed ladder in
:mod:`repro.service.shedding`. A solver called *directly* inside an
``async def`` blocks the loop for the duration of the solve — every
queued query's deadline keeps ticking while nothing is dispatched,
which is exactly the latency collapse the service exists to prevent.
"""

from __future__ import annotations

import ast
from typing import List, Set

from ..base import FileContext, Rule, register
from ..findings import Finding

__all__ = ["AsyncSolverCallRule"]

#: Top-level ``repro`` packages whose callables do solver work. Calls
#: into these from coroutine bodies must go through the worker tier.
SOLVER_ROOTS = frozenset(
    {
        "core",
        "infotheory",
        "bounds",
        "timing",
        "coding",
        "sync",
        "os_model",
        "network",
    }
)


def _solver_root(module: str, level: int) -> bool:
    """Whether an import source resolves into a solver package.

    Handles absolute (``repro.core.capacity``) and relative
    (``..core.capacity``, i.e. ``level >= 1`` with ``module``
    ``"core.capacity"``) forms.
    """
    parts = module.split(".") if module else []
    if level == 0 and parts and parts[0] == "repro":
        parts = parts[1:]
    return bool(parts) and parts[0] in SOLVER_ROOTS


def _solver_bindings(tree: ast.Module) -> "tuple[Set[str], Set[str]]":
    """Names bound to solver callables and to solver module aliases.

    Returns ``(callables, modules)``: ``from repro.core.capacity import
    erasure_upper_bound`` binds a callable name; ``import
    repro.core.capacity as cap`` (or ``from repro.core import
    capacity``) binds a module alias whose attribute calls are solver
    calls.
    """
    callables: Set[str] = set()
    modules: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module is None and node.level:
                # "from . import x" — x itself may be a solver package.
                for alias in node.names:
                    if alias.name in SOLVER_ROOTS:
                        modules.add(alias.asname or alias.name)
                continue
            if _solver_root(node.module or "", node.level):
                for alias in node.names:
                    callables.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro":
                    parts = parts[1:]
                if parts and parts[0] in SOLVER_ROOTS:
                    modules.add(alias.asname or alias.name.split(".")[0])
    return callables, modules


def _attribute_root(node: ast.Attribute) -> str:
    value: ast.expr = node
    while isinstance(value, ast.Attribute):
        value = value.value
    return value.id if isinstance(value, ast.Name) else ""


@register
class AsyncSolverCallRule(Rule):
    """SVC001 — coroutines must not call solvers directly."""

    rule_id = "SVC001"
    title = "no direct solver calls inside async def (route via worker tier)"
    rationale = (
        "A capacity solve called directly in a coroutine blocks the "
        "event loop: admission, batching, deadline timers, and breaker "
        "probes all stall behind it, so one heavy query degrades every "
        "other query's latency. Solves must cross to the worker tier "
        "(run_in_executor over the supervised pool) or use the "
        "synchronous shed-ladder helpers in repro.service.shedding."
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        # The rule constrains the service layer; solver packages call
        # themselves freely (and have no coroutines anyway).
        if ctx.module is not None and not ctx.module.startswith(
            "repro.service"
        ):
            return []
        callables, modules = _solver_bindings(ctx.tree)
        if not callables and not modules:
            return []
        findings: List[Finding] = []
        for outer in ast.walk(ctx.tree):
            if not isinstance(outer, ast.AsyncFunctionDef):
                continue
            # Nested sync defs still execute on the loop thread when
            # called from the coroutine, so the whole subtree counts —
            # except nested async defs, walked in their own right.
            for node in ast.walk(outer):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                dotted: str = ""
                if isinstance(func, ast.Name) and func.id in callables:
                    dotted = func.id
                elif (
                    isinstance(func, ast.Attribute)
                    and _attribute_root(func) in modules
                ):
                    dotted = f"{_attribute_root(func)}.{func.attr}"
                if dotted:
                    findings.append(
                        ctx.finding(
                            node,
                            self.rule_id,
                            f"solver call {dotted}() inside async def "
                            f"{outer.name!r} blocks the event loop; "
                            "dispatch through the worker tier "
                            "(run_in_executor) or the sync shed ladder",
                        )
                    )
        return findings
