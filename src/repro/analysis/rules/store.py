"""Store-discipline rule: the result store is accessed through
``repro.store`` only.

The store's correctness rests on two invariants that are easy to break
from the outside: entries are published atomically (stage under
``tmp/``, one ``os.rename``), and caching is resolved through one
choke point (:func:`repro.store.active_store`). Code that writes into
a store's ``objects/`` layout directly can publish partial entries
that readers then decode; code that reads ``REPRO_STORE_DIR`` itself
forks the activation logic (and silently diverges from explicit
``use_store`` handles); code that calls ``record_cache_event`` itself
forks the memo protocol's hit/miss accounting
(:func:`repro.store.lookup` is its one recorder). All belong in
:mod:`repro.store`.
"""

from __future__ import annotations

import ast
from typing import List

from ..base import FileContext, Rule, register
from ..findings import Finding

__all__ = ["StoreDisciplineRule"]

#: Path methods that mutate the filesystem; calling one on a path
#: derived from a store's object layout bypasses the atomic publish.
_WRITE_METHODS = frozenset(
    {
        "write_text",
        "write_bytes",
        "mkdir",
        "unlink",
        "rename",
        "replace",
        "rmdir",
        "touch",
        "open",
        "symlink_to",
        "hardlink_to",
    }
)


def _mentions_store_layout(node: ast.AST) -> bool:
    """Whether the expression dereferences a store's object layout —
    an ``objects_dir`` attribute or a ``path_for(...)`` call."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "objects_dir":
            return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "path_for"
        ):
            return True
    return False


def _reads_store_env(node: ast.Call) -> bool:
    """Whether *node* is an environment read of ``REPRO_STORE_DIR``:
    ``os.getenv(...)`` / ``os.environ.get(...)`` with the variable name
    as an argument, or ``os.environ[...]`` handled separately."""
    func = node.func
    is_getenv = isinstance(func, ast.Name) and func.id == "getenv"
    if isinstance(func, ast.Attribute):
        if func.attr == "getenv":
            is_getenv = True
        elif func.attr == "get":
            value = func.value
            if (
                isinstance(value, ast.Attribute) and value.attr == "environ"
            ) or (isinstance(value, ast.Name) and value.id == "environ"):
                is_getenv = True
    if not is_getenv:
        return False
    return any(
        isinstance(arg, ast.Constant) and arg.value == "REPRO_STORE_DIR"
        for arg in node.args
    )


def _subscripts_store_env(node: ast.Subscript) -> bool:
    value = node.value
    is_environ = (
        isinstance(value, ast.Attribute) and value.attr == "environ"
    ) or (isinstance(value, ast.Name) and value.id == "environ")
    if not is_environ:
        return False
    sl = node.slice
    return isinstance(sl, ast.Constant) and sl.value == "REPRO_STORE_DIR"


@register
class StoreDisciplineRule(Rule):
    """STORE001 — store access goes through ``repro.store``."""

    rule_id = "STORE001"
    title = "result-store layout, activation and events only via repro.store"
    rationale = (
        "Writing into a store's objects/ layout directly publishes "
        "partial entries that break the atomic-rename contract readers "
        "rely on; reading REPRO_STORE_DIR outside repro.store forks the "
        "activation logic, so explicit use_store handles and the "
        "environment can disagree about whether caching is on; cache "
        "events recorded elsewhere fork the memo protocol's accounting. "
        "All go through the repro.store API (ResultStore.put, "
        "active_store/resolve_store, lookup)."
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        if ctx.module is not None and (
            ctx.module == "repro.store"
            or ctx.module.startswith("repro.store.")
        ):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _WRITE_METHODS
                    and _mentions_store_layout(func.value)
                ):
                    findings.append(
                        ctx.finding(
                            node,
                            self.rule_id,
                            f"direct {func.attr}() into the store layout "
                            "bypasses the atomic publish; use "
                            "ResultStore.put/delete/gc",
                        )
                    )
                elif (
                    getattr(func, "id", getattr(func, "attr", None))
                    == "record_cache_event"
                ):
                    findings.append(
                        ctx.finding(
                            node,
                            self.rule_id,
                            "record_cache_event() outside repro.store "
                            "forks the memo protocol; use "
                            "repro.store.lookup/cached_batch",
                        )
                    )
                elif _reads_store_env(node):
                    findings.append(
                        ctx.finding(
                            node,
                            self.rule_id,
                            "REPRO_STORE_DIR read outside repro.store; "
                            "use repro.store.active_store/resolve_store",
                        )
                    )
            elif isinstance(node, ast.Subscript) and _subscripts_store_env(
                node
            ):
                findings.append(
                    ctx.finding(
                        node,
                        self.rule_id,
                        "REPRO_STORE_DIR read outside repro.store; "
                        "use repro.store.active_store/resolve_store",
                    )
                )
        return findings
