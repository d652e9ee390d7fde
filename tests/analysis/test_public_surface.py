"""Tier-1 gate: every module-level definition in ``src/`` has a live caller.

A definition is a module-level ``def``, ``class`` or assignment target
in ``src/repro``. It is live when a live context refers to it:

* a ``Name`` or ``Attribute`` with its name anywhere in ``src/``,
  ``examples/`` or ``benchmarks/`` (imports and ``__all__`` do not
  count, so a re-export is not a caller);
* inside ``src/`` only, a string literal equal to the name (a
  ``getattr`` or registry lookup);
* a ``@register`` decorator on the definition itself (lint rules are
  reached through the rule registry).

Module-level code outside any definition, and every file under
``examples/`` and ``benchmarks/``, is a live context. The body of a
definition becomes one only once the definition is live, so the scan
grows the live set until nothing changes: code reached only from dead
code is dead too. Tests are not callers; an oracle a test needs lives
under ``tests/``.
"""

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = (ROOT / "examples", ROOT / "benchmarks")

Def = Tuple[str, str]  # (module path relative to the repo root, name)


def _targets(stmt: ast.stmt) -> List[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.target]
    return []


def _is_all(stmt: ast.stmt) -> bool:
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in _targets(stmt))


def _defined_names(stmt: ast.stmt) -> List[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    return [
        n.id
        for t in _targets(stmt)
        for n in ast.walk(t)
        if isinstance(n, ast.Name) and not n.id.startswith("__")
    ]


def _registered(stmt: ast.stmt) -> bool:
    for dec in getattr(stmt, "decorator_list", []):
        func = dec.func if isinstance(dec, ast.Call) else dec
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "register":
            return True
    return False


def _references(node: ast.AST, strings: bool) -> Set[str]:
    """Names referenced under ``node``: Name ids, Attribute attrs and,
    when ``strings``, string constants. Imports hold only aliases, so
    they contribute nothing."""
    out: Set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def scan() -> Tuple[Set[Def], Dict[Def, int]]:
    """Return the dead definitions and each definition's line count."""
    bodies: Dict[Def, Set[str]] = {}
    sizes: Dict[Def, int] = {}
    live_refs: Set[str] = set()
    live: Set[Def] = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        for stmt in ast.parse(path.read_text(), filename=rel).body:
            if _is_all(stmt):
                continue
            names = _defined_names(stmt)
            refs = _references(stmt, strings=True)
            if not names:
                live_refs |= refs
                continue
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                refs = _references(value, strings=True) if value is not None else set()
            for name in names:
                key = (rel, name)
                bodies[key] = refs - {name}
                sizes[key] = stmt.end_lineno - stmt.lineno + 1
                if _registered(stmt):
                    live.add(key)
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            live_refs |= _references(ast.parse(path.read_text()), strings=False)

    for key in live:
        live_refs |= bodies[key]
    changed = True
    while changed:
        changed = False
        for key, refs in bodies.items():
            if key not in live and key[1] in live_refs:
                live.add(key)
                live_refs |= refs
                changed = True
    return set(bodies) - live, sizes


def test_every_src_definition_has_a_live_caller():
    dead, sizes = scan()
    report = "\n".join(
        f"{module}: {name} ({sizes[(module, name)]} lines)"
        for module, name in sorted(dead)
    )
    assert not dead, (
        f"{len(dead)} definitions in src/ have no caller outside tests "
        f"(delete them, or move an oracle under tests/):\n{report}"
    )
