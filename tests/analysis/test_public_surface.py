"""Tier-1 gate: every definition in ``src/`` has a live caller.

A definition is a module-level ``def``, ``class`` or assignment target
in ``src/repro``, or a class member there: a method, a property, or a
field of a ``@dataclass``. Dunders are neither. A module-level
definition is live when a live context refers to it:

* a ``Name`` or ``Attribute`` with its name anywhere in ``src/``,
  ``examples/`` or ``benchmarks/`` (imports and ``__all__`` do not
  count, so a re-export is not a caller);
* inside ``src/`` only, a string literal equal to the name (a
  ``getattr`` or registry lookup);
* a ``@register`` decorator on the definition itself (lint rules are
  reached through the rule registry).

A member is live when a live context reads its name as an attribute
(``obj.name`` in ``Load`` context), names it in a string literal inside
``src/`` (``getattr``, ``instance_attrs=``), or reads ``.name`` in a
CI workflow under ``.github/workflows/``. A keyword argument in a
constructor call writes a field; it does not read it. Matching is by
name only, so a same-name read keeps a member alive wrongly but never
kills one wrongly.

Module-level code outside any definition, every file under
``examples/`` and ``benchmarks/``, and a class's own body outside its
members (bases, decorators, annotations, dunders) are live contexts.
The body of a definition or member becomes one only once it is live,
so the scan grows the live set until nothing changes: code reached only
from dead code is dead too. Tests are not callers; an oracle a test
needs lives under ``tests/``.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]

# (module path relative to the root, name) for a module-level
# definition, (module path, "Class.member") for a class member.
Def = Tuple[str, str]

_YAML_ATTRIBUTE = re.compile(r"\.([A-Za-z_]\w*)")


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


def _decorator_names(stmt: ast.stmt) -> List[str]:
    names = []
    for dec in getattr(stmt, "decorator_list", []):
        func = dec.func if isinstance(dec, ast.Call) else dec
        attr = isinstance(func, ast.Attribute)
        names.append(func.attr if attr else getattr(func, "id", ""))
    return names


def _members(cls: ast.ClassDef) -> List[Tuple[str, ast.stmt]]:
    """The class's members: non-dunder methods and properties, and the
    annotated fields of a ``@dataclass``."""
    dataclass = "dataclass" in _decorator_names(cls)
    out = []
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = stmt.name
        elif dataclass and isinstance(stmt, ast.AnnAssign):
            if not isinstance(stmt.target, ast.Name):
                continue
            name = stmt.target.id
        else:
            continue
        if not (name.startswith("__") and name.endswith("__")):
            out.append((name, stmt))
    return out


def _references(nodes: Iterable[ast.AST], strings: bool) -> Set[str]:
    """Names referenced under ``nodes``: Name ids and Attribute attrs,
    plus ``.attr`` for an attribute read and, when ``strings``, each
    string constant both bare and as ``.s``. Imports hold only
    aliases, so they contribute nothing."""
    out: Set[str] = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
                if isinstance(n.ctx, ast.Load):
                    out.add("." + n.attr)
            elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.update((n.value, "." + n.value))
    return out


def _token(key: Def) -> str:
    """The reference that makes ``key`` live: its bare name for a
    module-level definition, ``.member`` for a class member."""
    owner, _, member = key[1].rpartition(".")
    return "." + member if owner else member


def _size(stmt: ast.stmt) -> int:
    decorators = getattr(stmt, "decorator_list", [])
    first = min([stmt.lineno] + [d.lineno for d in decorators])
    return stmt.end_lineno - first + 1


def scan(root: Path) -> Tuple[Set[Def], Dict[Def, int]]:
    """Return the dead definitions under ``root`` and each one's line
    count. ``root`` holds ``src/repro``, the caller directories
    ``examples/`` and ``benchmarks/``, and ``.github/workflows/``."""
    bodies: Dict[Def, Set[str]] = {}
    sizes: Dict[Def, int] = {}
    live_refs: Set[str] = set()
    live: Set[Def] = set()

    def define(key: Def, refs: Set[str], size: int) -> None:
        bodies[key] = bodies.get(key, set()) | (refs - {_token(key)})
        sizes[key] = sizes.get(key, 0) + size

    for path in sorted((root / "src" / "repro").rglob("*.py")):
        rel = str(path.relative_to(root))
        for stmt in ast.parse(path.read_text(), filename=rel).body:
            if _is_all(stmt):
                continue
            names = _defined_names(stmt)
            if not names:
                live_refs |= _references([stmt], strings=True)
                continue
            if isinstance(stmt, ast.ClassDef):
                members = _members(stmt)
                inner = {id(node) for _, node in members}
                shell = stmt.decorator_list + stmt.bases + stmt.keywords
                for member in stmt.body:
                    if id(member) not in inner:
                        shell.append(member)
                    elif isinstance(member, ast.AnnAssign):
                        shell.append(member.annotation)
                refs = _references(shell, strings=True)
                for name, node in members:
                    if isinstance(node, ast.AnnAssign):
                        body = [node.value] if node.value is not None else []
                    else:
                        body = [node]
                    refs_of_member = _references(body, strings=True)
                    define((rel, f"{stmt.name}.{name}"), refs_of_member, _size(node))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                refs = _references([value], strings=True) if value is not None else set()
            else:
                refs = _references([stmt], strings=True)
            for name in names:
                key = (rel, name)
                define(key, refs, _size(stmt))
                if "register" in _decorator_names(stmt):
                    live.add(key)
    for directory in ("examples", "benchmarks"):
        for path in sorted((root / directory).rglob("*.py")):
            live_refs |= _references([ast.parse(path.read_text())], strings=False)
    for path in sorted((root / ".github" / "workflows").glob("*.yml")):
        live_refs |= {"." + m for m in _YAML_ATTRIBUTE.findall(path.read_text())}

    for key in live:
        live_refs |= bodies[key]
    changed = True
    while changed:
        changed = False
        for key, refs in bodies.items():
            if key not in live and _token(key) in live_refs:
                live.add(key)
                live_refs |= refs
                changed = True
    return set(bodies) - live, sizes


def test_every_src_definition_has_a_live_caller():
    dead, sizes = scan(ROOT)
    report = "\n".join(
        f"{module}: {name} ({sizes[(module, name)]} lines)"
        for module, name in sorted(dead)
    )
    assert not dead, (
        f"{len(dead)} definitions or members in src/ have no caller outside "
        f"tests (delete them, or move an oracle under tests/):\n{report}"
    )


def test_scan_reaches_class_members(tmp_path):
    """The gate itself on a tiny tree: a gate that flags nothing would
    pass vacuously."""
    files = {
        "src/repro/mod.py": '''
from dataclasses import dataclass

@dataclass
class Result:
    value: float
    test_only: float
    by_name: float
    by_workflow: float

    def live_method(self):
        return self.value

    def dead_method(self):
        return self.reached_from_dead()

    def reached_from_dead(self):
        return 0.0


def solve():
    r = Result(value=1.0, test_only=2.0, by_name=3.0, by_workflow=4.0)
    return r.live_method(), getattr(r, "by_name")
''',
        "examples/demo.py": "from repro.mod import solve\nprint(solve())\n",
        "benchmarks/__init__.py": "",
        "tests/test_mod.py": "from repro.mod import solve\nassert solve().test_only\n",
        ".github/workflows/ci.yml": "run: python -c 'print(solve().by_workflow)'\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)

    dead, _ = scan(tmp_path)
    assert dead == {
        ("src/repro/mod.py", "Result.test_only"),
        ("src/repro/mod.py", "Result.dead_method"),
        ("src/repro/mod.py", "Result.reached_from_dead"),
    }
