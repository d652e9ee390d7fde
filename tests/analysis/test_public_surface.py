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

A parameter with a default, on a live module-level function or a live
class's method (``__init__`` included, other dunders and nested
functions not), is live only when a call in a live context passes it:
by keyword, by position (counting ``self`` for a method), or through
``*``/``**`` unpacking, which passes every parameter. Callees are
matched by name, following ``import … as`` and plain-assignment
aliases (``self.estimate = estimate_sample_capacity``),
``functools.partial``, ``super().__init__`` and inherited constructors.
A keyword that a function with ``**kwargs`` takes but does not name (a
forwarder such as ``run_experiment``) sets every parameter of that
name. Dataclass fields are out of scope: the store codec writes them.
A setting only tests vary is a module constant they monkeypatch.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]

# (module path relative to the root, name) for a module-level
# definition, (module path, "Class.member") for a class member, and
# (module path, "function(param)") for a parameter.
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


class _Owner(NamedTuple):
    """A function or method whose defaulted parameters the scan checks."""

    key: Def
    positional: List[str]
    named: Set[str]
    defaulted: List[str]
    offset: int
    varkw: bool


def _owner(key: Def, fn: ast.AST, method: bool) -> _Owner:
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    named = set(positional) | {a.arg for a in args.kwonlyargs}
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    offset = int(method and "staticmethod" not in _decorator_names(fn))
    return _Owner(key, positional, named, defaulted, offset, args.kwarg is not None)


def _call_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _aliases(tree: ast.AST, out: Dict[str, Set[str]]) -> None:
    """Record ``import … as`` and plain-assignment aliases: the alias
    name maps to the name it stands for."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                if a.asname:
                    out.setdefault(a.asname, set()).add(a.name.rpartition(".")[2])
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = _call_name(node.value)
            for target in _targets(node):
                name = _call_name(target)
                if value and name and name != value:
                    out.setdefault(name, set()).add(value)


def _resolve(name: str, aliases: Dict[str, Set[str]]) -> Set[str]:
    seen, todo = set(), [name]
    while todo:
        n = todo.pop()
        if n and n not in seen:
            seen.add(n)
            todo.extend(aliases.get(n, ()))
    return seen


def _calls(
    context: ast.AST, cls: str, bases: Dict[str, List[str]]
) -> Iterable[Tuple[Set[str], List[ast.expr], List[ast.keyword]]]:
    """Each call under ``context``: its callee names, positional
    arguments and keywords. ``super().__init__`` names the enclosing
    class's bases and ``cls`` the class; ``partial(f, …)`` calls ``f``."""
    for node in ast.walk(context):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        name = _call_name(func)
        if name == "partial" and args:
            func, args = args[0], args[1:]
            name = _call_name(func)
        if (
            name == "__init__"
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and _call_name(func.value.func) == "super"
        ):
            names = set(bases.get(cls, ()))
        elif name == "cls" and cls:
            names = {cls}
        else:
            names = {name}
        yield names, args, node.keywords


def scan(root: Path) -> Tuple[Set[Def], Dict[Def, int]]:
    """Return the dead definitions under ``root`` and each one's line
    count. ``root`` holds ``src/repro``, the caller directories
    ``examples/`` and ``benchmarks/``, and ``.github/workflows/``.
    A dead parameter is keyed ``(module, "function(name)")`` and
    counts one line."""
    bodies: Dict[Def, Set[str]] = {}
    sizes: Dict[Def, int] = {}
    live_refs: Set[str] = set()
    live: Set[Def] = set()
    # The code that becomes a live context with each definition, and
    # the class it sits in (for ``super()`` and ``cls``).
    contexts: Dict[Def, List[Tuple[ast.AST, str]]] = {}
    live_contexts: List[Tuple[ast.AST, str]] = []
    owners: Dict[str, List[_Owner]] = {}
    bases: Dict[str, List[str]] = {}
    inits: Dict[str, _Owner] = {}
    aliases: Dict[str, Set[str]] = {}

    def define(
        key: Def, refs: Set[str], size: int, nodes: List[ast.AST], cls: str
    ) -> None:
        bodies[key] = bodies.get(key, set()) | (refs - {_token(key)})
        sizes[key] = sizes.get(key, 0) + size
        contexts.setdefault(key, []).extend((n, cls) for n in nodes)

    for path in sorted((root / "src" / "repro").rglob("*.py")):
        rel = str(path.relative_to(root))
        tree = ast.parse(path.read_text(), filename=rel)
        _aliases(tree, aliases)
        for stmt in tree.body:
            if _is_all(stmt):
                continue
            names = _defined_names(stmt)
            if not names:
                live_refs |= _references([stmt], strings=True)
                live_contexts.append((stmt, ""))
                continue
            nodes: List[ast.AST] = [stmt]
            cls = ""
            if isinstance(stmt, ast.ClassDef):
                cls = stmt.name
                bases[cls] = [_call_name(b) for b in stmt.bases]
                members = _members(stmt)
                inner = {id(node) for _, node in members}
                shell = stmt.decorator_list + stmt.bases + stmt.keywords
                for member in stmt.body:
                    if id(member) not in inner:
                        shell.append(member)
                    elif isinstance(member, ast.AnnAssign):
                        shell.append(member.annotation)
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if member.name == "__init__":
                            inits[cls] = _owner((rel, cls), member, method=True)
                            owners.setdefault(cls, []).append(inits[cls])
                refs = _references(shell, strings=True)
                nodes = shell
                for name, node in members:
                    key = (rel, f"{stmt.name}.{name}")
                    if isinstance(node, ast.AnnAssign):
                        body = [node.value] if node.value is not None else []
                    else:
                        body = [node]
                        owner = _owner(key, node, method=True)
                        owners.setdefault(name, []).append(owner)
                    refs_of_member = _references(body, strings=True)
                    define(key, refs_of_member, _size(node), body, cls)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                refs = _references([value], strings=True) if value is not None else set()
                nodes = [value] if value is not None else []
            else:
                refs = _references([stmt], strings=True)
                owners.setdefault(stmt.name, []).append(
                    _owner((rel, stmt.name), stmt, method=False)
                )
            for name in names:
                key = (rel, name)
                define(key, refs, _size(stmt), nodes, cls)
                if "register" in _decorator_names(stmt):
                    live.add(key)
    for directory in ("examples", "benchmarks"):
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text())
            _aliases(tree, aliases)
            live_refs |= _references([tree], strings=False)
            live_contexts.append((tree, ""))
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

    # A class without its own __init__ is built by its nearest base's.
    for cls in bases:
        base = cls
        while base not in inits and bases.get(base):
            base = bases[base][0]
        if base != cls and base in inits:
            owners.setdefault(cls, []).append(inits[base])

    passed: Set[Tuple[Def, str]] = set()
    forwarded: Set[str] = set()
    for key in live:
        live_contexts.extend(contexts[key])
    for context, cls in live_contexts:
        for names, args, keywords in _calls(context, cls, bases):
            callees = set().union(*(_resolve(n, aliases) for n in names))
            unpacked = any(isinstance(a, ast.Starred) for a in args) or any(
                kw.arg is None for kw in keywords
            )
            for owner in (o for n in callees for o in owners.get(n, ())):
                given = set(owner.defaulted) if unpacked else set()
                given.update(owner.positional[owner.offset:][: len(args)])
                for kw in keywords:
                    if kw.arg in owner.named:
                        given.add(kw.arg)
                    elif kw.arg is not None and owner.varkw:
                        forwarded.add(kw.arg)
                passed |= {(owner.key, p) for p in given}

    dead = set(bodies) - live
    for owner in {o.key: o for group in owners.values() for o in group}.values():
        if owner.key not in live:
            continue
        for param in owner.defaulted:
            if (owner.key, param) not in passed and param not in forwarded:
                key = (owner.key[0], f"{owner.key[1]}({param})")
                dead.add(key)
                sizes[key] = 1
    return dead, sizes


def test_every_src_definition_has_a_live_caller():
    dead, sizes = scan(ROOT)
    report = "\n".join(
        f"{module}: {name} ({sizes[(module, name)]} lines)"
        for module, name in sorted(dead)
    )
    assert not dead, (
        f"{len(dead)} definitions, members or parameters in src/ have no "
        "caller outside tests (delete them, move an oracle under tests/, or "
        f"make a test-only setting a module constant):\n{report}"
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


def test_scan_reaches_parameters(tmp_path):
    """The parameter scan on a tiny tree: a default that only a test or
    a dead function sets is reported; positional, aliased, inherited,
    ``super().__init__`` and forwarded keywords, and unpacked calls,
    keep theirs live."""
    files = {
        "src/repro/mod.py": '''
REGISTRY = {}


def solve(x, by_position=1, by_alias=2, test_only=3, from_dead=4):
    return x


def unpacked(a=1, b=2):
    return a + b


def registered(by_name=1):
    return by_name


REGISTRY["registered"] = registered


def forward(**kwargs):
    return REGISTRY["registered"](**kwargs)


def dead_caller():
    return solve(0, from_dead=5)


class Base:
    def __init__(self, via_super=1, inherited=2):
        self.total = via_super + inherited


class Child(Base):
    def __init__(self):
        super().__init__(via_super=3)

    def scale(self, factor=2):
        return self.total * factor


class Plain(Base):
    pass
''',
        "examples/demo.py": '''
from repro.mod import Child, Plain, forward, solve, unpacked

fast = solve
args = (1, 2)
print(solve(0, 1), fast(0, by_alias=2), forward(by_name=3), unpacked(*args))
print(Child().scale(3), Plain(inherited=4).total)
''',
        "benchmarks/__init__.py": "",
        "tests/test_mod.py": "from repro.mod import solve\nsolve(0, test_only=1)\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)

    dead, _ = scan(tmp_path)
    assert dead == {
        ("src/repro/mod.py", "dead_caller"),
        ("src/repro/mod.py", "solve(test_only)"),
        ("src/repro/mod.py", "solve(from_dead)"),
    }
