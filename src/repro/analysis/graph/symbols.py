"""Per-module symbol extraction: functions, classes, imports, effects.

One :class:`ModuleSummary` captures everything the whole-program pass
needs to know about a module *without looking at any other module*:
its import aliases, its functions (with their direct effect origins
and raw, unresolved call references), its classes (method tables,
``self.x = Ctor()`` attribute types), and its module-level assignment
aliases. Keeping extraction strictly module-local is what makes the
summaries cacheable in the result store — a module's summary is a pure
function of its source text, so a warm ``repro lint --graph`` run
reuses every summary whose file did not change and only the
cross-module *link* step (:mod:`.callgraph`) runs from scratch.

Call references are recorded in a small raw vocabulary that the linker
resolves later:

==========  ==========================================================
kind        meaning
==========  ==========================================================
``name``    bare-name call ``f(...)``
``dotted``  attribute chain rooted at a module alias ``np.einsum(...)``
``self``    method call on ``self``/``cls``
``param``   method call on a function parameter (injected dependency)
``var``     method call on a local whose constructor is known
``opaque``  method call on a receiver the extractor cannot type
==========  ==========================================================

Direct effects (:class:`repro.analysis.graph.lattice.Effect`) are
pattern-matched here because the tables only need the module's own
import aliases. An origin whose line carries a waiving ``# repro:
noqa[...]`` directive (see ``WAIVER_RULES``) is marked ``waived`` and
excluded from transitive propagation — the suppression is an audited
boundary, and the source hash keying the cache covers comment changes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..suppressions import SuppressionIndex
from .lattice import WAIVER_RULES, Effect

__all__ = [
    "ArgRef",
    "CallRef",
    "EffectOrigin",
    "FunctionInfo",
    "ClassInfo",
    "ModuleSummary",
    "extract_module",
]

# ----------------------------------------------------------------------
# effect pattern tables

#: ``time.<f>()`` / ``datetime.<f>()`` clock reads: tagged CLOCK here and
#: flagged by the DET001 rule, which imports these two tables, so a
#: ``noqa[DET001]`` waiver always has a same-line finding to suppress.
_TIME_FUNCS = frozenset(
    {
        "time",
        "monotonic",
        "perf_counter",
        "process_time",
        "thread_time",
        "monotonic_ns",
        "perf_counter_ns",
        "process_time_ns",
        "thread_time_ns",
        "time_ns",
    }
)
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
_RNG_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
)
_OS_FS_FUNCS = frozenset(
    {
        "remove",
        "rename",
        "replace",
        "unlink",
        "makedirs",
        "mkdir",
        "rmdir",
        "removedirs",
        "listdir",
        "scandir",
        "stat",
        "chmod",
        "symlink",
        "link",
        "open",
        "fsync",
    }
)
_OS_ENV_FUNCS = frozenset({"getenv", "putenv", "unsetenv", "environb"})
_FS_METHOD_NAMES = frozenset(
    {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "unlink",
        "touch",
        "mkdir",
        "rmdir",
        "rglob",
        "glob",
        "iterdir",
        "hardlink_to",
        "symlink_to",
    }
)
_NETWORK_MODULES = frozenset(
    {"socket", "urllib", "http", "requests", "ftplib", "smtplib", "asyncio"}
)
# asyncio is deliberately NOT network; drop it from the frozen set.
_NETWORK_MODULES = frozenset(_NETWORK_MODULES - {"asyncio"})
_FS_MODULES = frozenset({"shutil", "tempfile", "pathlib"})
#: Mutating container methods: calling one on a *module-level* name is
#: a global mutation.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popleft",
        "appendleft",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
    }
)
#: Method names assumed effect-free on any receiver: the numpy / stdlib
#: container vocabulary. Everything else on an untyped receiver is the
#: conservative UNKNOWN.
_BENIGN_METHODS = frozenset(
    {
        # containers / strings
        "get", "items", "keys", "values", "copy", "index", "count",
        "join", "split", "rsplit", "strip", "lstrip", "rstrip", "format",
        "startswith", "endswith", "encode", "decode", "lower", "upper",
        "replace", "sort", "sorted", "reverse", "format_map", "most_common",
        # numpy ndarray / scalar
        "sum", "mean", "std", "var", "min", "max", "argmin", "argmax",
        "astype", "reshape", "ravel", "flatten", "tolist", "item",
        "transpose", "dot", "fill", "cumsum", "cumprod", "clip", "round",
        "nonzero", "any", "all", "squeeze", "view", "tobytes", "byteswap",
        "searchsorted", "repeat", "take", "put", "conj", "prod", "trace",
        # misc protocol-ish
        "union", "intersection", "difference", "issubset", "issuperset",
        "isdisjoint", "total_seconds", "as_integer_ratio", "bit_length",
    }
)


@dataclass(frozen=True)
class ArgRef:
    """Compact description of one call argument (for submit analysis)."""

    kind: str  # "lambda" | "name" | "dotted" | "methodref" | "str" | "other"
    text: str = ""


@dataclass(frozen=True)
class CallRef:
    """One raw (unresolved) call site inside a function body."""

    kind: str
    parts: Tuple[str, ...]
    line: int
    recv_ctor: Optional[Tuple[str, ...]] = None
    args: Tuple[ArgRef, ...] = ()


@dataclass(frozen=True)
class EffectOrigin:
    """One direct effect site: what, where, and whether it is waived."""

    effect: Effect
    line: int
    detail: str
    waived: bool = False


@dataclass
class FunctionInfo:
    """Everything extraction learns about one function or method."""

    qname: str
    name: str
    module: str
    line: int
    kind: str  # "function" | "method" | "nested" | "lambda"
    params: Tuple[str, ...] = ()
    decorators: Tuple[CallRef, ...] = ()
    effects: Tuple[EffectOrigin, ...] = ()
    calls: Tuple[CallRef, ...] = ()


@dataclass
class ClassInfo:
    """A class definition: method table, bases, known attribute types."""

    qname: str
    name: str
    module: str
    line: int
    bases: Tuple[Tuple[str, ...], ...] = ()
    methods: Dict[str, str] = field(default_factory=dict)
    attr_ctors: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    is_dataclass: bool = False


@dataclass
class ModuleSummary:
    """The module-local half of the whole-program analysis."""

    module: str
    path: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    assigns: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# extraction


def _package_of(module: str, is_init: bool) -> str:
    if is_init:
        return module
    return module.rsplit(".", 1)[0] if "." in module else ""


def _resolve_relative(module: str, is_init: bool, node: ast.ImportFrom) -> str:
    """Absolute module named by a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module or ""
    package = _package_of(module, is_init)
    parts = package.split(".") if package else []
    # level 1 = current package, each extra level strips one component.
    strip = node.level - 1
    base = parts[: len(parts) - strip] if strip else parts
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def _dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """Flatten ``a.b.c`` into parts when rooted at a plain Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _arg_ref(node: Optional[ast.expr]) -> ArgRef:
    if node is None:
        return ArgRef("other")
    if isinstance(node, ast.Lambda):
        return ArgRef("lambda")
    if isinstance(node, ast.Name):
        return ArgRef("name", node.id)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return ArgRef("str", node.value)
    parts = _dotted_parts(node)
    if parts is not None:
        return ArgRef("dotted", ".".join(parts))
    return ArgRef("other")


class _FunctionExtractor:
    """Walks one function body, skipping nested function bodies."""

    def __init__(
        self,
        owner: "_ModuleExtractor",
        node: ast.AST,
        qname: str,
        kind: str,
        class_ctx: Optional[ClassInfo],
    ) -> None:
        self.owner = owner
        self.node = node
        self.qname = qname
        self.kind = kind
        self.class_ctx = class_ctx
        self.params: Tuple[str, ...] = ()
        self.local_names: Set[str] = set()
        self.local_ctors: Dict[str, Tuple[str, ...]] = {}
        self.effects: List[EffectOrigin] = []
        self.calls: List[CallRef] = []
        self.globals_declared: Set[str] = set()

    # -- scaffolding ---------------------------------------------------

    def extract(self) -> FunctionInfo:
        node = self.node
        decorators: Tuple[CallRef, ...] = ()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.params = _param_names(node.args)
            decorators = tuple(
                ref
                for ref in (
                    self.owner.decorator_ref(d) for d in node.decorator_list
                )
                if ref is not None
            )
            body: Sequence[ast.stmt] = node.body
        elif isinstance(node, ast.Lambda):
            self.params = _param_names(node.args)
            body = [ast.Expr(value=node.body)]
        else:  # pragma: no cover - callers only pass functions/lambdas
            body = []
        self._scan_locals(body)
        for stmt in body:
            self._visit(stmt)
        return FunctionInfo(
            qname=self.qname,
            name=self.qname.rsplit(".", 1)[-1],
            module=self.owner.module,
            line=getattr(node, "lineno", 1),
            kind=self.kind,
            params=self.params,
            decorators=decorators,
            effects=tuple(self.effects),
            calls=tuple(self.calls),
        )

    def _scan_locals(self, body: Sequence[ast.stmt]) -> None:
        """Pre-pass: local assignments and their constructors."""
        for stmt in body:
            for node in _walk_shallow(stmt):
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call
                ):
                    ctor = _dotted_parts(node.value.func)
                    if ctor is None:
                        continue
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.local_ctors[target.id] = tuple(ctor)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    ann = _annotation_class(node.annotation)
                    if ann is not None:
                        self.local_ctors[node.target.id] = tuple(ann)
                elif isinstance(node, ast.With):
                    for item in node.items:
                        if (
                            isinstance(item.context_expr, ast.Call)
                            and item.optional_vars is not None
                            and isinstance(item.optional_vars, ast.Name)
                        ):
                            ctor = _dotted_parts(item.context_expr.func)
                            if ctor is not None:
                                self.local_ctors[
                                    item.optional_vars.id
                                ] = tuple(ctor)
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.local_names.add(target.id)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if isinstance(node.target, ast.Name):
                        self.local_names.add(node.target.id)

    # -- the walk ------------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.owner.extract_function(
                node, f"{self.qname}.{node.name}", "nested", self.class_ctx
            )
            # Default-argument values still evaluate in this scope.
            for default in _default_exprs(node.args):
                self._visit(default)
            return
        if isinstance(node, ast.Lambda):
            return  # anonymous; callable only through a local name
        if isinstance(node, ast.Call):
            self._handle_call(node)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            self.globals_declared.update(node.names)
            self._add_effect(
                Effect.GLOBAL_MUTATION,
                node.lineno,
                f"{'global' if isinstance(node, ast.Global) else 'nonlocal'} "
                + ", ".join(node.names),
            )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                self._check_mutation_target(target)
        elif isinstance(node, ast.Subscript):
            self._check_environ(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _check_mutation_target(self, target: ast.expr) -> None:
        """Assignment through a module-level name is a global mutation."""
        base: Optional[ast.expr] = None
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
        if (
            base is not None
            and isinstance(base, ast.Name)
            and self._is_module_global(base.id)
        ):
            self._add_effect(
                Effect.GLOBAL_MUTATION,
                target.lineno,
                f"assignment through module-level name {base.id!r}",
            )

    def _is_module_global(self, name: str) -> bool:
        if name in self.params or name in self.local_names:
            return False
        return name in self.owner.module_level_names

    def _check_environ(self, node: ast.Subscript) -> None:
        parts = _dotted_parts(node.value)
        if parts is not None and parts[-1] == "environ":
            self._add_effect(Effect.ENV, node.lineno, "os.environ[...]")

    # -- calls ---------------------------------------------------------

    def _handle_call(self, call: ast.Call) -> None:
        func = call.func
        args = tuple(_arg_ref(a) for a in call.args[:2])
        line = call.lineno
        if isinstance(func, ast.Name):
            self._handle_name_call(func.id, call, args)
            return
        if isinstance(func, ast.Attribute):
            parts = _dotted_parts(func)
            recv = func.value
            if isinstance(recv, ast.Name):
                rid = recv.id
                if rid in ("self", "cls") and self.class_ctx is not None:
                    self.calls.append(
                        CallRef("self", (func.attr,), line, args=args)
                    )
                    return
                if rid in self.params:
                    self.calls.append(
                        CallRef("param", (rid, func.attr), line, args=args)
                    )
                    return
                if rid in self.local_ctors:
                    self.calls.append(
                        CallRef(
                            "var",
                            (rid, func.attr),
                            line,
                            recv_ctor=self.local_ctors[rid],
                            args=args,
                        )
                    )
                    self._method_effects(func.attr, rid, line)
                    return
                if parts is not None and (
                    rid in self.owner.imports or rid in _KNOWN_MODULES
                ):
                    self._handle_dotted_call(parts, call, args)
                    return
            elif parts is not None:
                if parts[0] in ("self", "cls") and self.class_ctx is not None:
                    if len(parts) == 3:
                        # self._pool.run(...) — attribute-of-self
                        # receiver, typed via the class's attr_ctors.
                        self.calls.append(
                            CallRef(
                                "self-attr",
                                (parts[1], parts[2]),
                                line,
                                args=args,
                            )
                        )
                        self._method_effects(
                            parts[2], f"self.{parts[1]}", line
                        )
                        return
                    # Deeper chains (self.a.b.c()) are untypeable.
                    self._opaque_method(func.attr, line, args)
                    return
                # a.b.c(...) rooted deeper than one attribute
                self._handle_dotted_call(parts, call, args)
                return
            self._opaque_method(func.attr, line, args)
            return
        # Calls on arbitrary expressions ((f or g)(...)): unknown.
        self._add_effect(Effect.UNKNOWN, line, "call on computed expression")

    def _handle_name_call(
        self, name: str, call: ast.Call, args: Tuple[ArgRef, ...]
    ) -> None:
        line = call.lineno
        if name == "print":
            self._add_effect(Effect.STDOUT, line, "print()")
            return
        if name == "open":
            self._add_effect(Effect.FILESYSTEM, line, "open()")
            return
        target = self.owner.imports.get(name)
        if target is not None:
            self._effect_for_dotted(target.split("."), line)
            self.calls.append(
                CallRef("dotted", tuple(target.split(".")), line, args=args)
            )
            return
        self.calls.append(CallRef("name", (name,), line, args=args))

    def _handle_dotted_call(
        self, parts: List[str], call: ast.Call, args: Tuple[ArgRef, ...]
    ) -> None:
        line = call.lineno
        head = parts[0]
        resolved_head = self.owner.imports.get(head, head)
        full = resolved_head.split(".") + parts[1:]
        self._effect_for_dotted(full, line)
        self.calls.append(CallRef("dotted", tuple(full), line, args=args))

    def _method_effects(self, attr: str, recv: str, line: int) -> None:
        if attr in _FS_METHOD_NAMES:
            self._add_effect(
                Effect.FILESYSTEM, line, f"{recv}.{attr}()"
            )
        if attr in _MUTATING_METHODS and self._is_module_global(
            recv.split(".", 1)[0]
        ):
            self._add_effect(
                Effect.GLOBAL_MUTATION,
                line,
                f"mutating call {recv}.{attr}() on a module-level name",
            )

    def _opaque_method(
        self, attr: str, line: int, args: Tuple[ArgRef, ...]
    ) -> None:
        if attr in _FS_METHOD_NAMES:
            self._add_effect(Effect.FILESYSTEM, line, f".{attr}()")
            self.calls.append(CallRef("opaque", (attr,), line, args=args))
            return
        if attr in _BENIGN_METHODS or attr in _MUTATING_METHODS:
            # Container/ndarray vocabulary: locally pure. Mutating
            # calls on *module-level* receivers are caught by the
            # typed branches; an opaque receiver here is a local.
            return
        self.calls.append(CallRef("opaque", (attr,), line, args=args))
        self._add_effect(
            Effect.UNKNOWN, line, f"unresolvable method call .{attr}()"
        )

    def _effect_for_dotted(self, parts: Sequence[str], line: int) -> None:
        dotted = ".".join(parts)
        head = parts[0]
        if head == "time" and len(parts) == 2 and parts[1] in _TIME_FUNCS:
            self._add_effect(Effect.CLOCK, line, f"{dotted}()")
        elif parts[-1] in _DATETIME_FUNCS and head in ("datetime", "date"):
            self._add_effect(Effect.CLOCK, line, f"{dotted}()")
        elif head in ("numpy", "np") and len(parts) >= 2 and parts[1] == "random":
            self._add_effect(Effect.RNG, line, f"{dotted}()")
        elif parts[-1] in _RNG_CONSTRUCTORS:
            self._add_effect(Effect.RNG, line, f"{dotted}()")
        elif head == "os":
            if parts[-1] in _OS_ENV_FUNCS or "environ" in parts:
                self._add_effect(Effect.ENV, line, f"{dotted}()")
            elif parts[-1] in _OS_FS_FUNCS:
                self._add_effect(Effect.FILESYSTEM, line, f"{dotted}()")
            elif parts[-1] == "urandom":
                self._add_effect(Effect.RNG, line, "os.urandom()")
        elif head in _FS_MODULES:
            self._add_effect(Effect.FILESYSTEM, line, f"{dotted}()")
        elif head in _NETWORK_MODULES:
            self._add_effect(Effect.NETWORK, line, f"{dotted}()")
        elif head == "random":
            self._add_effect(Effect.RNG, line, f"{dotted}()")
        elif head == "secrets":
            self._add_effect(Effect.RNG, line, f"{dotted}()")

    def _add_effect(self, effect: Effect, line: int, detail: str) -> None:
        waived = any(
            self.owner.suppressions.is_suppressed(line, rule_id)
            for rule_id in WAIVER_RULES[effect]
        )
        self.effects.append(EffectOrigin(effect, line, detail, waived))


#: Module heads recognized without an import statement (builtins-adjacent
#: stdlib the effect tables name); anything else unimported is a local.
_KNOWN_MODULES = frozenset(
    {"os", "time", "datetime", "shutil", "tempfile", "socket", "random"}
)


def _param_names(args: ast.arguments) -> Tuple[str, ...]:
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


def _default_exprs(args: ast.arguments) -> List[ast.expr]:
    return list(args.defaults) + [
        d for d in args.kw_defaults if d is not None
    ]


def _annotation_class(node: ast.expr) -> Optional[List[str]]:
    """Class parts named by an annotation, unwrapping ``Optional[...]``."""
    if isinstance(node, ast.Subscript):
        outer = _dotted_parts(node.value)
        if outer is not None and outer[-1] in ("Optional", "Final"):
            return _annotation_class(node.slice)
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _annotation_class(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return None
    return _dotted_parts(node)


def _walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """ast.walk that does not descend into nested function bodies."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)


class _ModuleExtractor:
    """Extracts one :class:`ModuleSummary` from a parsed module."""

    def __init__(
        self,
        module: str,
        path: str,
        tree: ast.Module,
        suppressions: SuppressionIndex,
    ) -> None:
        self.module = module
        self.path = path
        self.tree = tree
        self.suppressions = suppressions
        self.is_init = path.endswith("__init__.py")
        self.imports: Dict[str, str] = {}
        self.summary = ModuleSummary(module=module, path=path)
        self.summary.imports = self.imports
        self.module_level_names: Set[str] = set()

    def run(self) -> ModuleSummary:
        self._collect_module_names()
        for node in self.tree.body:
            self._visit_top(node)
        return self.summary

    def _collect_module_names(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = target
                    self.module_level_names.add(local)
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(self.module, self.is_init, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}" if base else alias.name
                    self.module_level_names.add(local)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self.module_level_names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.module_level_names.add(target.id)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        self.module_level_names.update(
                            e.id for e in target.elts if isinstance(e, ast.Name)
                        )
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self.module_level_names.add(node.target.id)

    def _visit_top(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.extract_function(
                node, f"{self.module}.{node.name}", "function", None
            )
        elif isinstance(node, ast.ClassDef):
            self._extract_class(node)
        elif isinstance(node, ast.Assign):
            self._extract_assign(node)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING / fallback-import blocks: walk one level in.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._visit_top(child)

    def _extract_assign(self, node: ast.Assign) -> None:
        targets = [t for t in node.targets if isinstance(t, ast.Name)]
        if not targets:
            return
        if isinstance(node.value, ast.Lambda):
            for target in targets:
                qname = f"{self.module}.{target.id}"
                info = _FunctionExtractor(
                    self, node.value, qname, "lambda", None
                ).extract()
                self.summary.functions[qname] = info
                self.summary.assigns[target.id] = ("lambda", qname)
            return
        ref = _dotted_parts(node.value)
        if ref is not None:
            for target in targets:
                self.summary.assigns[target.id] = tuple(ref)

    def extract_function(
        self,
        node: ast.AST,
        qname: str,
        kind: str,
        class_ctx: Optional[ClassInfo],
    ) -> FunctionInfo:
        info = _FunctionExtractor(self, node, qname, kind, class_ctx).extract()
        self.summary.functions[qname] = info
        return info

    def decorator_ref(self, node: ast.expr) -> Optional[CallRef]:
        if isinstance(node, ast.Call):
            parts = _dotted_parts(node.func)
            if parts is None:
                return None
            return CallRef(
                "decorator",
                tuple(parts),
                node.lineno,
                args=tuple(_arg_ref(a) for a in node.args[:2]),
            )
        parts = _dotted_parts(node)
        if parts is None:
            return None
        return CallRef("decorator", tuple(parts), node.lineno)

    def _extract_class(self, node: ast.ClassDef) -> None:
        qname = f"{self.module}.{node.name}"
        bases = tuple(
            tuple(p)
            for p in (_dotted_parts(b) for b in node.bases)
            if p is not None
        )
        is_dataclass = any(
            (ref is not None and ref.parts[-1] == "dataclass")
            for ref in (self.decorator_ref(d) for d in node.decorator_list)
        )
        info = ClassInfo(
            qname=qname,
            name=node.name,
            module=self.module,
            line=node.lineno,
            bases=bases,
            is_dataclass=is_dataclass,
        )
        self.summary.classes[qname] = info
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qname = f"{qname}.{child.name}"
                info.methods[child.name] = method_qname
                self.extract_function(child, method_qname, "method", info)
                self._collect_attr_ctors(child, info)

    def _collect_attr_ctors(
        self, method: ast.AST, info: ClassInfo
    ) -> None:
        """Record ``self.x = Ctor(...)`` / annotated attribute types."""
        for node in _walk_shallow(method):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            ctor: Optional[List[str]] = None
            if annotation is not None:
                ctor = _annotation_class(annotation)
            if ctor is None and isinstance(value, ast.Call):
                ctor = _dotted_parts(value.func)
            if ctor is not None and target.attr not in info.attr_ctors:
                info.attr_ctors[target.attr] = tuple(ctor)


def extract_module(
    module: str,
    path: str,
    source: str,
    tree: Optional[ast.Module] = None,
) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` for one source file.

    *tree* may be supplied to reuse an AST the lint runner already
    parsed (the single-parse discipline); otherwise the source is
    parsed here.
    """
    if tree is None:
        tree = ast.parse(source)
    suppressions = SuppressionIndex.from_source(source)
    return _ModuleExtractor(module, path, tree, suppressions).run()
