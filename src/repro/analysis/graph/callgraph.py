"""The link step: raw per-module summaries to a whole-program call graph.

Extraction (:mod:`.symbols`) is module-local so it can be cached; this
module is the cross-module half. It builds a global symbol table over
every analyzed module and resolves each function's raw call references
to fully-qualified targets:

* ``import``/``from``-aliases are followed through arbitrarily long
  re-export chains (``repro.numerics.safe_log2`` →
  ``repro.numerics.safeops.safe_log2``), with a visited set so cyclic
  re-exports terminate;
* method calls dispatch through the receiver's known class
  (``self.method()``, locals constructed from a known class, annotated
  ``self._pool: SupervisedPool`` attributes), walking base classes;
* decorators are resolved the same way, which is how ``@cached_solve``
  targets are identified without executing any code;
* calls that resolve to nothing stay on the node as ``unresolved`` —
  the conservative UNKNOWN element the effect closure propagates.

The linker also recognizes **pool submission sites**: calls to
``run``/``map_tasks``/``submit`` on receivers typed as
``SupervisedPool``/``ProcessPoolExecutor`` (including the
``functools.partial(self._pool.run, fn, …)`` thread-bridge form), and
records which argument expression is shipped across the process
boundary — the input to rule GRAPH002.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .symbols import ArgRef, CallRef, ClassInfo, FunctionInfo, ModuleSummary

__all__ = [
    "CallGraph",
    "FunctionNode",
    "Submission",
    "build_call_graph",
]

#: Receiver class names whose run/map_tasks/submit methods ship their
#: first argument to worker processes.
_POOL_CLASSES = frozenset({"SupervisedPool", "ProcessPoolExecutor"})
_POOL_METHODS = frozenset({"run", "map_tasks", "submit"})

#: Builtin callables that are never interesting as graph edges.
_BUILTIN_NAMES = frozenset(
    {
        "len", "range", "enumerate", "zip", "map", "filter", "sorted",
        "reversed", "min", "max", "sum", "abs", "round", "int", "float",
        "str", "bool", "bytes", "list", "tuple", "dict", "set", "frozenset",
        "repr", "format", "isinstance", "issubclass", "getattr", "setattr",
        "hasattr", "delattr", "iter", "next", "type", "vars", "id", "hash",
        "callable", "super", "property", "staticmethod", "classmethod",
        "divmod", "pow", "any", "all", "ord", "chr", "slice", "object",
        "Exception", "ValueError", "TypeError", "KeyError", "IndexError",
        "RuntimeError", "NotImplementedError", "StopIteration",
        "FileNotFoundError", "OSError", "ArithmeticError", "OverflowError",
        "ZeroDivisionError", "AttributeError", "KeyboardInterrupt",
        "memoryview", "complex", "bin", "hex", "oct", "globals", "locals",
    }
)


@dataclass(frozen=True)
class Submission:
    """One callable shipped to a worker pool.

    ``verdict`` is assigned at link time, when the submitting
    function's parameters and module symbol table are in hand:

    * ``"ok"`` — resolves to something pickled by importable name
      (module-level ``def``, class, external import);
    * ``"param"`` — the callable is a parameter of the submitting
      function (a forwarding wrapper; the actual submission is
      checked at that wrapper's call sites);
    * ``"violation"`` — provably or undecidably unpicklable (lambda,
      nested function, local binding, unresolvable name).
    """

    line: int
    api: str
    verdict: str = "ok"
    detail: str = ""


@dataclass
class FunctionNode:
    """A linked function: resolved edges plus submission sites."""

    info: FunctionInfo
    callees: List[Tuple[str, int]] = field(default_factory=list)
    external_calls: List[Tuple[str, int]] = field(default_factory=list)
    unresolved: List[CallRef] = field(default_factory=list)
    cached_fn_id: Optional[str] = None
    submissions: List[Submission] = field(default_factory=list)

    @property
    def qname(self) -> str:
        return self.info.qname


@dataclass
class CallGraph:
    """The whole-program graph over every analyzed module."""

    modules: Dict[str, ModuleSummary]
    functions: Dict[str, FunctionNode]
    classes: Dict[str, ClassInfo]

    def callers_of(self, qname: str) -> List[str]:
        return sorted(
            node.qname
            for node in self.functions.values()
            if any(callee == qname for callee, _ in node.callees)
        )


class _Linker:
    def __init__(self, modules: Dict[str, ModuleSummary]) -> None:
        self.modules = modules
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for summary in modules.values():
            for qname, info in summary.functions.items():
                self.functions[qname] = FunctionNode(info=info)
            self.classes.update(summary.classes)

    # -- symbol resolution --------------------------------------------

    def resolve(
        self, dotted: str, _seen: Optional[Set[str]] = None
    ) -> Tuple[str, str]:
        """Resolve a dotted name to ``(kind, target)``.

        Kinds: ``function``/``class`` (internal, target is a qname),
        ``external`` (target is the dotted name), ``unknown``.
        """
        seen = _seen if _seen is not None else set()
        if dotted in seen:
            return ("unknown", dotted)
        seen.add(dotted)
        if dotted in self.functions:
            return ("function", dotted)
        if dotted in self.classes:
            return ("class", dotted)
        module, remainder = self._split_module(dotted)
        if module is None:
            root = dotted.split(".", 1)[0]
            if any(
                m == root or m.startswith(root + ".") for m in self.modules
            ):
                # Rooted in the analyzed package but names nothing we
                # extracted (e.g. a module-level constant).
                return ("unknown", dotted)
            return ("external", dotted)
        if not remainder:
            return ("external", dotted)  # a bare module reference
        summary = self.modules[module]
        head, rest = remainder[0], remainder[1:]
        target = self._lookup_in_module(summary, head)
        if target is None:
            return ("unknown", dotted)
        kind, resolved = self.resolve(target, seen) if isinstance(
            target, str
        ) else target
        if rest:
            if kind == "class":
                cls = self.classes.get(resolved)
                if cls is not None and len(rest) == 1:
                    method = self._find_method(cls, rest[0])
                    if method is not None:
                        return ("function", method)
                return ("unknown", dotted)
            if kind == "external":
                return ("external", resolved + "." + ".".join(rest))
            return ("unknown", dotted)
        return (kind, resolved)

    def _split_module(
        self, dotted: str
    ) -> Tuple[Optional[str], Tuple[str, ...]]:
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate, tuple(parts[cut:])
        return None, tuple(parts)

    def _lookup_in_module(
        self, summary: ModuleSummary, name: str
    ) -> Optional[str]:
        qname = f"{summary.module}.{name}"
        if qname in summary.functions:
            return qname
        if qname in summary.classes:
            return qname
        if name in summary.assigns:
            ref = summary.assigns[name]
            if ref[0] == "lambda":
                return ref[1]  # the synthesized lambda function node
            return self._absolutize(summary, ref)
        if name in summary.imports:
            return summary.imports[name]
        return None

    def _absolutize(
        self, summary: ModuleSummary, ref: Tuple[str, ...]
    ) -> str:
        head = ref[0]
        resolved_head = summary.imports.get(head)
        if resolved_head is not None:
            return ".".join([resolved_head, *ref[1:]])
        local = f"{summary.module}.{head}"
        if local in summary.functions or local in summary.classes:
            return ".".join([local, *ref[1:]])
        return ".".join(ref)

    def _find_method(self, cls: ClassInfo, name: str) -> Optional[str]:
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qname in seen:
                continue
            seen.add(current.qname)
            if name in current.methods:
                return current.methods[name]
            summary = self.modules.get(current.module)
            for base_ref in current.bases:
                base_dotted = (
                    self._absolutize(summary, base_ref)
                    if summary is not None
                    else ".".join(base_ref)
                )
                kind, target = self.resolve(base_dotted)
                if kind == "class":
                    base_cls = self.classes.get(target)
                    if base_cls is not None:
                        stack.append(base_cls)
        return None

    # -- linking one function -----------------------------------------

    def link(self) -> CallGraph:
        for node in self.functions.values():
            self._link_function(node)
        return CallGraph(
            modules=self.modules,
            functions=self.functions,
            classes=self.classes,
        )

    def _class_of(self, node: FunctionNode) -> Optional[ClassInfo]:
        if node.info.kind != "method":
            return None
        class_qname = node.qname.rsplit(".", 1)[0]
        return self.classes.get(class_qname)

    def _link_function(self, node: FunctionNode) -> None:
        summary = self.modules.get(node.info.module)
        if summary is None:  # pragma: no cover - modules always present
            return
        cls = self._class_of(node)
        for decorator in node.info.decorators:
            self._link_decorator(node, summary, decorator)
        for call in node.info.calls:
            self._link_call(node, summary, cls, call)

    def _link_decorator(
        self, node: FunctionNode, summary: ModuleSummary, ref: CallRef
    ) -> None:
        dotted = self._absolutize(summary, ref.parts)
        kind, target = self.resolve(dotted)
        if target.rsplit(".", 1)[-1] == "cached_solve":
            fn_id = ""
            if ref.args and ref.args[0].kind == "str":
                fn_id = ref.args[0].text
            node.cached_fn_id = fn_id or node.info.name
        if kind == "function":
            # A resolved decorator wraps the function at import time;
            # record the edge so decorator effects are not lost.
            node.callees.append((target, ref.line))

    def _link_call(
        self,
        node: FunctionNode,
        summary: ModuleSummary,
        cls: Optional[ClassInfo],
        call: CallRef,
    ) -> None:
        if call.kind == "param":
            return  # injected dependency: explicitly sanctioned
        if call.kind == "opaque":
            node.unresolved.append(call)
            return
        if call.kind == "name":
            self._link_name_call(node, summary, call)
            return
        if call.kind == "dotted":
            self._link_dotted_call(node, summary, call)
            return
        if call.kind == "self":
            if cls is None:
                node.unresolved.append(call)
                return
            method = self._find_method(cls, call.parts[0])
            if method is not None:
                node.callees.append((method, call.line))
                return
            if call.parts[0] in cls.attr_ctors:
                self._link_attr_method(node, summary, cls, call, is_call=True)
                return
            # Injected attribute (self._rng, self._clock): treated like
            # a parameter — the dependency was threaded in explicitly.
            return
        if call.kind == "self-attr":
            if cls is None:
                node.unresolved.append(call)
                return
            self._link_attr_method(node, summary, cls, call, is_call=False)
            return
        if call.kind == "var":
            self._link_var_call(node, summary, call)
            return
        node.unresolved.append(call)

    def _link_name_call(
        self, node: FunctionNode, summary: ModuleSummary, call: CallRef
    ) -> None:
        name = call.parts[0]
        nested = self._enclosing_nested(node, name)
        if nested is not None:
            node.callees.append((nested, call.line))
            return
        target = self._lookup_in_module(summary, name)
        if target is not None:
            kind, resolved = self.resolve(target)
            self._record(node, call, kind, resolved)
            return
        if name in _BUILTIN_NAMES:
            return
        node.unresolved.append(call)

    def _enclosing_nested(
        self, node: FunctionNode, name: str
    ) -> Optional[str]:
        """Nested function *name* visible from *node*'s scope chain.

        Mirrors Python's lexical scoping: the function's own local
        scope (its directly nested defs) and enclosing *function*
        scopes are searched, class scopes are skipped (a method body
        cannot see sibling methods by bare name), and the walk stops
        before module scope (module-level defs are not "nested").
        """
        scope = node.qname
        while scope != node.info.module:
            if scope not in self.classes:
                candidate = f"{scope}.{name}"
                if candidate in self.functions:
                    return candidate
            if "." not in scope:
                return None
            scope = scope.rsplit(".", 1)[0]
        return None

    def _link_dotted_call(
        self, node: FunctionNode, summary: ModuleSummary, call: CallRef
    ) -> None:
        dotted = ".".join(call.parts)
        kind, resolved = self.resolve(dotted)
        self._record(node, call, kind, resolved)
        self._detect_partial_submission(node, summary, call, resolved)

    def _record(
        self, node: FunctionNode, call: CallRef, kind: str, target: str
    ) -> None:
        if kind == "function":
            node.callees.append((target, call.line))
            self._detect_direct_submission(node, call, target)
        elif kind == "class":
            cls = self.classes.get(target)
            init = self._find_method(cls, "__init__") if cls else None
            if init is not None:
                node.callees.append((init, call.line))
        elif kind == "external":
            node.external_calls.append((target, call.line))
        else:
            node.unresolved.append(call)

    # -- pool submissions ---------------------------------------------

    def _resolve_receiver_class(
        self, summary: ModuleSummary, ctor: Tuple[str, ...]
    ) -> Optional[str]:
        """Class name (last component) a constructor ref points at."""
        dotted = self._absolutize(summary, ctor)
        kind, target = self.resolve(dotted)
        if kind in ("class", "external", "unknown"):
            return target.rsplit(".", 1)[-1]
        return None

    def _link_var_call(
        self, node: FunctionNode, summary: ModuleSummary, call: CallRef
    ) -> None:
        recv_name, attr = call.parts
        ctor = call.recv_ctor or ()
        dotted = self._absolutize(summary, ctor) if ctor else ""
        kind, target = self.resolve(dotted) if dotted else ("unknown", "")
        if kind == "class":
            cls = self.classes.get(target)
            method = self._find_method(cls, attr) if cls else None
            if method is not None:
                node.callees.append((method, call.line))
            else:
                node.unresolved.append(call)
            if cls is not None and cls.name in _POOL_CLASSES:
                self._maybe_submission(node, call, attr)
            return
        if kind == "external":
            node.external_calls.append(
                (f"{target}.{attr}", call.line)
            )
            if target.rsplit(".", 1)[-1] in _POOL_CLASSES:
                self._maybe_submission(node, call, attr)
            return
        node.unresolved.append(call)

    def _link_attr_method(
        self,
        node: FunctionNode,
        summary: ModuleSummary,
        cls: ClassInfo,
        call: CallRef,
        *,
        is_call: bool,
    ) -> None:
        attr = call.parts[0]
        method_name = call.parts[0] if is_call else call.parts[1]
        if not is_call:
            attr = call.parts[0]
        ctor = cls.attr_ctors.get(attr)
        if ctor is None:
            # Injected attribute of unknown type: parameter-like.
            return
        class_name = self._resolve_receiver_class(summary, ctor)
        dotted = self._absolutize(summary, ctor)
        kind, target = self.resolve(dotted)
        if kind == "class":
            target_cls = self.classes.get(target)
            method = (
                self._find_method(target_cls, method_name)
                if target_cls
                else None
            )
            if method is not None:
                node.callees.append((method, call.line))
        if class_name in _POOL_CLASSES:
            self._maybe_submission(node, call, method_name)

    def _maybe_submission(
        self, node: FunctionNode, call: CallRef, method_name: str
    ) -> None:
        if method_name not in _POOL_METHODS or not call.args:
            return
        self._add_submission(
            node, call.line, f"pool.{method_name}", call.args[0]
        )

    def _detect_direct_submission(
        self, node: FunctionNode, call: CallRef, target: str
    ) -> None:
        """Calls straight to SupervisedPool.run/map_tasks by qname."""
        parts = target.rsplit(".", 2)
        if (
            len(parts) == 3
            and parts[1] in _POOL_CLASSES
            and parts[2] in _POOL_METHODS
            and call.args
        ):
            self._add_submission(
                node, call.line, f"pool.{parts[2]}", call.args[0]
            )

    def _detect_partial_submission(
        self,
        node: FunctionNode,
        summary: ModuleSummary,
        call: CallRef,
        resolved: str,
    ) -> None:
        """``functools.partial(self._pool.run, fn, …)`` submissions."""
        if resolved.rsplit(".", 1)[-1] != "partial" or len(call.args) < 2:
            return
        bound = call.args[0]
        if bound.kind != "dotted":
            return
        bound_parts = bound.text.split(".")
        if len(bound_parts) < 2 or bound_parts[-1] not in _POOL_METHODS:
            return
        receiver_is_pool = False
        if bound_parts[0] == "self" and len(bound_parts) == 3:
            cls = self._class_of(node)
            ctor = cls.attr_ctors.get(bound_parts[1]) if cls else None
            if ctor is not None:
                class_name = self._resolve_receiver_class(summary, ctor)
                receiver_is_pool = class_name in _POOL_CLASSES
        else:
            dotted = self._absolutize(summary, tuple(bound_parts[:-1]))
            kind, target = self.resolve(dotted)
            receiver_is_pool = (
                target.rsplit(".", 1)[-1] in _POOL_CLASSES
            )
        if receiver_is_pool:
            self._add_submission(
                node,
                call.line,
                f"pool.{bound_parts[-1]} (via functools.partial)",
                call.args[1],
            )

    def _add_submission(
        self, node: FunctionNode, line: int, api: str, ref: ArgRef
    ) -> None:
        verdict, detail = self._classify_submitted(node, ref)
        node.submissions.append(
            Submission(
                line=line,
                api=api,
                verdict=verdict,
                detail=detail,
            )
        )

    def _classify_submitted(
        self, node: FunctionNode, ref: ArgRef
    ) -> Tuple[str, str]:
        """Can this argument expression be pickled by importable name?"""
        if ref.kind == "lambda":
            return ("violation", "a lambda cannot be pickled")
        if ref.kind in ("name", "dotted"):
            return self._classify_named(node, ref)
        return (
            "violation",
            "cannot statically prove the submitted callable is a "
            "picklable module-level function",
        )

    def _classify_named(
        self, node: FunctionNode, ref: ArgRef
    ) -> Tuple[str, str]:
        summary = self.modules.get(node.info.module)
        name = ref.text
        if ref.kind == "name":
            if name in node.info.params:
                # Forwarding wrapper: checked at its own call sites.
                return ("param", f"parameter {name!r} forwarded")
            if self._enclosing_nested(node, name) is not None:
                return (
                    "violation",
                    f"{name!r} is a nested function (closure); "
                    "worker processes cannot unpickle it",
                )
            target = (
                self._lookup_in_module(summary, name) if summary else None
            )
            if target is None:
                return (
                    "violation",
                    f"{name!r} is not a module-level binding; only "
                    "importable module-level functions survive pickling",
                )
            kind, resolved = self.resolve(target)
        else:
            dotted = (
                self._absolutize(summary, tuple(name.split(".")))
                if summary
                else name
            )
            kind, resolved = self.resolve(dotted)
        if kind == "function":
            fn = self.functions[resolved]
            if fn.info.kind == "lambda":
                return (
                    "violation",
                    f"{name!r} resolves to a lambda ({resolved}); "
                    "lambdas pickle by qualname '<lambda>' and fail",
                )
            if fn.info.kind == "nested":
                return (
                    "violation",
                    f"{name!r} resolves to the nested function "
                    f"{resolved}, which workers cannot unpickle",
                )
            return ("ok", resolved)
        if kind in ("class", "external"):
            return ("ok", resolved)
        return (
            "violation",
            f"cannot resolve {name!r} to a module-level callable",
        )


def build_call_graph(modules: Dict[str, ModuleSummary]) -> CallGraph:
    """Link per-module summaries into one whole-program call graph."""
    return _Linker(modules).link()
