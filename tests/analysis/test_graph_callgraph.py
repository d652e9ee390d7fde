"""Unit tests for cross-module linking and the transitive effect closure."""

import textwrap

from repro.analysis.graph import (
    Effect,
    build_call_graph,
    extract_module,
    format_witness,
    transitive_effects,
    witness_chain,
)


def _graph(**sources):
    """Build a call graph from ``module_name="source"`` kwargs.

    Dots in module names are spelled as ``__`` in the kwarg (Python
    identifiers cannot contain dots).
    """
    modules = {}
    for key, source in sources.items():
        module = key.replace("__", ".")
        summary = extract_module(
            module, module.replace(".", "/") + ".py", textwrap.dedent(source)
        )
        modules[module] = summary
    return build_call_graph(modules)


def _callees(graph, qname):
    return {name for name, _line in graph.functions[qname].callees}


# -- alias and re-export resolution ------------------------------------


def test_from_import_alias_resolves_across_modules():
    g = _graph(
        pkg__a="""
        def f():
            return 1
        """,
        pkg__b="""
        from pkg.a import f as g

        def caller():
            return g()
        """,
    )
    assert _callees(g, "pkg.b.caller") == {"pkg.a.f"}


def test_reexport_chain_resolves_through_init():
    g = _graph(
        pkg="""
        from pkg.impl import solve
        """,
        pkg__impl="""
        def solve():
            return 1
        """,
        pkg__user="""
        import pkg

        def caller():
            return pkg.solve()
        """,
    )
    assert _callees(g, "pkg.user.caller") == {"pkg.impl.solve"}


def test_cyclic_reexports_terminate_as_unknown():
    g = _graph(
        pkg__a="""
        from pkg.b import thing
        """,
        pkg__b="""
        from pkg.a import thing
        """,
        pkg__user="""
        from pkg.a import thing

        def caller():
            return thing()
        """,
    )
    node = g.functions["pkg.user.caller"]
    assert node.callees == []
    assert len(node.unresolved) == 1


# -- method dispatch ---------------------------------------------------


def test_method_dispatch_on_dataclass_local():
    g = _graph(
        pkg__model="""
        from dataclasses import dataclass

        @dataclass
        class Model:
            rate: float

            def solve(self):
                return self.rate
        """,
        pkg__use="""
        from pkg.model import Model

        def caller():
            m = Model(0.5)
            return m.solve()
        """,
    )
    assert _callees(g, "pkg.use.caller") == {"pkg.model.Model.solve"}


def test_self_method_dispatch_walks_bases():
    g = _graph(
        pkg__base="""
        class Base:
            def shared(self):
                return 1
        """,
        pkg__child="""
        from pkg.base import Base

        class Child(Base):
            def caller(self):
                return self.shared()
        """,
    )
    assert _callees(g, "pkg.child.Child.caller") == {"pkg.base.Base.shared"}


def test_own_nested_function_is_linked_not_unresolved():
    g = _graph(
        pkg__m="""
        def outer():
            def inner():
                return 1
            return inner()
        """,
    )
    node = g.functions["pkg.m.outer"]
    assert _callees(g, "pkg.m.outer") == {"pkg.m.outer.inner"}
    assert node.unresolved == []


def test_bare_name_skips_class_scope():
    # A method body cannot see a sibling method by bare name; the call
    # must fall through to the module-level function of that name.
    g = _graph(
        pkg__m="""
        def helper():
            return 1

        class C:
            def helper(self):
                return 2

            def caller(self):
                return helper()
        """,
    )
    assert _callees(g, "pkg.m.C.caller") == {"pkg.m.helper"}


# -- decorators --------------------------------------------------------


def test_cached_solve_decorator_sets_fn_id():
    g = _graph(
        pkg__s="""
        from repro.store import cached_solve

        @cached_solve("my_id")
        def solve(x):
            return x
        """,
    )
    assert g.functions["pkg.s.solve"].cached_fn_id == "my_id"


def test_cached_solve_without_id_defaults_to_name():
    g = _graph(
        pkg__s="""
        from repro.store import cached_solve

        @cached_solve()
        def solve(x):
            return x
        """,
    )
    assert g.functions["pkg.s.solve"].cached_fn_id == "solve"


def test_functools_wraps_decorator_links_to_wrapper():
    # A local decorator's effects must not be lost: the decorated
    # function gets an edge to the decorator function itself.
    g = _graph(
        pkg__d="""
        import functools
        import time

        def timed(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                return fn(*args, **kwargs)
            return wrapper

        @timed
        def work(x):
            return x
        """,
    )
    assert "pkg.d.timed" in _callees(g, "pkg.d.work")
    closure = transitive_effects(g)
    # work -> timed -> (nested wrapper defines the clock read; the
    # wrapper itself is a separate node reached via timed's body only
    # if timed calls it — it does not, so CLOCK stays on the wrapper).
    assert Effect.CLOCK in closure["pkg.d.timed.wrapper"]


# -- submissions -------------------------------------------------------


def _submissions(graph, qname):
    return graph.functions[qname].submissions


def test_submission_verdicts():
    g = _graph(
        pkg__tasks="""
        def square(x):
            return x * x
        """,
        pkg__driver="""
        from concurrent.futures import ProcessPoolExecutor

        from pkg.tasks import square

        def ok(values):
            pool = ProcessPoolExecutor(2)
            return pool.submit(square, values)

        def bad_lambda(values):
            pool = ProcessPoolExecutor(2)
            return pool.submit(lambda v: v, values)

        def bad_nested(values):
            def helper(v):
                return v
            pool = ProcessPoolExecutor(2)
            return pool.submit(helper, values)

        def forwards(fn, values):
            pool = ProcessPoolExecutor(2)
            return pool.submit(fn, values)
        """,
    )
    (ok,) = _submissions(g, "pkg.driver.ok")
    assert ok.verdict == "ok"
    (lam,) = _submissions(g, "pkg.driver.bad_lambda")
    assert lam.verdict == "violation"
    assert "lambda" in lam.detail
    (nested,) = _submissions(g, "pkg.driver.bad_nested")
    assert nested.verdict == "violation"
    assert "nested" in nested.detail
    (fwd,) = _submissions(g, "pkg.driver.forwards")
    assert fwd.verdict == "param"


def test_self_attr_pool_submission_detected():
    g = _graph(
        pkg__r="""
        from concurrent.futures import ProcessPoolExecutor

        def work(x):
            return x

        class Runner:
            def __init__(self):
                self._pool = ProcessPoolExecutor(2)

            def go(self):
                return self._pool.submit(work, 1)
        """,
    )
    (sub,) = _submissions(g, "pkg.r.Runner.go")
    assert sub.verdict == "ok"
    assert sub.api == "pool.submit"


# -- effect closure and witnesses --------------------------------------


def test_closure_propagates_through_cycle():
    g = _graph(
        pkg__m="""
        import time

        def stamp():
            return time.time()

        def poll(n):
            if n <= 0:
                return stamp()
            return wait(n - 1)

        def wait(n):
            return poll(n)
        """,
    )
    closure = transitive_effects(g)
    assert Effect.CLOCK in closure["pkg.m.poll"]
    assert Effect.CLOCK in closure["pkg.m.wait"]


def test_waived_origin_not_propagated():
    g = _graph(
        pkg__m="""
        import time

        def budget():
            return time.monotonic()  # repro: noqa[DET001]

        def caller():
            return budget()
        """,
    )
    closure = transitive_effects(g)
    assert closure["pkg.m.caller"] == frozenset()


def test_witness_chain_is_shortest_and_renders():
    g = _graph(
        pkg__m="""
        import os

        def leaf():
            return os.environ["X"]

        def middle():
            return leaf()

        def top():
            return middle()
        """,
    )
    closure = transitive_effects(g)
    steps = witness_chain(g, "pkg.m.top", Effect.ENV, closure)
    assert [s.qname for s in steps] == [
        "pkg.m.top",
        "pkg.m.middle",
        "pkg.m.leaf",
    ]
    rendered = format_witness(steps, g)
    assert "pkg.m.top" in rendered
    assert "os.environ[...]" in rendered


def test_witness_chain_none_when_unreachable():
    g = _graph(
        pkg__m="""
        def pure(x):
            return x + 1
        """,
    )
    closure = transitive_effects(g)
    assert witness_chain(g, "pkg.m.pure", Effect.CLOCK, closure) is None
