"""Unit tests for per-module extraction (:mod:`repro.analysis.graph.symbols`)."""

import json
import textwrap

from repro.analysis.graph import Effect, extract_module
from repro.store import decode_value, encode_value


def _extract(source, module="m", path="m.py"):
    return extract_module(module, path, textwrap.dedent(source))


def _effects_of(summary, qname):
    return {o.effect for o in summary.functions[qname].effects if not o.waived}


# -- import aliases ----------------------------------------------------


def test_plain_import_alias():
    s = _extract("import numpy as np\n")
    assert s.imports["np"] == "numpy"


def test_from_import_alias():
    s = _extract("from x.y import f as g\n")
    assert s.imports["g"] == "x.y.f"


def test_relative_import_resolves_against_package():
    s = _extract(
        "from .helpers import knob\n", module="pkg.solver", path="pkg/solver.py"
    )
    assert s.imports["knob"] == "pkg.helpers.knob"


def test_relative_import_from_init_resolves_against_self():
    s = _extract(
        "from .core import run\n", module="pkg", path="pkg/__init__.py"
    )
    assert s.imports["run"] == "pkg.core.run"


# -- effect detection --------------------------------------------------


def test_clock_via_time_module():
    s = _extract(
        """
        import time

        def f():
            return time.perf_counter()
        """
    )
    assert _effects_of(s, "m.f") == {Effect.CLOCK}


def test_clock_via_datetime_now():
    s = _extract(
        """
        from datetime import datetime

        def f():
            return datetime.now()
        """
    )
    assert _effects_of(s, "m.f") == {Effect.CLOCK}


def test_rng_via_aliased_numpy():
    s = _extract(
        """
        import numpy as np

        def f():
            return np.random.default_rng()
        """
    )
    assert _effects_of(s, "m.f") == {Effect.RNG}


def test_rng_via_from_import_alias():
    s = _extract(
        """
        from numpy.random import default_rng as mk

        def f():
            return mk()
        """
    )
    assert _effects_of(s, "m.f") == {Effect.RNG}


def test_env_via_environ_subscript():
    s = _extract(
        """
        import os

        def f():
            return os.environ["KNOB"]
        """
    )
    assert _effects_of(s, "m.f") == {Effect.ENV}


def test_filesystem_via_open_builtin():
    s = _extract(
        """
        def f(p):
            with open(p) as fh:
                return fh.read()
        """
    )
    assert Effect.FILESYSTEM in _effects_of(s, "m.f")


def test_global_mutation_via_global_statement():
    s = _extract(
        """
        _COUNT = 0

        def f():
            global _COUNT
            _COUNT += 1
        """
    )
    assert Effect.GLOBAL_MUTATION in _effects_of(s, "m.f")


def test_global_mutation_via_module_level_container():
    s = _extract(
        """
        _CACHE = {}

        def f(k, v):
            _CACHE[k] = v
        """
    )
    assert Effect.GLOBAL_MUTATION in _effects_of(s, "m.f")


def test_local_container_mutation_is_not_global():
    s = _extract(
        """
        def f(k, v):
            d = {}
            d[k] = v
            return d
        """
    )
    assert _effects_of(s, "m.f") == set()


def test_stdout_via_print():
    s = _extract(
        """
        def f():
            print("hi")
        """
    )
    assert _effects_of(s, "m.f") == {Effect.STDOUT}


def test_unknown_for_opaque_method():
    # A receiver the extractor cannot type (a call expression) with a
    # method outside the benign vocabulary is the conservative UNKNOWN.
    s = _extract(
        """
        def f():
            return make().solve_somehow()
        """
    )
    assert Effect.UNKNOWN in _effects_of(s, "m.f")


def test_param_receiver_is_sanctioned():
    # Injected dependencies carry no effect: the caller threaded them in.
    s = _extract(
        """
        def f(x):
            return x.solve_somehow()
        """
    )
    assert _effects_of(s, "m.f") == set()


# -- waivers -----------------------------------------------------------


def test_noqa_waives_clock_origin():
    s = _extract(
        """
        import time

        def f():
            return time.time()  # repro: noqa[DET001]
        """
    )
    origins = s.functions["m.f"].effects
    assert [o.waived for o in origins] == [True]
    assert _effects_of(s, "m.f") == set()


def test_unrelated_noqa_does_not_waive():
    s = _extract(
        """
        import time

        def f():
            return time.time()  # repro: noqa[PROB001]
        """
    )
    assert _effects_of(s, "m.f") == {Effect.CLOCK}


def test_docstring_directive_text_is_inert():
    s = _extract(
        '''
        import time

        def f():
            """Mentions # repro: noqa[DET001] in prose only."""
            return time.time()
        '''
    )
    assert _effects_of(s, "m.f") == {Effect.CLOCK}


# -- structure ---------------------------------------------------------


def test_param_receiver_calls_are_param_kind():
    s = _extract(
        """
        def f(rng):
            return rng.normal()
        """
    )
    (call,) = s.functions["m.f"].calls
    assert call.kind == "param"


def test_cached_solve_decorator_is_recorded():
    s = _extract(
        """
        from repro.store import cached_solve

        @cached_solve("my_id")
        def f(x):
            return x
        """
    )
    (dec,) = s.functions["m.f"].decorators
    assert dec.parts == ("cached_solve",)
    assert dec.args[0].kind == "str"
    assert dec.args[0].text == "my_id"


def test_dataclass_detection_and_method_table():
    s = _extract(
        """
        from dataclasses import dataclass

        @dataclass
        class Model:
            rate: float

            def solve(self):
                return self.rate
        """
    )
    cls = s.classes["m.Model"]
    assert cls.is_dataclass
    assert cls.methods["solve"] == "m.Model.solve"
    assert s.functions["m.Model.solve"].kind == "method"


def test_self_attr_ctor_is_recorded():
    s = _extract(
        """
        from repro.parallel import SupervisedPool

        class Runner:
            def __init__(self):
                self._pool = SupervisedPool(4)
        """
    )
    cls = s.classes["m.Runner"]
    assert cls.attr_ctors["_pool"] == ("SupervisedPool",)


def test_nested_function_gets_own_node():
    s = _extract(
        """
        def outer():
            def inner():
                return 1
            return inner()
        """
    )
    assert s.functions["m.outer.inner"].kind == "nested"


def test_summary_json_round_trip():
    s = _extract(
        """
        import time
        from dataclasses import dataclass

        _REGISTRY = {}

        @dataclass
        class Model:
            rate: float

            def solve(self):
                return helper(self.rate)

        def helper(x):
            _REGISTRY[x] = time.time()
            return x
        """
    )
    # Summaries are cached through the store's generic dataclass codec.
    payload, arrays = encode_value(s)
    restored = decode_value(json.loads(json.dumps(payload)), arrays)
    assert restored == s
