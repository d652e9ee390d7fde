"""Canonical-key determinism and collision resistance."""

import dataclasses
import gc
import inspect
import weakref

import numpy as np
import pytest

from repro.bounds.deletion import BlockBoundResult
from repro.numerics import SolverStatus
from repro.simulation.runner import _SweepTrial
from repro.store import (
    UnsupportedParameterError,
    callable_fingerprint,
    canonical_bytes,
    canonical_key,
    code_fingerprint,
)


def test_dict_order_is_normalized():
    a = canonical_bytes({"x": 1, "y": 2.5, "z": "s"})
    b = canonical_bytes({"z": "s", "y": 2.5, "x": 1})
    assert a == b


def test_scalar_types_do_not_collide():
    encodings = [
        canonical_bytes(v)
        for v in (1, 1.0, True, "1", b"1", None, np.float64(1.0))
    ]
    # int/float/bool/str/bytes/None are all distinct; np.float64 equals
    # the plain float it represents.
    assert encodings[1] == encodings[6]
    distinct = encodings[:6]
    assert len(set(distinct)) == len(distinct)


def test_list_and_tuple_are_interchangeable():
    assert canonical_bytes([1, 2.0, "x"]) == canonical_bytes((1, 2.0, "x"))


def test_nan_is_canonical():
    assert canonical_bytes(float("nan")) == canonical_bytes(np.float64("nan"))
    assert canonical_bytes(float("inf")) != canonical_bytes(float("-inf"))


def test_arrays_key_on_dtype_shape_and_content():
    base = np.arange(6, dtype=np.float64)
    assert canonical_bytes(base) == canonical_bytes(base.copy())
    assert canonical_bytes(base) != canonical_bytes(base.astype(np.float32))
    assert canonical_bytes(base) != canonical_bytes(base.reshape(2, 3))
    bumped = base.copy()
    bumped[3] += 1e-12
    assert canonical_bytes(base) != canonical_bytes(bumped)


def test_dataclass_and_enum_encode():
    result = BlockBoundResult(
        block_length=4,
        lower_bound=0.2,
        status=SolverStatus.CONVERGED,
    )
    a = canonical_bytes(result)
    assert a == canonical_bytes(dataclasses.replace(result))
    assert a != canonical_bytes(
        dataclasses.replace(result, status=SolverStatus.STALLED)
    )


def test_unsupported_values_raise():
    with pytest.raises(UnsupportedParameterError):
        canonical_bytes(object())
    with pytest.raises(UnsupportedParameterError):
        canonical_bytes({"fn": lambda: None})


def test_canonical_key_sensitivity():
    params = {"args": [1, 0.5], "kwargs": {}}
    base = canonical_key("solver", params)
    assert base == canonical_key("solver", params)
    assert base != canonical_key("other_solver", params)
    assert base != canonical_key("solver", {"args": [1, 0.6], "kwargs": {}})
    assert base != canonical_key("solver", params, code_fingerprint="abc123")


def test_code_fingerprint_tracks_source():
    def f(x):
        return x + 1

    def g(x):
        return x + 2

    assert code_fingerprint(f) == code_fingerprint(f)
    assert code_fingerprint(f) != code_fingerprint(g)


def test_code_fingerprint_is_memoised_without_pinning(monkeypatch):
    def f(x):
        return x + 3

    first = code_fingerprint(f)

    def no_source(obj):
        raise AssertionError("source re-read for a fingerprinted function")

    monkeypatch.setattr(inspect, "getsource", no_source)
    assert code_fingerprint(f) == first
    # The cache holds its keys weakly: it never keeps a function alive.
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_callable_fingerprint_functions_and_sweep_trials():
    def trial(rng, value):
        return {"m": value}

    fp = callable_fingerprint(trial)
    assert fp is not None and fp["kind"] == "function"

    bound = _SweepTrial(trial, 0.25)
    bound_fp = callable_fingerprint(bound)
    assert bound_fp is not None
    assert bound_fp["fields"]["value"] == 0.25
    assert bound_fp["fields"]["trial"] == fp
    # A different swept value changes the fingerprint.
    assert callable_fingerprint(_SweepTrial(trial, 0.5)) != bound_fp


def test_callable_fingerprint_rejects_exotic_callables():
    class Weird:
        def __call__(self):
            return None

    assert callable_fingerprint(Weird()) is None
