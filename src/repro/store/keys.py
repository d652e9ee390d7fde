"""Deterministic cache keys: canonical serialization + code fingerprints.

A store key must be a pure function of *what is being computed*: the
solver identity, its parameters, and the code that implements it.
:func:`canonical_bytes` defines one canonical byte encoding for the
parameter values that appear in this package's solver signatures —
numbers, strings, sequences, mappings, numpy arrays, dataclasses,
enums — with type tags and length prefixes so distinct values can
never collide by concatenation. :func:`canonical_key` hashes that
encoding together with the function id, the per-function
:func:`code_fingerprint` (a source hash, so editing a cached solver
automatically invalidates its entries), and the package version.

Anything outside the canonical vocabulary raises
:class:`UnsupportedParameterError`; the memoization layer treats that
as a *bypass* (compute without caching) rather than guessing a key.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import inspect
import textwrap
import weakref
from typing import Any, Callable, Dict, Optional

import numpy as np

from .._version import PACKAGE_VERSION

__all__ = [
    "UnsupportedParameterError",
    "canonical_bytes",
    "canonical_key",
    "code_fingerprint",
    "callable_fingerprint",
]

#: Bump when the canonical encoding itself changes; part of every key,
#: so an encoding change orphans (rather than mis-reads) old entries.
KEY_SCHEMA_VERSION = 1


class UnsupportedParameterError(TypeError):
    """A parameter value has no canonical byte encoding."""


def _encode(value: Any, out: list) -> None:
    # Enums before scalars: mixin enums (e.g. str-based SolverStatus)
    # must key on their enum identity, not collide with plain strings.
    if isinstance(value, enum.Enum):
        cls = type(value)
        out.append(f"E{cls.__module__}.{cls.__qualname__}:".encode("ascii"))
        _encode(value.value, out)
    elif value is None:
        out.append(b"N;")
    elif isinstance(value, (bool, np.bool_)):
        out.append(b"B1;" if value else b"B0;")
    elif isinstance(value, (int, np.integer)):
        out.append(b"I%d;" % int(value))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        if np.isnan(v):
            out.append(b"Fnan;")  # one canonical NaN, payload ignored
        else:
            out.append(b"F" + np.float64(v).tobytes() + b";")
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"S%d:" % len(raw))
        out.append(raw)
    elif isinstance(value, bytes):
        out.append(b"Y%d:" % len(value))
        out.append(value)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        head = f"A{arr.dtype.str}{arr.shape}".encode("ascii")
        out.append(head + b":")
        out.append(arr.tobytes())
    elif isinstance(value, (list, tuple)):
        # Lists and tuples encode identically: they are interchangeable
        # spellings of the same parameter sequence.
        out.append(b"L%d:" % len(value))
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        items = []
        for k, v in value.items():
            k_out: list = []
            _encode(k, k_out)
            v_out: list = []
            _encode(v, v_out)
            items.append((b"".join(k_out), b"".join(v_out)))
        items.sort()
        out.append(b"D%d:" % len(items))
        for k_bytes, v_bytes in items:
            out.append(k_bytes)
            out.append(v_bytes)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        out.append(f"C{cls.__module__}.{cls.__qualname__}:".encode("ascii"))
        _encode(
            {f.name: getattr(value, f.name) for f in dataclasses.fields(value)},
            out,
        )
    else:
        raise UnsupportedParameterError(
            f"no canonical encoding for {type(value).__name__!r} value "
            f"{value!r}"
        )


def canonical_bytes(value: Any) -> bytes:
    """Canonical, collision-resistant byte encoding of *value*.

    Deterministic across processes and platforms for the supported
    vocabulary (dict ordering is normalized by sorting on encoded
    keys). Raises :class:`UnsupportedParameterError` for anything
    outside it.
    """
    out: list = []
    _encode(value, out)
    return b"".join(out)


def canonical_key(
    fn_id: str,
    params: Any,
    *,
    code_fingerprint: str = "",
) -> str:
    """Content address for one solve: sha256 over the canonical tuple
    ``(key schema, package version, fn_id, code fingerprint, params)``.

    The code fingerprint salts the key so a source edit to the cached
    function orphans all of its stale entries; the package version
    guards against cross-version payload drift.
    """
    payload = canonical_bytes(
        {
            "schema": KEY_SCHEMA_VERSION,
            "package": PACKAGE_VERSION,
            "fn_id": fn_id,
            "code": code_fingerprint,
            "params": params,
        }
    )
    return hashlib.sha256(payload).hexdigest()


#: Fingerprints by callable object. Weak keys, so a cached fingerprint
#: never keeps a closure alive.
_FINGERPRINTS: "weakref.WeakKeyDictionary[Any, str]" = weakref.WeakKeyDictionary()


def code_fingerprint(fn: Callable[..., Any]) -> str:
    """Short hash of a callable's source code.

    Any textual edit (including comments — conservatively safe)
    changes the fingerprint, which changes every key salted with it.
    Falls back to hashing the compiled bytecode when source is
    unavailable (REPL definitions, frozen imports). Memoised per
    callable object: a function's code cannot change after it is
    defined, so only its first call reads and hashes the source.
    """
    try:
        return _FINGERPRINTS[fn]
    except (KeyError, TypeError):  # TypeError: fn has no weak references
        pass
    target = inspect.unwrap(fn)
    try:
        source = textwrap.dedent(inspect.getsource(target))
        raw = source.encode("utf-8")
    except (OSError, TypeError):
        code = getattr(target, "__code__", None)
        if code is None:
            raise UnsupportedParameterError(
                f"cannot fingerprint {fn!r}: no source and no code object"
            )
        raw = code.co_code + repr(code.co_consts).encode("utf-8")
    fingerprint = hashlib.sha256(raw).hexdigest()[:16]
    try:
        _FINGERPRINTS[fn] = fingerprint
    except TypeError:
        pass
    return fingerprint


def callable_fingerprint(obj: Any) -> Optional[Dict[str, Any]]:
    """Identity-plus-code fingerprint of a trial callable, or ``None``.

    Supports the callables the experiment runner actually dispatches:
    plain functions and picklable dataclass callables (e.g. the
    runner's sweep binding), recursing into callable fields. Returns
    ``None`` for anything else (lambdas defined in closures still
    fingerprint via their code; exotic callables bypass the store).
    """
    if inspect.isfunction(obj) or inspect.ismethod(obj):
        try:
            return {
                "kind": "function",
                "name": f"{obj.__module__}.{obj.__qualname__}",
                "code": code_fingerprint(obj),
            }
        except UnsupportedParameterError:
            return None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type) and callable(obj):
        cls = type(obj)
        try:
            class_code = code_fingerprint(cls.__call__)
        except (UnsupportedParameterError, AttributeError):
            return None
        fields: Dict[str, Any] = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if callable(value):
                inner = callable_fingerprint(value)
                if inner is None:
                    return None
                fields[f.name] = inner
            else:
                fields[f.name] = value
        return {
            "kind": "dataclass_callable",
            "name": f"{cls.__module__}.{cls.__qualname__}",
            "code": class_code,
            "fields": fields,
        }
    return None
