"""Content-addressed result store: cross-run caching with provenance.

Every expensive solve in this package — Blahut-Arimoto capacity
iterations, timed-DMC solves, finite-block deletion/indel
bounds, Davey-MacKay lattice decodes — is a pure function of its
parameters. This subsystem makes that purity pay: results are stored
on disk under a canonical content address
(:func:`canonical_key` over the solver id, its parameters, a source
fingerprint of the solver, and the package version), so a rerun of a
bounds grid, a sweep, or a whole experiment after touching unrelated
code costs directory lookups instead of solver iterations.

Pieces:

* :mod:`.keys` — canonical parameter hashing and per-function
  :func:`code_fingerprint` (source edits invalidate stale entries
  automatically);
* :mod:`.serialization` — tagged JSON + ``npz`` payload codecs for
  solver result dataclasses and numpy arrays;
* :mod:`.result_store` — :class:`ResultStore`: atomic-rename writes
  (idempotent under concurrent writers, no locks), per-entry
  provenance manifests, ``gc``/``verify``/``stats`` maintenance;
* :mod:`.memo` — the memo protocol every store consumer speaks
  (:func:`lookup` reads, :func:`publish` writes, :func:`cached_batch`
  and :func:`cached_solve` are built on them) and the active-store
  registry (explicit handles or ``REPRO_STORE_DIR``), with
  hit/miss/bypass events recorded through
  :mod:`repro.numerics.telemetry`
  (:func:`repro.numerics.collect_store_events`).

Caching is opt-in and observability-neutral: with no active store the
decorated solvers are bit-exact pass-throughs. The experiment runner
layers the store *on top of* its checkpoint protocol — checkpoints
resume one interrupted run, the store shares finished solves across
runs. The CLI surface is ``repro store {ls,inspect,gc,verify,stats}``;
see ``docs/store.md`` for keying rules, invalidation semantics, and
the GC policy.
"""

from .keys import (
    UnsupportedParameterError,
    callable_fingerprint,
    canonical_bytes,
    canonical_key,
    code_fingerprint,
)
from .memo import (
    active_store,
    cached_batch,
    cached_solve,
    lookup,
    publish,
    record_cache_event,
    resolve_store,
    use_store,
)
from .result_store import (
    ResultStore,
    StoreEntry,
    StoreError,
    StoreStats,
    VerifyIssue,
)
from .serialization import SerializationError, decode_value, encode_value

__all__ = [
    "UnsupportedParameterError",
    "callable_fingerprint",
    "canonical_bytes",
    "canonical_key",
    "code_fingerprint",
    "active_store",
    "cached_batch",
    "cached_solve",
    "lookup",
    "publish",
    "record_cache_event",
    "resolve_store",
    "use_store",
    "ResultStore",
    "StoreEntry",
    "StoreError",
    "StoreStats",
    "VerifyIssue",
    "SerializationError",
    "decode_value",
    "encode_value",
]
