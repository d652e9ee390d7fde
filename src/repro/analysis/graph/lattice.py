"""The effect lattice: what a function may do besides compute.

Effect sets form a powerset lattice over :class:`Effect` — the join is
set union, bottom is the empty set (a pure function), and the top is
every effect at once. The transitive-closure pass in
:mod:`.effects` is a monotone fixpoint over this lattice, so cyclic
call graphs (mutual recursion) converge in finitely many rounds.

:attr:`Effect.UNKNOWN` is the conservative element: a call whose
callee the graph cannot resolve (an opaque method on an untyped local,
a dynamically chosen function) *may* do anything. The GRAPH rules do
not fail on UNKNOWN alone — that would drown real findings in noise
from every ``obj.helper()`` — but the element is tracked, propagated,
and surfaced by ``repro graph effects`` so reviewers can see exactly
where the proof has holes.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Tuple

__all__ = [
    "Effect",
    "EffectSet",
    "EMPTY_EFFECTS",
    "WAIVER_RULES",
    "effect_from_tag",
]


class Effect(str, enum.Enum):
    """One observable side effect class (lattice atom)."""

    #: Constructs a random generator (``default_rng``/``make_rng``/
    #: ``Generator``) or touches legacy global RNG state. *Using* a
    #: generator received as a parameter is not an effect — explicit
    #: RNG threading is the sanctioned pattern.
    RNG = "rng"
    #: Reads the wall clock (``time.time``/``monotonic``/
    #: ``datetime.now`` …).
    CLOCK = "clock"
    #: Touches the filesystem (``open``, ``Path.read_text``,
    #: ``os.remove``, ``shutil`` …).
    FILESYSTEM = "filesystem"
    #: Reads or writes process environment variables.
    ENV = "env"
    #: Network access (``socket``/``urllib``/``http`` …).
    NETWORK = "network"
    #: Mutates module-global or enclosing-scope state (``global``/
    #: ``nonlocal``, assignment or mutating method calls on
    #: module-level names).
    GLOBAL_MUTATION = "global_mutation"
    #: Writes to stdout (``print``).
    STDOUT = "stdout"
    #: Called something the call graph could not resolve; the function
    #: *may* have any effect.
    UNKNOWN = "unknown"


EffectSet = FrozenSet[Effect]

EMPTY_EFFECTS: EffectSet = frozenset()


#: File-local rule ids whose ``# repro: noqa[...]`` directive on an
#: effect's origin line *waives* that origin from graph propagation.
#: A site the file-local linter has vetted (e.g. the runner's budget
#: clock behind ``noqa[DET001]``) is an audited boundary, not a leak —
#: without this, every experiment would transitively "read the clock"
#: through the wall-clock budget and GRAPH003 would be pure noise.
#: The GRAPH ids themselves are accepted everywhere so an origin can
#: be waived for the graph pass without silencing the file-local rule.
WAIVER_RULES: Dict[Effect, Tuple[str, ...]] = {
    Effect.RNG: ("RNG001", "RNG002", "RNG004", "GRAPH001"),
    Effect.CLOCK: ("DET001", "GRAPH001", "GRAPH003"),
    Effect.FILESYSTEM: ("GRAPH001",),
    Effect.ENV: ("GRAPH001",),
    Effect.NETWORK: ("GRAPH001",),
    Effect.GLOBAL_MUTATION: ("GRAPH001",),
    Effect.STDOUT: ("GRAPH001",),
    Effect.UNKNOWN: (),
}

_BY_TAG = {effect.value: effect for effect in Effect}


def effect_from_tag(tag: str) -> Effect:
    """Inverse of ``Effect.value`` (used when decoding cached summaries).

    Raises
    ------
    KeyError
        If *tag* names no effect — a cache written by an incompatible
        analyzer version (the schema fingerprint should prevent this).
    """
    return _BY_TAG[tag]
