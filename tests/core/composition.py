"""Composition laws for non-synchronous channels.

When a covert symbol crosses *several* non-synchronous stages — e.g.
the scheduler-shaped storage channel of §3.1 feeding the packet network
of the E13 scenario — the stages compose. For noiseless
deletion-insertion stages applied in series (each stage treats its
input queue per Definition 1):

* **deletions compound multiplicatively in survival**: a symbol survives
  ``k`` stages with probability ``prod (1 - P_d^{(s)})``;
* **insertions accumulate**: spurious symbols injected at stage ``s``
  are then *thinned* by the deletions of the later stages, so the
  composite insertion load is
  ``sum_s r_i^{(s)} * prod_{s' > s} (1 - P_d^{(s')})`` insertions per
  surviving input symbol, where ``r_i^{(s)} = P_i / P_t`` is stage
  ``s``'s insertions-per-consumed-symbol ratio.

:func:`compose_parameters` reduces a chain of stages to a single
equivalent :class:`~repro.core.events.ChannelParameters`;
:func:`composite_erasure_bound` applies Theorem 1 to the composite.
The data-processing sanity — composing can never raise the erasure
bound — is exposed as :func:`composition_is_degrading` and verified by
simulation in the test suite. No experiment runs these laws; they live
here with their tests.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.capacity import erasure_upper_bound
from repro.core.events import ChannelParameters
from repro.infotheory.probability import is_zero

__all__ = [
    "compose_parameters",
    "composite_erasure_bound",
    "composition_is_degrading",
]


def compose_parameters(
    stages: Sequence[ChannelParameters],
) -> ChannelParameters:
    """Equivalent single-stage parameters for noiseless stages in series.

    The composite is expressed per channel use of the *equivalent*
    Definition-1 channel: with survival ``S = prod (1 - P_d^{(s)})``
    and composite insertion load ``R`` (insertions per consumed input
    symbol, already thinned by downstream deletions),

        P_t' = S / (1 + R'),   P_d' = (1 - S) / (1 + R'),
        P_i' = R' / (1 + R')   with R' = R

    — i.e. normalize (survive, die, spurious) per consumed symbol back
    into per-use probabilities.

    Raises
    ------
    ValueError
        If any stage is noisy (``P_s != 0``; substitution composition
        depends on alphabet details) or never consumes input.
    """
    if not stages:
        raise ValueError("need at least one stage")
    survival = 1.0
    insert_load = 0.0
    for stage in stages:
        if not is_zero(stage.substitution):
            raise ValueError("composition requires noiseless stages")
        consume = stage.deletion + stage.transmission
        if consume <= 0.0:
            raise ValueError("a stage never consumes input")
        # Insertions per consumed input symbol at this stage.
        r = stage.insertion / consume
        # This stage's survivors carry all earlier spurious symbols too;
        # earlier insertions get thinned by this stage's deletions.
        stage_survival = stage.transmission / consume
        insert_load = insert_load * stage_survival + r
        survival *= stage_survival
    # Per consumed input symbol: `survival` survivors, 1 - survival
    # deaths, `insert_load` spurious arrivals. Normalize to one event.
    denom = 1.0 + insert_load
    return ChannelParameters(
        deletion=(1.0 - survival) / denom,
        insertion=insert_load / denom,
        transmission=survival / denom,
    )


def composite_erasure_bound(
    bits_per_symbol: int, stages: Sequence[ChannelParameters]
) -> float:
    """Theorem 1 applied to the composite of *stages*."""
    composite = compose_parameters(stages)
    return erasure_upper_bound(bits_per_symbol, composite.deletion)


def composition_is_degrading(
    bits_per_symbol: int, stages: Sequence[ChannelParameters]
) -> bool:
    """Data-processing check: the composite erasure bound never exceeds
    any single stage's bound."""
    composite = composite_erasure_bound(bits_per_symbol, stages)
    singles = [
        erasure_upper_bound(bits_per_symbol, s.deletion) for s in stages
    ]
    return all(composite <= bound + 1e-12 for bound in singles)
