"""Transitive effect closure and call-chain witnesses.

The closure is a monotone fixpoint over the powerset lattice in
:mod:`.lattice`: a function's transitive effect set is the union of its
own unwaived direct origins, :attr:`Effect.UNKNOWN` for every call edge
the linker could not resolve, and the transitive sets of its callees.
Because join is set union and the lattice is finite, iteration
terminates even on cyclic graphs (mutual recursion) — each round can
only grow a set, and each set is bounded by the set of all effects.

Witnesses make findings actionable: :func:`witness_chain` runs a BFS
from a root function to the *nearest* function carrying an unwaived
direct origin of the offending effect, and returns the call chain with
source lines — the output of ``repro graph why``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionNode
from .lattice import EMPTY_EFFECTS, Effect, EffectSet
from .symbols import EffectOrigin

__all__ = [
    "WitnessStep",
    "direct_effects",
    "format_witness",
    "transitive_effects",
    "witness_chain",
]


@dataclass(frozen=True)
class WitnessStep:
    """One hop in a call-chain witness."""

    qname: str
    #: Source line of the call into the *next* step (or of the effect
    #: origin itself for the terminal step).
    line: int
    #: Human-readable note: the callee for intermediate hops, the
    #: effect origin detail for the terminal hop.
    detail: str


def direct_effects(node: FunctionNode) -> EffectSet:
    """Unwaived direct effects of one function, plus linker UNKNOWNs."""
    effects: Set[Effect] = {
        origin.effect for origin in node.info.effects if not origin.waived
    }
    if node.unresolved:
        effects.add(Effect.UNKNOWN)
    return frozenset(effects)


def transitive_effects(graph: CallGraph) -> Dict[str, EffectSet]:
    """Fixpoint closure of effect sets over the call graph.

    Propagation order is worklist-based: when a function's set grows,
    its callers are re-queued. Convergence is guaranteed because sets
    only grow and the lattice is finite.
    """
    result: Dict[str, Set[Effect]] = {}
    callers: Dict[str, Set[str]] = {q: set() for q in graph.functions}
    for node in graph.functions.values():
        result[node.qname] = set(direct_effects(node))
        for callee, _ in node.callees:
            if callee in callers:
                callers[callee].add(node.qname)
    work: Deque[str] = deque(graph.functions)
    queued: Set[str] = set(work)
    while work:
        qname = work.popleft()
        queued.discard(qname)
        node = graph.functions[qname]
        combined = set(result[qname])
        for callee, _ in node.callees:
            combined |= result.get(callee, set())
        if combined != result[qname]:
            result[qname] = combined
            for caller in callers[qname]:
                if caller not in queued:
                    queued.add(caller)
                    work.append(caller)
    return {qname: frozenset(effects) for qname, effects in result.items()}


def _first_origin(
    node: FunctionNode, effect: Effect
) -> Optional[EffectOrigin]:
    for origin in node.info.effects:
        if origin.effect is effect and not origin.waived:
            return origin
    if effect is Effect.UNKNOWN and node.unresolved:
        call = node.unresolved[0]
        return EffectOrigin(
            Effect.UNKNOWN,
            call.line,
            f"unresolved call {'.'.join(call.parts)}(...)",
        )
    return None


def witness_chain(
    graph: CallGraph,
    root: str,
    effect: Effect,
    closure: Optional[Dict[str, EffectSet]] = None,
) -> Optional[List[WitnessStep]]:
    """Shortest call chain from *root* to an unwaived *effect* origin.

    Returns ``None`` when *root* does not transitively reach the
    effect (or is not in the graph). The *closure* mapping, when
    supplied, prunes the BFS to functions that can actually reach the
    effect; without it the search still terminates but may explore
    more of the graph.
    """
    if root not in graph.functions:
        return None
    if closure is not None and effect not in closure.get(root, EMPTY_EFFECTS):
        return None
    # BFS over call edges; parent pointers rebuild the chain.
    parents: Dict[str, Tuple[str, int]] = {}
    queue: Deque[str] = deque([root])
    seen: Set[str] = {root}
    terminal: Optional[str] = None
    while queue:
        qname = queue.popleft()
        node = graph.functions[qname]
        if _first_origin(node, effect) is not None:
            terminal = qname
            break
        for callee, line in node.callees:
            if callee in seen or callee not in graph.functions:
                continue
            if closure is not None and effect not in closure.get(
                callee, EMPTY_EFFECTS
            ):
                continue
            seen.add(callee)
            parents[callee] = (qname, line)
            queue.append(callee)
    if terminal is None:
        return None
    # Rebuild root → terminal.
    chain: List[str] = [terminal]
    while chain[-1] != root:
        chain.append(parents[chain[-1]][0])
    chain.reverse()
    steps: List[WitnessStep] = []
    for caller, callee in zip(chain, chain[1:]):
        _, line = parents[callee]
        steps.append(
            WitnessStep(qname=caller, line=line, detail=f"calls {callee}")
        )
    origin = _first_origin(graph.functions[terminal], effect)
    assert origin is not None  # terminal was selected for having one
    steps.append(
        WitnessStep(qname=terminal, line=origin.line, detail=origin.detail)
    )
    return steps


def format_witness(steps: List[WitnessStep], graph: CallGraph) -> str:
    """Render a witness chain as an indented, clickable trace."""
    lines: List[str] = []
    for depth, step in enumerate(steps):
        node = graph.functions.get(step.qname)
        path = graph.modules[node.info.module].path if node else "?"
        indent = "  " * depth
        lines.append(f"{indent}{step.qname} ({path}:{step.line})")
        lines.append(f"{indent}  └─ {step.detail}")
    return "\n".join(lines)
