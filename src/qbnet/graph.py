"""Labelled directed graphs with external (dangling) arrows.

A net graph is a set of named nodes and arrows. An internal arrow connects
two nodes; an external arrow leaves a node and ends nowhere (it represents a
quantity that leaves the experiment unobserved by any later node). Node roles
follow from the arrows alone:

* external node: exactly one outgoing arrow, and that arrow is external;
* internal node: one or more outgoing arrows, all of them internal;
* anything else (no outgoing arrows, several external arrows, or a mix of
  internal and external outgoing arrows) is invalid.

Chronological labelling orders the nodes x_1 .. x_N so that every internal
arrow points from an earlier node to a later one. It is computed by the
peel-off procedure: repeatedly strip a node that is "external in the
diminished graph" (all of its internal out-neighbours already stripped),
assigning positions N, N-1, ... downwards. Fully connected acyclic graphs
have exactly one candidate at each step, hence a unique labelling; for other
graphs the lexicographically greatest candidate is stripped first, which
makes the output deterministic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import CyclicGraph

NodeId = str


@dataclass(frozen=True)
class Arrow:
    """One arrow. ``target is None`` marks an external arrow."""

    source: NodeId
    target: NodeId | None = None

    @property
    def external(self) -> bool:
        return self.target is None


@dataclass(frozen=True)
class Classification:
    internal: tuple[NodeId, ...]
    external: tuple[NodeId, ...]
    invalid: tuple[NodeId, ...]


class LabelledGraph:
    """Immutable node/arrow structure shared by all nets."""

    def __init__(self, nodes, arrows):
        self.nodes: tuple[NodeId, ...] = tuple(nodes)
        self.arrows: tuple[Arrow, ...] = tuple(
            a if isinstance(a, Arrow) else Arrow(*a) for a in arrows
        )
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        known = set(self.nodes)
        seen_pairs = set()
        for a in self.arrows:
            if a.source not in known:
                raise ValueError(f"arrow source {a.source!r} is not a node")
            if a.target is not None and a.target not in known:
                raise ValueError(f"arrow target {a.target!r} is not a node")
            if a.target == a.source:
                raise ValueError(f"self-loop on {a.source!r}")
            pair = (a.source, a.target)
            if pair in seen_pairs:
                raise ValueError(f"parallel arrows {a.source!r} -> {a.target!r}")
            seen_pairs.add(pair)
        self._out: dict[NodeId, list[Arrow]] = {n: [] for n in self.nodes}
        self._parents: dict[NodeId, list[NodeId]] = {n: [] for n in self.nodes}
        for a in self.arrows:
            self._out[a.source].append(a)
            if a.target is not None:
                self._parents[a.target].append(a.source)

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        return tuple(a.target for a in self._out[node] if a.target is not None)

    def parents(self, node: NodeId) -> tuple[NodeId, ...]:
        return tuple(self._parents[node])

    def __repr__(self):
        return f"LabelledGraph(nodes={len(self.nodes)}, arrows={len(self.arrows)})"


def classify_nodes(graph: LabelledGraph) -> Classification:
    """Split nodes into internal / external / invalid by their out-arrows."""
    internal, external, invalid = [], [], []
    for n in graph.nodes:
        out = graph._out[n]
        n_ext = sum(a.target is None for a in out)
        n_int = len(out) - n_ext
        if n_ext == 1 and n_int == 0:
            external.append(n)
        elif n_int >= 1 and n_ext == 0:
            internal.append(n)
        else:
            invalid.append(n)
    return Classification(tuple(internal), tuple(external), tuple(invalid))


def chronological_labelling(graph: LabelledGraph) -> tuple[NodeId, ...]:
    """Order nodes so every internal arrow runs from earlier to later.

    Implements the peel-off procedure described in the module docstring.
    Raises CyclicGraph when no strippable node exists before the graph is
    exhausted (which happens exactly when the internal arrows form a cycle).
    """
    # count of internal out-arrows into still-remaining nodes
    live_out = dict.fromkeys(graph.nodes, 0)
    for n in graph.nodes:
        for p in graph._parents[n]:
            live_out[p] += 1
    order: list[NodeId] = []
    candidates = sorted(n for n, k in live_out.items() if k == 0)
    while candidates:
        node = candidates.pop()  # lexicographically greatest
        order.append(node)
        for p in graph._parents[node]:
            live_out[p] -= 1
            if not live_out[p]:
                bisect.insort(candidates, p)
    if len(order) < len(graph.nodes):
        remaining = sorted(set(graph.nodes).difference(order))
        raise CyclicGraph(f"no strippable node among {remaining}; internal arrows form a cycle")
    order.reverse()
    return tuple(order)


def is_acyclic(graph: LabelledGraph) -> bool:
    """True when the internal arrows contain no directed cycle."""
    try:
        chronological_labelling(graph)
    except CyclicGraph:
        return False
    return True


def _reaches(graph: LabelledGraph, a: NodeId, b: NodeId) -> bool:
    stack, seen = [a], {a}
    while stack:
        n = stack.pop()
        for c in graph.children(n):
            if c == b:
                return True
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def node_order_relation(graph: LabelledGraph, a: NodeId, b: NodeId) -> str:
    """Relation of a to b: 'precedes', 'succeeds', 'concurrent' or 'equal'.

    a precedes b iff some chain of internal arrows leads from a to b.
    Nodes with no chain either way (including nodes in disconnected parts)
    are concurrent.
    """
    for n in (a, b):
        if n not in graph._out:
            raise KeyError(f"unknown node {n!r}")
    if a == b:
        return "equal"
    if _reaches(graph, a, b):
        return "precedes"
    if _reaches(graph, b, a):
        return "succeeds"
    return "concurrent"
