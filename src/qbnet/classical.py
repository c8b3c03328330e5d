"""Classical nets: nonnegative tables, marginal weights, conditionals, coarsening.

A classical net assigns each node a table P[x | parent states] with
nonnegative entries and unit column sums. The joint probability of a full
assignment is the product of one entry per node, and for acyclic graphs the
joint sums to one over the whole state space. Cyclic "pre-nets" can be
constructed for diagnostics only (their mass may differ from one; the
delta-table two-cycle famously sums to 2).

The sharp conditional P(H | E) divides two filtered masses: the mass of
assignments matching both H and E over the mass matching E, where H and E fix
individual components (occupation numbers), not whole nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import BaseNet, NodeBlock, StateSpace, conditional, filter_mask, max_states
from .errors import StateSpaceTooLarge
from .graph import classify_nodes, is_acyclic

EPS_NORM = 1e-9


@dataclass(frozen=True)
class NodeTable:
    """Read-only view of one node's probability table."""

    node: str
    parents: tuple[str, ...]
    entries: np.ndarray


class CBNet(BaseNet):
    dtype = np.float64
    kind = "classical"

    def node_table(self, node: str) -> NodeTable:
        return NodeTable(node, self.parents(node), self.table(node))


@dataclass
class ValidationReport:
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self):
        lines = [("ok" if self.ok else "INVALID")]
        lines += [f"problem: {p}" for p in self.problems]
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)


def joint_probability(net: CBNet, assignment: Mapping[str, object]) -> float:
    """Probability of one full assignment {node: state}."""
    return float(net.joint_value(assignment))


def total_mass(net: CBNet) -> float:
    """Sum of the joint over the entire state space.

    Equals 1 (up to float noise) for any valid acyclic net; cyclic pre-nets
    may give other values, which is exactly what this diagnostic is for.
    """
    return float(net.enumeration().values.sum())


def external_mass_map(net: CBNet) -> dict[tuple[int, ...], float]:
    """Probability of each external configuration, keyed by the component
    values in canonical external order. Zero-mass configurations included."""
    en = net.enumeration()
    mass = np.bincount(en.ext_group, weights=en.values, minlength=en.n_ext)
    return dict(zip(en.group_values(net), mass.tolist()))


def chi_classical(net: CBNet, fixed: Mapping[str, object] | None = None) -> float:
    """Filtered mass: sum of joint probabilities over assignments matching
    ``fixed``, which maps component names to a value or a set of values."""
    en = net.enumeration()
    mask = filter_mask(net, fixed or {})
    if mask is None:
        return float(en.values.sum())
    return float(en.values[mask].sum())


def classical_conditional(
    net: CBNet, hypothesis: Mapping[str, int], evidence: Mapping[str, int]
) -> float:
    """P(hypothesis | evidence) with both given as {component: value}."""
    return conditional(chi_classical, net, hypothesis, evidence)


def validate(net: CBNet) -> ValidationReport:
    """Check table nonnegativity, column normalization, and graph sanity."""
    report = ValidationReport()
    cls = classify_nodes(net.graph)
    for n in cls.invalid:
        report.problems.append(f"node {n!r} is neither internal nor external")
    if not is_acyclic(net.graph):
        report.problems.append("graph has a directed cycle")
    for node in net.graph.nodes:
        table = net.table(node)
        if (table < 0).any():
            rows, cols = np.nonzero(table < 0)
            report.problems.append(
                f"node {node!r}: negative entry at state {rows[0]}, column {cols[0]}"
            )
        sums = table.sum(axis=0)
        bad = np.nonzero(np.abs(sums - 1.0) > EPS_NORM)[0]
        for c in bad[:4]:
            report.problems.append(
                f"node {node!r}: column {int(c)} sums to {sums[c]:.12g}, expected 1"
            )
        if len(bad) > 4:
            report.problems.append(f"node {node!r}: {len(bad) - 4} more bad columns")
    return report


# ---------------------------------------------------------------------------
# Coarsening


def _node_factor(net: CBNet, node: str):
    """The node table as an array with one axis per parent, then the node.

    Table columns run over parent state combos in C-order with the last
    parent fastest, so the transposed table reshapes straight onto axes in
    declared parent order.
    """
    parents = net.parents(node)
    table = net.table(node)
    parent_sizes = [len(net.space.states(p)) for p in parents]
    arr = np.ascontiguousarray(table.T, dtype=np.float64)
    return tuple(parents) + (node,), arr.reshape(*parent_sizes, table.shape[0])


def _kept_marginal(net: CBNet, kept: Sequence[str]) -> np.ndarray:
    """Sum the joint over all nodes outside ``kept``.

    Dropped nodes are eliminated one at a time in reverse chronological
    order, multiplying only the factors that mention the node, so long
    chains never require materializing the full joint. The answer is a
    marginal and thus independent of the order; only the intermediate
    factor sizes vary.
    """
    order_pos = {n: i for i, n in enumerate(net.chronological)}
    sizes = {n: len(net.space.states(n)) for n in net.graph.nodes}
    cap = max_states()

    def combine(factors, drop=None):
        union = sorted({v for vars_, _ in factors for v in vars_}, key=order_pos.get)
        if int(np.prod([sizes[v] for v in union], dtype=np.int64)) > cap:
            raise StateSpaceTooLarge(
                f"intermediate factor over {len(union)} nodes exceeds the state cap"
            )
        out = np.ones([sizes[v] for v in union])
        for vars_, arr in factors:
            perm = sorted(range(len(vars_)), key=lambda i: order_pos[vars_[i]])
            have = set(vars_)
            shaped = np.transpose(arr, perm).reshape(
                [sizes[v] if v in have else 1 for v in union]
            )
            out = out * shaped
        if drop is not None:
            out = out.sum(axis=union.index(drop))
            union = [v for v in union if v != drop]
        return tuple(union), out

    keep_set = set(kept)
    factors = [_node_factor(net, n) for n in net.chronological]
    for y in reversed(net.chronological):
        if y in keep_set:
            continue
        touching = [f for f in factors if y in f[0]]
        factors = [f for f in factors if y not in f[0]]
        factors.append(combine(touching, drop=y))
    vars_, marginal = combine(factors)
    assert vars_ == tuple(kept)
    return marginal


def coarsen(net: CBNet, keep: Iterable[str]) -> CBNet:
    """Marginalize the net onto ``keep``, returning a net over those nodes.

    The kept nodes appear in their original chronological order and the
    result is fully connected: each kept node conditions on every earlier
    kept node, redundant or not, so no independence judgement is needed.
    Its joint distribution is exactly the kept-marginal of the original,
    which makes the outcome independent of how the dropped nodes are
    summed out.
    """
    keep_set = set(keep)
    unknown = keep_set - set(net.graph.nodes)
    if unknown:
        raise KeyError(f"unknown nodes in keep: {sorted(unknown)}")
    if not keep_set:
        raise ValueError("keep must name at least one node")

    kept = [n for n in net.chronological if n in keep_set]
    sizes = [len(net.space.states(n)) for n in kept]
    m_table = _kept_marginal(net, kept)

    blocks = []
    m = len(kept)
    for i, n in enumerate(kept):
        partial = m_table.sum(axis=tuple(range(i + 1, m))) if i + 1 < m else m_table
        # axes are kept[0..i]; putting kept[i] first and flattening the rest
        # C-order makes the last conditioning node vary fastest across columns
        num = np.moveaxis(partial, -1, 0).reshape(sizes[i], -1)
        den = num.sum(axis=0)
        arr = np.empty_like(num)
        zero = den == 0.0
        arr[:, zero] = 1.0 / sizes[i]
        arr[:, ~zero] = num[:, ~zero] / den[~zero]
        blocks.append(
            NodeBlock(
                name=n,
                states=list(net.space.states(n)),
                components=net.space.components(n),
                parents=tuple(kept[:i]),
                table=arr,
            )
        )
    return CBNet.from_blocks(blocks, meta=dict(net.meta))
