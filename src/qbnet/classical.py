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
from typing import Iterable, Mapping

import numpy as np

from .core import BaseNet, NodeBlock, as_table, conditional, contract, expect_kind
# one chi and one external map serve both net kinds, under their classical names too
from .core import chi as chi_classical, external_map as external_mass_map  # noqa: F401
from .graph import classify_nodes, is_acyclic

EPS_NORM = 1e-9


class CBNet(BaseNet):
    dtype = np.float64
    kind = "classical"


@dataclass
class ValidationReport:
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def flag_invalid_nodes(self, graph) -> None:
        for n in classify_nodes(graph).invalid:
            self.problems.append(f"node {n!r} is neither internal nor external")

    def flag_entries(self, node: str, bad: np.ndarray, what: str) -> None:
        """Report the first entry of a node's table that ``bad`` marks."""
        if bad.any():
            rows, cols = np.nonzero(bad)
            self.problems.append(
                f"node {node!r}: {what} entry at state {rows[0]}, column {cols[0]}"
            )

    def flag_columns(self, node: str, totals: np.ndarray, what: str) -> None:
        """Report the columns whose ``totals`` are not 1 within EPS_NORM:
        the first four by value, then a count of the rest."""
        bad = np.nonzero(~(np.abs(totals - 1.0) <= EPS_NORM))[0]
        for c in bad[:4]:
            self.problems.append(
                f"node {node!r}: column {int(c)} {what} {totals[c]:.12g}, expected 1"
            )
        if len(bad) > 4:
            self.problems.append(f"node {node!r}: {len(bad) - 4} more bad columns")


def joint_probability(net: CBNet, assignment: Mapping[str, object]) -> float:
    """Probability of one full assignment {node: state}."""
    expect_kind(net, "classical", "joint_probability")
    return float(net.joint_value(assignment))


def total_mass(net: CBNet) -> float:
    """Sum of the joint over the entire state space.

    Equals 1 (up to float noise) for any valid acyclic net; cyclic pre-nets
    may give other values, which is exactly what this diagnostic is for.
    """
    expect_kind(net, "classical", "total_mass")
    return float(contract(net))


def classical_conditional(
    net: BaseNet, hypothesis: Mapping[str, int], evidence: Mapping[str, int]
) -> float:
    """P(hypothesis | evidence), both given as {component: value}, on either net kind."""
    return conditional(net, hypothesis, evidence)


def validate(net: CBNet) -> ValidationReport:
    """Check table nonnegativity, column normalization, and graph sanity."""
    expect_kind(net, "classical", "validate")
    report = ValidationReport()
    report.flag_invalid_nodes(net.graph)
    if not is_acyclic(net.graph):
        report.problems.append("graph has a directed cycle")
    for node in net.graph.nodes:
        table = net.table(node)
        report.flag_entries(node, ~np.isfinite(table), "non-finite")
        report.flag_entries(node, table < 0, "negative")
        report.flag_columns(node, table.sum(axis=0), "sums to")
    return report


# ---------------------------------------------------------------------------
# Coarsening


def coarsen(net: CBNet, keep: Iterable[str] | str) -> CBNet:
    """Marginalize the net onto ``keep``, node names or one name, as a net over them.

    The kept nodes appear in their original chronological order and the
    result is fully connected: each kept node conditions on every earlier
    kept node, redundant or not, so no independence judgement is needed.
    Its joint distribution is exactly the kept-marginal of the original,
    which makes the outcome independent of how the dropped nodes are
    summed out.
    """
    expect_kind(net, "classical", "coarsen")
    keep_set = {keep} if isinstance(keep, str) else set(keep)
    unknown = keep_set - set(net.graph.nodes)
    if unknown:
        raise KeyError(f"unknown nodes in keep: {sorted(unknown)}")
    if not keep_set:
        raise ValueError("keep must name at least one node")

    kept = [n for n in net.chronological if n in keep_set]
    marginal = contract(net, tuple(kept))
    blocks = []
    for i, n in enumerate(kept):
        # the marginal of kept[:i + 1]: a factor with axes (kept[:i]..., n)
        joint = marginal.sum(axis=tuple(range(i + 1, len(kept))))
        total = joint.sum(axis=-1, keepdims=True)
        uniform = np.full_like(joint, 1.0 / joint.shape[-1])
        cond = np.divide(joint, total, out=uniform, where=total != 0.0)
        blocks.append(
            NodeBlock(
                name=n,
                states=list(net.space.states(n)),
                components=net.space.components(n),
                parents=tuple(kept[:i]),
                table=as_table(cond),
            )
        )
    return CBNet.from_blocks(blocks, meta=dict(net.meta))

