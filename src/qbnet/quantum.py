"""Quantum nets: complex amplitude tables and measurement-style conditionals.

A quantum net looks like a classical one except that table entries are
complex amplitudes and each column has unit squared norm instead of unit sum.
The joint amplitude of a full assignment is the product of one entry per
node. Probabilities of external configurations come from coherently summing
the joint amplitude over internal configurations first and squaring after:

    chi[K] = sum over external configs of |sum over internal configs of
             A(x) * (x matches K)|^2

where K constrains individual components to values (or value sets). The
conditional probability of a hypothesis H given evidence E is

    P(H | E) = chi[H and E] / (sum over all value combos m of H's
               components of chi[m and E])

which is ``core.conditional`` (on classical nets the denominator equals
chi[E]); ``core.Weights`` reads every chi in it off one contraction keeping
the hypothesis and external nodes open, and ``pathsum`` sums it from paths.
``chi`` and ``external_amplitude_map`` are ``core.chi`` and
``core.external_map``, and both conditionals, ``quantum_conditional`` and
``classical.classical_conditional``, are ``core.conditional``; all three
serve both net kinds. The quantum-noise factor ``f_qna`` measures how far
that denominator sits from chi[E] itself, as ``core.Weights.row`` computes
it next to the conditionals; it equals one whenever the hypothesis
components are all external, and drifts from one when conditioning cuts
into coherent sums.

Every quantum net has a parent classical net with tables |A|^2. The two give
the same answers exactly when each external configuration pins down the
whole internal configuration (no interference terms survive); otherwise they
genuinely differ, which is the point.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .classical import CBNet, ValidationReport, total_mass
from .core import (
    BaseNet,
    Weights,
    check_query,
    chi,
    conditional as quantum_conditional,  # noqa: F401  (one conditional for both kinds)
    expect_kind,
    external_map as external_amplitude_map,  # noqa: F401  (one map for both kinds)
    filter_mask,  # noqa: F401  (the dense reference, kept importable here)
)
from .errors import StateSpaceTooLarge

EPS_NET = 1e-9


class QBNet(BaseNet):
    dtype = np.complex128
    kind = "quantum"

    def __init__(self, graph, space, tables, meta=None, pre_net=False):
        if pre_net:
            raise ValueError("quantum nets must be acyclic; pre-nets are classical-only")
        super().__init__(graph, space, tables, meta=meta)
        self._parent: CBNet | None = None


def joint_amplitude(net: QBNet, assignment: Mapping[str, object]) -> complex:
    """Amplitude of one full assignment {node: state}."""
    expect_kind(net, "quantum", "joint_amplitude")
    return complex(net.joint_value(assignment))


def total_squared_amplitude(net: QBNet) -> float:
    """Sum of |A|^2 over every joint state, i.e. the parent net's mass; one
    for any normalized net."""
    expect_kind(net, "quantum", "total_squared_amplitude")
    return total_mass(parent_cb_net(net))


def f_qna(net: QBNet, components: Iterable[str], evidence: Mapping[str, int]) -> float:
    """Quantum-noise factor for conditioning on the given hypothesis
    components: the hypothesis-summed weight over the plain evidence weight.
    One exactly when the components are all external; otherwise a measure of
    how much coherence the conditioning destroys. ContradictoryEvidence when
    either weight is zero, and ValueError for a component named twice."""
    comps = tuple(components)
    check_query(net, dict.fromkeys(comps), evidence)
    return Weights(net, comps, evidence).row(comps)[1]


def parent_cb_net(net: QBNet) -> CBNet:
    """Classical net with tables |A|^2 on the same graph and state space,
    built once per net."""
    expect_kind(net, "quantum", "parent_cb_net")
    if net._parent is None:
        tables = {n: np.abs(net.table(n)) ** 2 for n in net.graph.nodes}
        net._parent = CBNet(net.graph, net.space, tables, meta=dict(net.meta))
    return net._parent


def validate_quantum(net: QBNet) -> ValidationReport:
    """Check column norms, node classification, and the whole-net sums."""
    expect_kind(net, "quantum", "validate_quantum")
    report = ValidationReport()
    report.flag_invalid_nodes(net.graph)
    for node in net.graph.nodes:
        table = net.table(node)
        report.flag_entries(node, ~np.isfinite(table), "non-finite")
        report.flag_columns(node, (np.abs(table) ** 2).sum(axis=0), "squared norm")
    try:
        total = total_squared_amplitude(net)
        if not abs(total - 1.0) <= EPS_NET:
            report.problems.append(
                f"total squared amplitude {total:.12g}, expected 1"
            )
        ext_total = chi(net)
        if not abs(ext_total - 1.0) <= EPS_NET:
            report.problems.append(
                f"external weight (squared internal sums) {ext_total:.12g}, expected 1"
            )
    except StateSpaceTooLarge as exc:
        report.notes.append(f"whole-net sums skipped: {exc}")
    return report
