import cmath
import math

import numpy as np
import pytest

from qbnet import catalog
from qbnet.classical import (
    classical_conditional,
    coarsen,
    joint_probability,
    total_mass,
    validate,
)
from qbnet.core import NodeBlock
from qbnet.errors import ContradictoryEvidence, CyclicGraph, InvalidParams
from qbnet.quantum import (
    QBNet,
    chi,
    f_qna,
    joint_amplitude,
    parent_cb_net,
    quantum_conditional,
    total_squared_amplitude,
    validate_quantum,
)

from conftest import random_qbnet

H2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def two_node_net(psi, u):
    return QBNet.from_blocks(
        [
            NodeBlock("a", [0, 1], psi),
            NodeBlock("b", [0, 1], u, parents=("a",)),
        ]
    )


def test_joint_amplitude_is_entry_product():
    net = two_node_net([0.6, 0.8j], H2)
    got = joint_amplitude(net, {"a": 1, "b": 1})
    assert got == pytest.approx(0.8j * (-1 / math.sqrt(2)), abs=1e-15)


def test_chi_against_hand_sum():
    psi = [0.6, 0.8j]
    net = two_node_net(psi, H2)
    for k in (0, 1):
        inner = sum(psi[a] * H2[k, a] for a in (0, 1))
        assert chi(net, {"b": k}) == pytest.approx(abs(inner) ** 2, abs=1e-14)
    assert chi(net) == pytest.approx(
        sum(abs(sum(psi[a] * H2[k, a] for a in (0, 1))) ** 2 for k in (0, 1)),
        abs=1e-14,
    )


def test_interference_differs_from_parent():
    s = 1 / math.sqrt(2)
    net = two_node_net([s, s], H2)
    # coherent: the two routes into b=1 cancel exactly
    assert quantum_conditional(net, {"b": 1}, {}) == pytest.approx(0.0, abs=1e-14)
    parent = parent_cb_net(net)
    assert validate(parent).ok
    assert total_mass(parent) == pytest.approx(1.0, abs=1e-12)
    assert classical_conditional(parent, {"b": 1}, {}) == pytest.approx(0.5)


def test_unitary_chain_is_clean():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(m)
    psi = np.zeros(3, dtype=complex)
    psi[0] = 1.0
    net = QBNet.from_blocks(
        [
            NodeBlock("a", [0, 1, 2], psi),
            NodeBlock("b", [0, 1, 2], q, parents=("a",)),
            NodeBlock("c", [0, 1, 2], q.conj().T, parents=("b",)),
        ]
    )
    assert validate_quantum(net).ok
    assert chi(net) == pytest.approx(1.0, abs=1e-12)
    assert total_squared_amplitude(net) == pytest.approx(1.0, abs=1e-12)
    # the two rotations undo each other, so the chain ends where it started
    assert quantum_conditional(net, {"c": 0}, {}) == pytest.approx(1.0, abs=1e-12)


def test_total_squared_amplitude_random():
    for seed in range(10):
        net = random_qbnet(seed)
        assert total_squared_amplitude(net) == pytest.approx(1.0, abs=1e-9)


def test_conditional_sums_and_noise_factor_random():
    for seed in range(8):
        net = random_qbnet(seed + 30)
        comps = list(net.all_components)
        beta = comps[-1]
        ext = list(net.external_components)
        try:
            total = sum(
                quantum_conditional(net, {beta: v}, {})
                for v in net.space.component_values(beta)
            )
        except ContradictoryEvidence:
            continue
        assert total == pytest.approx(1.0, abs=1e-12)
        # summing over every external component recovers the plain weight
        assert f_qna(net, ext, {}) == pytest.approx(1.0, abs=1e-9)


def test_conditional_noise_identity():
    for seed in range(8):
        net = random_qbnet(seed + 60)
        comps = list(net.all_components)
        if len(comps) < 2:
            continue
        alpha, beta = comps[0], comps[-1]
        evidence = {alpha: net.space.component_values(alpha)[0]}
        hyp = {beta: net.space.component_values(beta)[0]}
        try:
            lhs = quantum_conditional(net, hyp, evidence) * f_qna(net, [beta], evidence)
        except ContradictoryEvidence:
            continue
        rhs = chi(net, {**hyp, **evidence}) / chi(net, evidence)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_contradictory_evidence_quantum():
    net = two_node_net([1.0, 0.0], np.eye(2))
    with pytest.raises(ContradictoryEvidence):
        quantum_conditional(net, {"a": 0}, {"b": 1})
    with pytest.raises(ContradictoryEvidence):
        f_qna(net, ["a"], {"b": 1})


def test_query_argument_checks():
    net = two_node_net([0.6, 0.8], H2)
    with pytest.raises(ValueError, match="overlap"):
        quantum_conditional(net, {"b": 0}, {"b": 1})
    with pytest.raises(ValueError, match="empty"):
        quantum_conditional(net, {}, {"b": 1})
    with pytest.raises(KeyError):
        quantum_conditional(net, {"ghost": 0}, {})


def test_quantum_rejects_cycles_and_pre_nets():
    blocks = [
        NodeBlock("u", [0, 1], np.eye(2), parents=("w",)),
        NodeBlock("w", [0, 1], np.eye(2), parents=("u",)),
    ]
    with pytest.raises(CyclicGraph):
        QBNet.from_blocks(blocks)
    with pytest.raises(ValueError, match="acyclic"):
        QBNet.from_blocks(blocks, pre_net=True)


def test_validate_quantum_flags_problems():
    bad = two_node_net([0.6, 0.9], H2)  # squared norm 1.17
    report = validate_quantum(bad)
    assert any("squared norm" in p for p in report.problems)

    # columns normalized but not orthogonal: per-column checks pass, yet the
    # external weight drifts off one
    s = 1 / math.sqrt(2)
    skew = np.array([[1, s], [0, s]])
    net = two_node_net([s, s], skew)
    report = validate_quantum(net)
    assert not any("squared norm" in p for p in report.problems)
    assert any("external weight" in p for p in report.problems)
    assert not any("total squared amplitude" in p for p in report.problems)


def test_validate_quantum_cap_note(monkeypatch):
    net = two_node_net([0.6, 0.8], H2)
    monkeypatch.setenv("QBNET_MAX_STATES", "2")
    report = validate_quantum(net)
    assert report.ok
    assert any("skipped" in n for n in report.notes)


def test_one_conditional_serves_both_net_kinds():
    assert quantum_conditional is classical_conditional


@pytest.mark.parametrize(
    "fn, kind",
    [
        (validate, "classical"),
        (total_mass, "classical"),
        (coarsen, "classical"),
        (joint_probability, "classical"),
        (validate_quantum, "quantum"),
        (total_squared_amplitude, "quantum"),
        (parent_cb_net, "quantum"),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_a_net_of_the_wrong_kind_is_refused(fn, kind):
    net = catalog.build("fig9-and" if kind == "quantum" else "fig19-loop")
    first_states = {n: net.space.states(n)[0] for n in net.graph.nodes}
    extra = {coarsen: (net.graph.nodes[:1],), joint_probability: (first_states,)}
    with pytest.raises(InvalidParams) as err:
        fn(net, *extra.get(fn, ()))
    assert str(err.value) == f"{fn.__name__} expects a {kind} net"


@pytest.mark.parametrize("bad", [complex(math.nan, 0.5), complex(math.inf, 0.0)])
def test_validate_quantum_flags_non_finite_entries(bad):
    net = catalog.build("fig19-loop")
    tables = {n: net.table(n).copy() for n in net.graph.nodes}
    node = net.graph.nodes[0]
    tables[node][0, 0] = bad
    broken = QBNet(net.graph, net.space, tables, meta=net.meta)
    report = validate_quantum(broken)
    assert not report.ok
    assert f"node {node!r}: non-finite entry at state 0, column 0" in report.problems
    assert any("squared norm" in p for p in report.problems)
    assert any("total squared amplitude" in p for p in report.problems)
