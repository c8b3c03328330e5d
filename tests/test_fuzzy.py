import itertools
import math
import re

import numpy as np
import pytest

from qbnet.classical import joint_probability
from qbnet.core import NodeBlock
from qbnet.errors import ContradictoryEvidence, InvalidParams
from qbnet.fuzzy import (
    DirectProductSet,
    Partition,
    classical_fuzzy_conditional,
    quantum_fuzzy_conditional,
    quantum_fuzzy_distribution,
    singleton_partition,
    validate_partition,
)
from qbnet.pathsum import pathsum_fuzzy_quantum
from qbnet.quantum import QBNet, quantum_conditional

from conftest import random_cbnet, random_qbnet


def hadamard_net(psi):
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    return QBNet.from_blocks(
        [NodeBlock("a", [0, 1], psi), NodeBlock("b", [0, 1], h, parents=("a",))]
    )


def test_dps_clips_to_realizable():
    net = hadamard_net([1, 0])
    d = DirectProductSet.over(net, {"a": {0, 1, 7}, "b": 1})
    assert d.sets == {"a": frozenset({0, 1}), "b": frozenset({1})}
    assert not d.is_empty
    assert DirectProductSet.over(net, {"a": {9}}).is_empty
    with pytest.raises(KeyError):
        DirectProductSet.over(net, {"ghost": 0})


def test_dps_intersection_and_disjointness():
    net = hadamard_net([1, 0])
    d1 = DirectProductSet.over(net, {"a": {0, 1}, "b": 0})
    d2 = DirectProductSet.over(net, {"a": 1})
    inter = d1.intersect(d2)
    assert inter.sets == {"a": frozenset({1}), "b": frozenset({0})}
    assert not d1.disjoint_from(d2)
    d3 = DirectProductSet.over(net, {"a": 0})
    assert d2.disjoint_from(d3)
    # no commonly constrained component: never disjoint
    d4 = DirectProductSet.over(net, {"b": 1})
    assert not d2.disjoint_from(d4)
    assert d1.contains({"a": 0, "b": 0})
    assert not d1.contains({"a": 0, "b": 1})


def test_indicator_product_and_disjointness_brute_force():
    rng = np.random.default_rng(11)
    net = random_cbnet(11, max_nodes=4)
    comps = list(net.all_components)
    for _ in range(40):
        pick = lambda: {
            a: set(
                rng.choice(
                    net.space.component_values(a),
                    size=rng.integers(1, len(net.space.component_values(a)) + 1),
                    replace=False,
                )
            )
            for a in comps
            if rng.random() < 0.6
        }
        d1 = DirectProductSet.over(net, pick())
        d2 = DirectProductSet.over(net, pick())
        inter = d1.intersect(d2)
        combos = itertools.product(*[net.space.component_values(a) for a in comps])
        any_shared = False
        for combo in combos:
            point = dict(zip(comps, combo))
            # membership in the intersection is the product of memberships
            assert inter.contains(point) == (d1.contains(point) and d2.contains(point))
            any_shared = any_shared or (d1.contains(point) and d2.contains(point))
        assert d1.disjoint_from(d2) == (not any_shared)


def test_partition_validation():
    net = hadamard_net([1, 0])
    good = singleton_partition(net, ["a", "b"])
    assert len(good.blocks) == 4
    assert validate_partition(net, good) == []

    lumped = Partition(("a",), (DirectProductSet.over(net, {"a": {0, 1}}),))
    assert validate_partition(net, lumped) == []

    overlapping = Partition(
        ("a",),
        (
            DirectProductSet.over(net, {"a": {0, 1}}),
            DirectProductSet.over(net, {"a": 1}),
        ),
    )
    assert any("overlap" in v for v in validate_partition(net, overlapping))

    gappy = Partition(("a",), (DirectProductSet.over(net, {"a": 0}),))
    assert any("covered by no block" in v for v in validate_partition(net, gappy))

    stray = Partition(("a",), (DirectProductSet.over(net, {"b": 0}),))
    assert any("outside" in v for v in validate_partition(net, stray))

    assert validate_partition(net, Partition(("a",), ())) == ["partition has no blocks"]


def brute_set_mass(net, sets):
    total = 0.0
    nodes = list(net.graph.nodes)
    for combo in itertools.product(*[net.space.states(n) for n in nodes]):
        assignment = dict(zip(nodes, combo))
        values = {}
        for n in nodes:
            for k, alpha in enumerate(net.space.components(n)):
                values[alpha] = assignment[n][k]
        if all(values[a] in vs for a, vs in sets.items()):
            total += joint_probability(net, assignment)
    return total


def test_classical_fuzzy_conditional_brute_force():
    for seed in range(6):
        net = random_cbnet(seed + 400, max_nodes=4)
        comps = list(net.all_components)
        alpha, beta = comps[0], comps[-1]
        va = net.space.component_values(alpha)
        vb = net.space.component_values(beta)
        hyp = DirectProductSet.over(net, {alpha: set(va[:2])})
        evi = DirectProductSet.over(net, {beta: set(vb[-2:])})
        got = classical_fuzzy_conditional(net, hyp, evi)
        want = brute_set_mass(net, hyp.intersect(evi).sets) / brute_set_mass(net, evi.sets)
        assert got == pytest.approx(want, abs=1e-12)


def test_quantum_fuzzy_distribution_hand_values():
    s = 1 / math.sqrt(2)
    net = hadamard_net([s, s])
    evidence = DirectProductSet.over(net, {"b": 0})
    fine = singleton_partition(net, ["a"])
    assert quantum_fuzzy_distribution(net, fine, evidence) == pytest.approx([0.5, 0.5])
    # lumping both internal routes into one block sums amplitudes coherently,
    # so its weight is |s*s + s*s|^2 = 1, four times the finest blocks' 1/4
    lumped = Partition(("a",), (DirectProductSet.over(net, {"a": {0, 1}}),))
    assert quantum_fuzzy_distribution(net, lumped, evidence) == [1.0]


def test_fuzzy_reduces_to_sharp_on_singletons():
    for seed in range(6):
        net = random_qbnet(seed + 90)
        comps = list(net.all_components)
        if len(comps) < 2:
            continue
        alpha, beta = comps[0], comps[-1]
        evidence = {alpha: net.space.component_values(alpha)[0]}
        part = singleton_partition(net, [beta])
        try:
            dist = quantum_fuzzy_distribution(
                net, part, DirectProductSet.over(net, evidence)
            )
        except ContradictoryEvidence:
            continue
        for block, p in zip(part.blocks, dist):
            (value,) = block.sets[beta]
            sharp = quantum_conditional(net, {beta: value}, evidence)
            assert p == pytest.approx(sharp, abs=1e-12)
        assert sum(dist) == pytest.approx(1.0, abs=1e-9)


def test_quantum_fuzzy_conditional_index_checks():
    net = hadamard_net([1, 0])
    part = singleton_partition(net, ["a"])
    anywhere = DirectProductSet.over(net, {})
    with pytest.raises(InvalidParams, match="out of range"):
        quantum_fuzzy_conditional(net, part, 5, anywhere)
    for route in (quantum_fuzzy_conditional, pathsum_fuzzy_quantum):
        for bad in (1.0, "1", None, [1]):
            message = f"^block index must be an integer, got {re.escape(repr(bad))}$"
            with pytest.raises(InvalidParams, match=message):
                route(net, part, bad, anywhere)
        assert route(net, part, np.int64(1), anywhere) == route(net, part, 1, anywhere)
    total = sum(
        quantum_fuzzy_conditional(net, part, i, anywhere)
        for i in range(len(part.blocks))
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_fuzzy_contradictions():
    net = hadamard_net([1, 0])
    empty = DirectProductSet.over(net, {"a": {5}})
    part = singleton_partition(net, ["b"])
    with pytest.raises(ContradictoryEvidence):
        quantum_fuzzy_distribution(net, part, empty)
    cnet = random_cbnet(1)
    alpha = cnet.all_components[0]
    bad = DirectProductSet.over(cnet, {alpha: {99}})
    with pytest.raises(ContradictoryEvidence):
        classical_fuzzy_conditional(cnet, bad, bad)
