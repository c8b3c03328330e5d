import itertools

import numpy as np
import pytest

from qbnet.classical import (
    CBNet,
    chi_classical,
    classical_conditional,
    coarsen,
    joint_probability,
    total_mass,
    validate,
)
from qbnet.core import NodeBlock
from qbnet.errors import ContradictoryEvidence, CyclicGraph

from conftest import random_cbnet


def and_gate_net(px=0.5, py=0.5):
    bx = NodeBlock("x", [0, 1], [1 - px, px])
    by = NodeBlock("y", [0, 1], [1 - py, py])
    bz = NodeBlock(
        "z",
        [0, 1],
        lambda s, ps: 1.0 if s[0] == (ps[0][0] & ps[1][0]) else 0.0,
        parents=("x", "y"),
    )
    return CBNet.from_blocks([bx, by, bz])


def test_and_gate_joint_and_mass():
    net = and_gate_net()
    assert joint_probability(net, {"x": 1, "y": 1, "z": 1}) == pytest.approx(0.25)
    assert joint_probability(net, {"x": 1, "y": 0, "z": 1}) == 0.0
    assert total_mass(net) == pytest.approx(1.0, abs=1e-12)
    assert net.external_components == ("z",)


def test_and_gate_conditionals():
    net = and_gate_net()
    assert classical_conditional(net, {"z": 1}, {"x": 1}) == pytest.approx(0.5)
    assert classical_conditional(net, {"z": 1}, {"x": 1, "y": 1}) == pytest.approx(1.0)
    assert classical_conditional(net, {"x": 1}, {"z": 1}) == pytest.approx(1.0)
    # no evidence at all is allowed: plain marginal
    assert classical_conditional(net, {"z": 1}, {}) == pytest.approx(0.25)


def test_conditional_argument_checks():
    net = and_gate_net()
    with pytest.raises(ValueError, match="overlap"):
        classical_conditional(net, {"z": 1}, {"z": 0})
    with pytest.raises(ValueError, match="empty"):
        classical_conditional(net, {}, {"x": 1})
    with pytest.raises(KeyError):
        chi_classical(net, {"nope": 0})


def test_contradictory_evidence():
    net = and_gate_net(px=1.0)
    with pytest.raises(ContradictoryEvidence):
        classical_conditional(net, {"z": 1}, {"x": 0})


def test_delta_two_cycle_mass_is_two():
    delta = np.eye(2)
    bu = NodeBlock("u", [0, 1], delta, parents=("w",))
    bw = NodeBlock("w", [0, 1], delta, parents=("u",))
    net = CBNet.from_blocks([bu, bw], pre_net=True)
    assert total_mass(net) == 2.0
    with pytest.raises(CyclicGraph):
        CBNet.from_blocks([bu, bw])


def test_chapman_kolmogorov_chain():
    rng = np.random.default_rng(7)
    ka, kb, kc = 2, 3, 2
    ta = rng.random(ka)
    ta /= ta.sum()
    tb = rng.random((kb, ka))
    tb /= tb.sum(axis=0)
    tc = rng.random((kc, kb))
    tc /= tc.sum(axis=0)
    net = CBNet.from_blocks(
        [
            NodeBlock("a", list(range(ka)), ta),
            NodeBlock("b", list(range(kb)), tb, parents=("a",)),
            NodeBlock("c", list(range(kc)), tc, parents=("b",)),
        ]
    )
    product = tc @ tb
    for i in range(ka):
        for k in range(kc):
            got = classical_conditional(net, {"c": k}, {"a": i})
            assert got == pytest.approx(product[k, i], abs=1e-12)


def test_random_net_mass_and_joint():
    for seed in range(12):
        net = random_cbnet(seed)
        assert total_mass(net) == pytest.approx(1.0, abs=1e-9)
        rng = np.random.default_rng(seed + 1000)
        assignment = {
            n: net.space.states(n)[rng.integers(len(net.space.states(n)))]
            for n in net.graph.nodes
        }
        by_hand = 1.0
        for n in net.graph.nodes:
            ps = [assignment[p] for p in net.parents(n)]
            by_hand *= net.entry(n, assignment[n], ps)
        assert joint_probability(net, assignment) == pytest.approx(by_hand, abs=1e-14)


def test_random_net_conditionals_sum_to_one():
    for seed in range(8):
        net = random_cbnet(seed + 50)
        comps = list(net.all_components)
        alpha, beta = comps[0], comps[-1]
        if alpha == beta:
            continue
        evidence = {alpha: net.space.component_values(alpha)[0]}
        total = sum(
            classical_conditional(net, {beta: v}, evidence)
            for v in net.space.component_values(beta)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_validate_good_and_bad():
    assert validate(and_gate_net()).ok

    bad_col = NodeBlock("x", [0, 1], [0.6, 0.6])
    ext = NodeBlock("z", [0, 1], np.full((2, 2), 0.5), parents=("x",))
    report = validate(CBNet.from_blocks([bad_col, ext]))
    assert not report.ok
    assert any("sums to 1.2" in p for p in report.problems)

    neg = NodeBlock("x", [0, 1], [1.5, -0.5])
    report = validate(CBNet.from_blocks([neg, ext]))
    assert any("negative" in p for p in report.problems)

    for value in (np.nan, np.inf):
        report = validate(CBNet.from_blocks([NodeBlock("x", [0, 1], [value, 0.5]), ext]))
        assert "node 'x': non-finite entry at state 0, column 0" in report.problems
        assert any("column 0 sums to" in p for p in report.problems)

    delta = np.eye(2)
    cyc = CBNet.from_blocks(
        [
            NodeBlock("u", [0, 1], delta, parents=("w",)),
            NodeBlock("w", [0, 1], delta, parents=("u",)),
        ],
        pre_net=True,
    )
    report = validate(cyc)
    assert any("cycle" in p for p in report.problems)


# -- coarsening -------------------------------------------------------------


def brute_marginal(net, nodes, assignment):
    """Marginal probability of {node: state} over `nodes` by full enumeration."""
    others = [n for n in net.graph.nodes if n not in nodes]
    total = 0.0
    for combo in itertools.product(*[net.space.states(n) for n in others]):
        full = dict(assignment)
        full.update(zip(others, combo))
        total += joint_probability(net, full)
    return total


def test_coarsen_keep_all_preserves_joint():
    import itertools

    net = and_gate_net()
    same = coarsen(net, ["x", "y", "z"])
    # every kept node conditions on all of its chronological predecessors
    chron = list(net.chronological)
    for i, n in enumerate(chron):
        assert same.parents(n) == tuple(chron[:i])
    for combo in itertools.product(*[net.space.states(n) for n in chron]):
        assignment = dict(zip(chron, combo))
        assert joint_probability(same, assignment) == pytest.approx(
            joint_probability(net, assignment), abs=1e-12
        )


def test_coarsen_chain_matches_matrix_product():
    rng = np.random.default_rng(3)
    tb = rng.random((3, 2))
    tb /= tb.sum(axis=0)
    tc = rng.random((2, 3))
    tc /= tc.sum(axis=0)
    net = CBNet.from_blocks(
        [
            NodeBlock("a", [0, 1], [0.3, 0.7]),
            NodeBlock("b", [0, 1, 2], tb, parents=("a",)),
            NodeBlock("c", [0, 1], tc, parents=("b",)),
        ]
    )
    small = coarsen(net, ["a", "c"])
    assert small.graph.nodes == ("a", "c")
    assert small.parents("c") == ("a",)
    np.testing.assert_allclose(small.table("c"), tc @ tb, atol=1e-14)

    tiny = coarsen(net, ["c"])
    expect = tc @ tb @ np.array([0.3, 0.7])
    np.testing.assert_allclose(tiny.table("c")[:, 0], expect, atol=1e-14)


def test_coarsen_drops_childless_nodes():
    net = and_gate_net()
    small = coarsen(net, ["x", "y"])
    assert set(small.graph.nodes) == {"x", "y"}
    assert total_mass(small) == pytest.approx(1.0, abs=1e-12)


def test_coarsen_preserves_marginals_random():
    for seed in range(10):
        net = random_cbnet(seed + 200, max_nodes=5)
        rng = np.random.default_rng(seed)
        nodes = list(net.graph.nodes)
        keep = sorted(
            rng.choice(nodes, size=rng.integers(1, len(nodes) + 1), replace=False)
        )
        small = coarsen(net, keep)
        assert set(small.graph.nodes) == set(keep)
        for combo in itertools.product(*[net.space.states(n) for n in keep]):
            assignment = dict(zip(keep, combo))
            want = brute_marginal(net, keep, assignment)
            got = joint_probability(small, assignment)
            assert got == pytest.approx(want, abs=1e-12)


def test_coarsen_deterministic_and_order_insensitive():
    net = random_cbnet(42, max_nodes=5)
    nodes = list(net.graph.nodes)
    keep = nodes[: max(1, len(nodes) - 1)]
    a = coarsen(net, keep)
    b = coarsen(net, list(reversed(keep)))
    assert list(a.graph.nodes) == list(b.graph.nodes)
    for n in a.graph.nodes:
        assert a.parents(n) == b.parents(n)
        assert np.array_equal(a.table(n), b.table(n))
        assert a.table(n).sum(axis=0) == pytest.approx(
            np.ones(a.table(n).shape[1]), abs=1e-9
        )


@pytest.mark.parametrize("net_id, name", [("fig9-and", "z"), ("fig12-clauser-horne", "x1")])
def test_coarsen_reads_a_string_as_one_node_name(net_id, name):
    from qbnet.catalog import build

    net = build(net_id)
    one, listed = coarsen(net, name), coarsen(net, [name])
    assert one.graph.nodes == listed.graph.nodes == (name,)
    assert one.table(name).tobytes() == listed.table(name).tobytes()


def test_coarsen_argument_checks():
    net = and_gate_net()
    with pytest.raises(KeyError):
        coarsen(net, ["x", "ghost"])
    with pytest.raises(ValueError):
        coarsen(net, [])


def test_coarsen_diamond_generalizes_the_chain_product():
    # a feeds b and c, which jointly feed d; dropping the middle layer
    # must leave the double-sum transition sum_{b,c} P(d|b,c)P(b|a)P(c|a)
    for seed in range(8):
        rng = np.random.default_rng(900 + seed)
        ka, kb, kc, kd = (int(rng.integers(2, 4)) for _ in range(4))
        ta = rng.random(ka)
        ta /= ta.sum()
        tb = rng.random((kb, ka))
        tb /= tb.sum(axis=0)
        tc = rng.random((kc, ka))
        tc /= tc.sum(axis=0)
        td = rng.random((kd, kb * kc))
        td /= td.sum(axis=0)
        net = CBNet.from_blocks(
            [
                NodeBlock("a", list(range(ka)), ta),
                NodeBlock("b", list(range(kb)), tb, parents=("a",)),
                NodeBlock("c", list(range(kc)), tc, parents=("a",)),
                NodeBlock("d", list(range(kd)), td, parents=("b", "c")),
            ]
        )
        want = np.zeros((kd, ka))
        for i in range(ka):
            for j in range(kb):
                for k in range(kc):
                    want[:, i] += td[:, j * kc + k] * tb[j, i] * tc[k, i]
        small = coarsen(net, ["a", "d"])
        assert small.parents("d") == ("a",)
        np.testing.assert_allclose(small.table("d"), want, atol=1e-12)
        for i in range(ka):
            for m in range(kd):
                got = classical_conditional(net, {"d": m}, {"a": i})
                assert got == pytest.approx(want[m, i], abs=1e-12)
