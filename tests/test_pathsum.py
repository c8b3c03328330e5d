import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbnet import catalog
from qbnet.classical import CBNet, chi_classical, classical_conditional, external_mass_map
from qbnet.core import NodeBlock, Weights, external_map
from qbnet.errors import ContradictoryEvidence, InvalidState, StateSpaceTooLarge
from qbnet.pathsum import (
    classify_paths,
    enumerate_paths,
    feynman_integral,
    path_chi,
    path_row,
    pathsum_conditional,
    pathsum_fuzzy_classical,
    pathsum_fuzzy_quantum,
)
from qbnet.quantum import (
    QBNet,
    chi,
    external_amplitude_map,
    parent_cb_net,
    quantum_conditional,
)

from conftest import random_cbnet, random_qbnet

H2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def test_paths_and_integral_by_hand():
    psi = [0.6, 0.8j]
    net = QBNet.from_blocks(
        [NodeBlock("a", [0, 1], psi), NodeBlock("b", [0, 1], H2, parents=("a",))]
    )
    paths = enumerate_paths(net)
    assert len(paths) == 4
    fi = feynman_integral(net)
    s = 1 / math.sqrt(2)
    assert fi[(0,)] == pytest.approx((0.6 + 0.8j) * s, abs=1e-15)
    assert fi[(1,)] == pytest.approx((0.6 - 0.8j) * s, abs=1e-15)
    classes = classify_paths(net)
    assert sorted(len(v) for v in classes.values()) == [2, 2]


def test_zero_support_paths_are_excluded():
    net = QBNet.from_blocks(
        [
            NodeBlock("a", [0, 1], [1.0, 0.0]),
            NodeBlock("b", [0, 1], np.eye(2), parents=("a",)),
        ]
    )
    paths = enumerate_paths(net)
    assert len(paths) == 1
    assert paths[0].value == 1.0
    fi = feynman_integral(net)
    assert set(fi) == {(0,)}


def _assert_routes_key_the_same_configurations(net):
    sums, engine = feynman_integral(net), external_map(net)
    assert set(sums) <= set(engine)
    for key, value in engine.items():
        if key in sums:
            assert abs(sums[key] - value) <= 1e-12, key
        else:
            assert value == 0.0, key  # no nonzero-support path ends here
    assert set(classify_paths(net)) == set(sums)


@pytest.mark.parametrize("entry_id", [e.id for e in catalog.list_entries()])
def test_the_two_routes_key_each_catalog_nets_configurations_alike(entry_id):
    _assert_routes_key_the_same_configurations(catalog.build(entry_id))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from([random_cbnet, random_qbnet]), st.integers(0, 10**6))
def test_the_two_routes_key_each_random_nets_configurations_alike(make, seed):
    _assert_routes_key_the_same_configurations(make(seed, zero_frac=0.4))


def test_classical_dual_route_masses():
    for seed in range(15):
        net = random_cbnet(seed + 600, zero_frac=0.3)
        fi = feynman_integral(net)
        for key, mass in external_mass_map(net).items():
            assert fi.get(key, 0.0) == pytest.approx(mass, abs=1e-12)
        assert path_chi(net) == pytest.approx(chi_classical(net), abs=1e-12)


def test_quantum_dual_route_amplitudes():
    for seed in range(15):
        net = random_qbnet(seed + 700, zero_frac=0.3)
        fi = feynman_integral(net)
        for key, amp in external_amplitude_map(net).items():
            assert fi.get(key, 0j) == pytest.approx(amp, abs=1e-12)
        assert path_chi(net) == pytest.approx(chi(net), abs=1e-12)
        alpha = net.all_components[0]
        v = net.space.component_values(alpha)[0]
        assert path_chi(net, {alpha: v}) == pytest.approx(chi(net, {alpha: v}), abs=1e-12)


def _answer(route, *query):
    """The route's answer, or the text of its ContradictoryEvidence."""
    try:
        return route(*query)
    except ContradictoryEvidence as exc:
        return str(exc)


def test_conditionals_agree_including_contradictions():
    agreements = contradictions = 0
    for seed in range(25):
        for kind in ("cb", "qb"):
            net = (
                random_cbnet(seed + 800, zero_frac=0.45)
                if kind == "cb"
                else random_qbnet(seed + 800, zero_frac=0.45)
            )
            comps = list(net.all_components)
            if len(comps) < 2:
                continue
            alpha, beta = comps[0], comps[-1]
            hyp = {beta: net.space.component_values(beta)[0]}
            evidence = {alpha: net.space.component_values(alpha)[-1]}
            reference = (
                classical_conditional if kind == "cb" else quantum_conditional
            )
            want = _answer(reference, net, hyp, evidence)
            got = _answer(pathsum_conditional, net, hyp, evidence)
            assert isinstance(want, str) == isinstance(got, str)
            if isinstance(want, str):
                assert got == want  # the same refusal text on both routes
                contradictions += 1
            else:
                agreements += 1
                assert got == pytest.approx(want, abs=1e-12)
    assert agreements > 0 and contradictions > 0


@pytest.mark.parametrize("cls", [CBNet, QBNet])
def test_a_row_and_a_conditional_refuse_contradictory_evidence_with_one_text(cls):
    net = cls.from_blocks([NodeBlock("a", [0, 1, 2], [0.6, 0.8, 0.0]),
                           NodeBlock("b", [0, 1], np.ones((2, 3)) * 0.5, parents=("a",))])
    evidence = {"a": 2}  # as given, not as the value set {2}
    texts = {
        _answer(lambda: Weights(net, ("b",), evidence).row(("b",))),
        _answer(lambda: path_row(net, ("b",), evidence)),
        _answer(lambda: classical_conditional(net, {"b": 0}, evidence)),
        _answer(lambda: pathsum_conditional(net, {"b": 0}, evidence)),
    }
    assert texts == {"evidence {'a': 2} has zero weight"}


@pytest.mark.parametrize("route", ["classical", "quantum", "pathsum-quantum", "pathsum-parent"])
def test_every_route_rejects_an_unrealizable_hypothesis_value(route, monkeypatch):
    net = catalog.build("fig19-loop")
    parent = parent_cb_net(net)
    conditional, target = {
        "classical": (classical_conditional, parent),
        "quantum": (quantum_conditional, net),
        "pathsum-quantum": (pathsum_conditional, net),
        "pathsum-parent": (pathsum_conditional, parent),
    }[route]
    with pytest.raises(InvalidState, match=r"u\.plus=7 .*\[0, 1\]"):
        conditional(target, {"u.plus": 7}, {})
    with pytest.raises(InvalidState, match=r"^u\.plus='1' is outside the component's values"):
        conditional(target, {"u.plus": "1"}, {})
    for array in (np.array([1]), np.array([0, 1])):  # not one number, whatever its entries
        with pytest.raises(InvalidState, match=r"^u\.plus=array\(\[.*\]\) is outside the comp"):
            conditional(target, {"u.plus": array}, {})
    want = conditional(target, {"u.plus": 1}, {})
    for whole in (np.int64(1), 1.0, True, np.array(1)):  # answered as the int it equals
        assert conditional(target, {"u.plus": whole}, {}) == want
    monkeypatch.setattr(Weights, "__init__", lambda *args: pytest.fail("a weight was read"))
    with pytest.raises(InvalidState, match=r"^hypothesis component z\.plus is not pinned$"):
        conditional(target, {"u.plus": 1, "z.plus": None}, {})


def test_pre_net_paths():
    from qbnet.classical import CBNet

    delta = np.eye(2)
    net = CBNet.from_blocks(
        [
            NodeBlock("u", [0, 1], delta, parents=("w",)),
            NodeBlock("w", [0, 1], delta, parents=("u",)),
        ],
        pre_net=True,
    )
    paths = enumerate_paths(net)
    assert len(paths) == 2
    assert path_chi(net) == 2.0


def test_path_count_matches_parent_support():
    import itertools

    from qbnet.quantum import joint_amplitude

    for seed in range(10):
        net = random_qbnet(seed + 900, zero_frac=0.4)
        nodes = list(net.graph.nodes)
        support = 0
        for combo in itertools.product(*[net.space.states(n) for n in nodes]):
            if joint_amplitude(net, dict(zip(nodes, combo))) != 0:
                support += 1
        assert len(enumerate_paths(net)) == support


def test_fuzzy_mirrors_agree():
    from qbnet.fuzzy import (
        DirectProductSet,
        classical_fuzzy_conditional,
        quantum_fuzzy_conditional,
        singleton_partition,
    )

    rng = np.random.default_rng(5)
    for seed in range(8):
        cnet = random_cbnet(seed + 950, max_nodes=4)
        comps = list(cnet.all_components)
        alpha, beta = comps[0], comps[-1]
        hyp = DirectProductSet.over(
            cnet, {alpha: set(cnet.space.component_values(alpha)[:2])}
        )
        evi = DirectProductSet.over(
            cnet, {beta: set(cnet.space.component_values(beta)[-2:])}
        )
        want = classical_fuzzy_conditional(cnet, hyp, evi)
        assert pathsum_fuzzy_classical(cnet, hyp, evi) == pytest.approx(want, abs=1e-12)

        qnet = random_qbnet(seed + 950, max_nodes=4)
        qc = list(qnet.all_components)
        part = singleton_partition(qnet, [qc[0]])
        evi_q = DirectProductSet.over(
            qnet, {qc[-1]: set(qnet.space.component_values(qc[-1])[:1])}
        )
        idx = int(rng.integers(len(part.blocks)))
        want_q = quantum_fuzzy_conditional(qnet, part, idx, evi_q)
        got_q = pathsum_fuzzy_quantum(qnet, part, idx, evi_q)
        assert got_q == pytest.approx(want_q, abs=1e-12)


def test_path_enumeration_respects_cap(monkeypatch):
    net = random_qbnet(3)
    monkeypatch.setenv("QBNET_MAX_STATES", "2")
    with pytest.raises(StateSpaceTooLarge):
        enumerate_paths(net)
