"""The contraction engine against the dense reference and the path sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbnet import catalog
from qbnet.classical import CBNet, chi_classical, external_mass_map, total_mass
from qbnet.core import NodeBlock, contract, filter_mask
from qbnet.errors import StateSpaceTooLarge
from qbnet.lattice import LatticeSpec, build_lattice_net, potential_preset, propagate
from qbnet.pathsum import path_chi
from qbnet.quantum import (
    QBNet,
    chi,
    external_amplitude_map,
    parent_cb_net,
    total_squared_amplitude,
)

from conftest import random_cbnet, random_qbnet


def dense_chi(net, fixed):
    """chi from the full joint vector and a full-length mask."""
    en = net.enumeration()
    mask = filter_mask(net, fixed)
    values = en.values if mask is None else np.where(mask, en.values, 0)
    if net.kind != "quantum":
        return float(values.sum())
    re = np.bincount(en.ext_group, weights=values.real, minlength=en.n_ext)
    im = np.bincount(en.ext_group, weights=values.imag, minlength=en.n_ext)
    return float((re * re + im * im).sum())


@st.composite
def nets_and_filters(draw):
    make = draw(st.sampled_from([random_cbnet, random_qbnet]))
    net = make(
        draw(st.integers(0, 2**32 - 1)),
        max_nodes=draw(st.integers(2, 6)),
        edge_prob=draw(st.sampled_from([0.2, 0.5, 0.9])),
        zero_frac=draw(st.sampled_from([0.0, 0.3, 0.6])),
    )
    fixed = {}
    for alpha in draw(st.lists(st.sampled_from(net.all_components), unique=True)):
        values = net.space.component_values(alpha)
        fixed[alpha] = frozenset(draw(st.lists(st.sampled_from(values), min_size=1, unique=True)))
    return net, fixed


@settings(derandomize=True, max_examples=150, deadline=None)
@given(nets_and_filters())
def test_engine_agrees_with_dense_and_path_sums(case):
    net, fixed = case
    engine = chi if net.kind == "quantum" else chi_classical
    got = engine(net, fixed)
    assert got == pytest.approx(dense_chi(net, fixed), abs=1e-12)
    assert got == pytest.approx(path_chi(net, fixed), abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_external_maps_agree_with_dense(seed):
    qnet = random_qbnet(seed + 40, max_nodes=5, zero_frac=0.3)
    en = qnet.enumeration()
    re = np.bincount(en.ext_group, weights=en.values.real, minlength=en.n_ext)
    im = np.bincount(en.ext_group, weights=en.values.imag, minlength=en.n_ext)
    amps = external_amplitude_map(qnet)
    assert list(amps) == en.group_values(qnet)
    np.testing.assert_allclose(list(amps.values()), re + 1j * im, atol=1e-12)
    assert total_squared_amplitude(qnet) == pytest.approx(1.0, abs=1e-12)

    cnet = random_cbnet(seed + 40, max_nodes=5, zero_frac=0.3)
    en = cnet.enumeration()
    mass = external_mass_map(cnet)
    assert list(mass) == en.group_values(cnet)
    np.testing.assert_allclose(
        list(mass.values()), np.bincount(en.ext_group, weights=en.values), atol=1e-12
    )


def test_cyclic_pre_net_mass_is_exactly_two():
    assert total_mass(catalog.build("fig4-cycle")) == 2.0


def test_a_net_without_nodes_has_the_empty_product_as_mass():
    assert total_mass(CBNet.from_blocks([])) == 1.0


def test_nets_of_one_structure_share_plans():
    net = catalog.build("fig19-loop")
    parent = parent_cb_net(net)
    for open_nodes in ((), net.external_order):
        contract(net, open_nodes)
        contract(parent, open_nodes)
        assert parent._plans[open_nodes] is net._plans[open_nodes]


def test_sixty_node_binary_chain_matches_the_transition_product():
    rng = np.random.default_rng(60)
    start = rng.random(2)
    start /= start.sum()
    blocks = [NodeBlock("x0", [0, 1], start)]
    want = start
    for i in range(1, 60):
        step = rng.random((2, 2))
        step /= step.sum(axis=0)
        blocks.append(NodeBlock(f"x{i}", [0, 1], step, parents=(f"x{i-1}",)))
        want = step @ want
    net = CBNet.from_blocks(blocks)
    assert math.prod(len(net.space.states(n)) for n in net.graph.nodes) == 2**60
    assert total_mass(net) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(list(external_mass_map(net).values()), want, atol=1e-12)
    assert chi_classical(net, {"x59": 1, "x30": {0, 1}}) == pytest.approx(want[1], abs=1e-12)


def test_lattice_past_the_joint_cap_matches_propagation(monkeypatch):
    spec = LatticeSpec.make(8, 1.0, 8, 0.2, potential=potential_preset("harmonic", 8.0, 1.0))
    monkeypatch.setenv("QBNET_MAX_STATES", str(8**8))
    net = build_lattice_net(spec)
    monkeypatch.delenv("QBNET_MAX_STATES")
    psi = propagate(spec)
    amps = external_amplitude_map(net)
    np.testing.assert_allclose(list(amps.values()), psi, atol=1e-12)
    for s in range(8):
        assert chi(net, {f"t8.x{s}": 1}) == pytest.approx(abs(psi[s]) ** 2, abs=1e-12)


def test_cap_refusal_names_the_step(monkeypatch):
    net = QBNet.from_blocks(
        [
            NodeBlock("a", [0, 1], [0.6, 0.8]),
            NodeBlock("b", [0, 1, 2], np.eye(3)[:, :2], parents=("a",)),
        ]
    )
    monkeypatch.setenv("QBNET_MAX_STATES", "5")
    with pytest.raises(StateSpaceTooLarge) as err:
        chi(net)
    assert str(err.value) == (
        "contraction step over nodes a, b spans 6 index states, over the cap of 5"
    )
    monkeypatch.setenv("QBNET_MAX_STATES", "6")
    assert chi(net) == pytest.approx(1.0, abs=1e-12)


def test_open_nodes_come_back_in_the_asked_order():
    net = random_cbnet(7, max_nodes=4, edge_prob=0.9)
    nodes = net.node_order()
    joint = contract(net, nodes)
    np.testing.assert_allclose(joint.reshape(-1), net.enumeration().values, atol=1e-15)
    np.testing.assert_allclose(contract(net, nodes[::-1]), joint.T)
