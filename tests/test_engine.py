"""The contraction engine against the dense reference and the path sums."""

import collections
import importlib
import inspect
import itertools
import math
import os
import pkgutil
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbnet
from qbnet import catalog, core, quantum
from qbnet.classical import (
    CBNet,
    chi_classical,
    classical_conditional,
    external_mass_map,
    total_mass,
)
from qbnet.core import (
    BaseNet,
    NodeBlock,
    Weights,
    conditional,
    contract,
    distribution,
    filter_mask,
    value_blocks,
)
from qbnet.errors import ContradictoryEvidence, CyclicGraph, InvalidState, StateSpaceTooLarge
from qbnet.graph import LabelledGraph
from qbnet.fuzzy import (
    DirectProductSet,
    classical_fuzzy_conditional,
    quantum_fuzzy_distribution,
    singleton_partition,
)
from qbnet.lattice import (
    LatticeSpec,
    build_lattice_net,
    potential_preset,
    propagate,
    step_amplitudes_exact,
)
from qbnet.pathsum import path_chi, path_row, pathsum_conditional
from qbnet.quantum import (
    QBNet,
    chi,
    external_amplitude_map,
    f_qna,
    parent_cb_net,
    quantum_conditional,
    total_squared_amplitude,
    validate_quantum,
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


def _external_keys(net):
    """Each external configuration's component values, the last external node fastest."""
    states = [net.space.states(n) for n in net.external_order]
    return [sum(combo, ()) for combo in itertools.product(*states)]


@pytest.mark.parametrize("seed", range(8))
def test_external_maps_agree_with_dense(seed):
    qnet = random_qbnet(seed + 40, max_nodes=5, zero_frac=0.3)
    en = qnet.enumeration()
    re = np.bincount(en.ext_group, weights=en.values.real, minlength=en.n_ext)
    im = np.bincount(en.ext_group, weights=en.values.imag, minlength=en.n_ext)
    amps = external_amplitude_map(qnet)
    assert list(amps) == _external_keys(qnet)
    np.testing.assert_allclose(list(amps.values()), re + 1j * im, atol=1e-12)
    assert total_squared_amplitude(qnet) == pytest.approx(1.0, abs=1e-12)

    cnet = random_cbnet(seed + 40, max_nodes=5, zero_frac=0.3)
    en = cnet.enumeration()
    mass = external_mass_map(cnet)
    assert list(mass) == _external_keys(cnet)
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
    assert parent.space is net.space is catalog.build("fig19-loop").space
    for open_nodes in ((), net.external_order):
        contract(net, open_nodes)
        misses = net.space.view.cache_info().misses
        contract(parent, open_nodes)
        assert parent.space.view.cache_info().misses == misses
        assert parent.space.view(open_nodes)[0] is net.space.view(open_nodes)[0]


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


# ---------------------------------------------------------------------------
# Weights: every read off one open contraction


# nets whose nodes carry two components each (the magnets and the source)
BEAM_NETS = [catalog.build(fid) for fid in ("fig19-loop", "fig26")]
BEAM_NETS += [parent_cb_net(net) for net in BEAM_NETS]


def _value_sets(draw, net, comps, min_size):
    return {
        alpha: frozenset(
            draw(st.lists(st.sampled_from(net.space.component_values(alpha)),
                          min_size=min_size, unique=True))
        )
        for alpha in comps
    }


@st.composite
def weight_queries(draw):
    """A net, evidence (an empty value set makes it contradict), hypothesis
    components that may share a node or sit in the evidence, and value-set
    blocks over them."""
    if draw(st.booleans()):
        net, evidence = draw(nets_and_filters())
    else:
        net = draw(st.sampled_from(BEAM_NETS))
        picked = draw(st.lists(st.sampled_from(net.all_components), max_size=3, unique=True))
        evidence = _value_sets(draw, net, picked, min_size=1)
    if evidence and draw(st.integers(0, 4)) == 0:
        evidence[draw(st.sampled_from(sorted(evidence)))] = frozenset()
    comps = draw(st.lists(st.sampled_from(net.all_components), min_size=1, max_size=3, unique=True))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        constrained = draw(st.lists(st.sampled_from(comps), unique=True))
        blocks.append(_value_sets(draw, net, constrained, min_size=0))
    return net, tuple(comps), evidence, blocks


@settings(derandomize=True, max_examples=150, deadline=None)
@given(weight_queries())
def test_weights_agree_with_per_block_chi_and_path_sums(query):
    net, comps, evidence, blocks = query
    weights = Weights(net, comps, evidence)
    engine = chi if net.kind == "quantum" else chi_classical
    combos = value_blocks(net, comps)
    for chi_fn in (engine, path_chi):
        assert weights.blocks([{}])[0] == pytest.approx(chi_fn(net, evidence), abs=1e-12)
        want = distribution(chi_fn, net, combos, evidence)
        assert weights.combos(comps) == pytest.approx(want, abs=1e-12)
        want = distribution(chi_fn, net, blocks, evidence)
        assert weights.blocks(blocks) == pytest.approx(want, abs=1e-12)


ROW_NETS = BEAM_NETS + [catalog.build(fid) for fid in ("fig29", "fig13-clauser-horne")]


def _chi_floor(net):
    """The smallest cap under which one chi call per block still answers."""
    return net.space.view(net.external_order if net.kind == "quantum" else ())[0].peak


@st.composite
def row_queries(draw):
    """A net, one or two hypothesis components, evidence on other components
    (possibly none, possibly of zero weight), and a cap: the default, or the
    lowest one that still answers, block by block."""
    if draw(st.booleans()):
        net, evidence = draw(nets_and_filters())
    else:
        net = draw(st.sampled_from(ROW_NETS))
        picked = draw(st.lists(st.sampled_from(net.all_components), max_size=3, unique=True))
        evidence = _value_sets(draw, net, picked, min_size=1)
    comps = draw(st.lists(st.sampled_from(net.all_components), min_size=1, max_size=2, unique=True))
    if draw(st.booleans()):
        evidence = {}
    evidence = {a: v for a, v in evidence.items() if a not in comps}
    cap = draw(st.sampled_from([None, _chi_floor(net)]))
    return net, tuple(comps), evidence, cap


def _opened_plan_peak(net, comps):
    ext = net.external_order if net.kind == "quantum" else ()
    nodes = tuple(dict.fromkeys([*ext, *(net.space.owner(a)[0] for a in comps)]))
    return net.space.view(nodes)[0].peak


def _row(read, net, comps, evidence):
    try:
        return read(net, comps, evidence)
    except ContradictoryEvidence:
        return None


def _weights_row(net, comps, evidence):
    return Weights(net, comps, evidence).row(comps)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(row_queries())
def test_a_row_is_the_conditionals_and_f_qna(query):
    net, comps, evidence, cap = query
    by_paths = _row(path_row, net, comps, evidence)
    try:
        probs = [conditional(net, b, evidence) for b in value_blocks(net, comps)]
        pieces = (probs, f_qna(net, comps, evidence))
    except ContradictoryEvidence:
        pieces = None
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setenv("QBNET_MAX_STATES", str(cap))
            weights = Weights(net, comps, evidence)
            assert weights._wide is False  # nothing is opened before a read misses
            fallback = weights._opened() is None
            assert fallback == (cap < _opened_plan_peak(net, comps))
        got = _row(_weights_row, net, comps, evidence)
    for want in (by_paths, pieces):
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)
    if got is not None:  # f_qna from the chi calls themselves
        combos = distribution(path_chi, net, value_blocks(net, comps), evidence)
        assert got[1] == pytest.approx(sum(combos) / path_chi(net, evidence), abs=1e-12)


def test_a_read_outside_the_opened_nodes_goes_block_by_block():
    net = catalog.build("fig19-loop")
    weights = Weights(net, ("u.plus",), {"z.plus": 1})
    blocks = [{"u.plus": 1, "z.minus": 0}, {"psi._plus": {0, 1}}]
    want = distribution(chi, net, blocks, {"z.plus": 1})
    assert weights.blocks(blocks) == pytest.approx(want, abs=1e-12)


def _cap_floor(net):
    """The smallest cap under which one chi call per block still answers."""
    return max(net.space.view(net.external_order)[0].peak, parent_cb_net(net).space.view(())[0].peak)


def _opened_peak(net, square):
    comps = catalog.query_components(net)
    target = net if square else parent_cb_net(net)
    nodes = tuple(dict.fromkeys([
        *(net.external_order if square else ()), *(net.space.owner(a)[0] for a in comps)
    ]))
    return target.space.view(nodes)[0].peak


def _selector_size(net, square):
    """The size of the runner's selector: chi(E)'s row of ones and every
    single and pair row of the query components, times the opened tensor's
    entries."""
    comps = catalog.query_components(net)
    sets = [(a,) for a in comps] + list(itertools.combinations(comps, 2))
    n_rows = 1 + sum(math.prod(len(net.space.component_values(a)) for a in s) for s in sets)
    nodes = {*(net.external_order if square else ()), *(net.space.owner(a)[0] for a in comps)}
    return n_rows * math.prod(len(net.space.states(n)) for n in nodes)


@pytest.fixture
def layouts(monkeypatch):
    """Every read layout a space builds, as (net kind, spec, rows x tensor
    entries, the layout), the last two None past the cap or off the open nodes."""
    built, layout = [], core._layout

    def counted(space, nodes, n_ext, width, spec, cap):
        got = layout(space, nodes, n_ext, width, spec, cap)
        size = math.prod(len(space.states(n)) for n in nodes)
        built.append(("quantum" if width == 2 else "classical", spec,
                      None if got is None else got[3][-1] * size, got))
        return got

    monkeypatch.setattr(core, "_layout", counted)
    return built


@pytest.mark.parametrize("fid", ["fig23", "fig26", "fig29"])
def test_cap_fallback_gives_the_same_answers(monkeypatch, layouts, fid):
    net = catalog.build(fid)
    partition = singleton_partition(net, catalog.query_components(net)[:2])
    anywhere = DirectProductSet.over(net, {})
    targets = {"quantum": net, "classical": parent_cb_net(net)}
    sizes = {kind: _selector_size(net, kind == "quantum") for kind in targets}
    weigh, per_set = Weights._weigh, set()

    def counted(self, spec, item=None):  # chi(E) or a set's combos, outside the runner's spec
        if len(spec) == 1:
            per_set.add(self.net.kind)
        return weigh(self, spec, item)

    monkeypatch.setattr(Weights, "_weigh", counted)

    def answers():
        per_set.clear()
        layouts.clear()
        net.space.read.cache_clear()  # the quantum net's and its parent's
        for target in targets.values():
            target._last_read = (None, None, None)
        results = catalog.run_evidence_cases(net)
        rows = [(r.no_output, r.errors, [(row.cb, row.qb, row.cb_fqna, row.qb_fqna)
                                         for row in r.rows]) for r in results]
        kept = {kind: [size for k, spec, size, _ in layouts if k == kind and len(spec) > 1 and size]
                for kind in targets}  # the runner's layouts, rows x entries
        reads = (set(per_set), {kind for kind, sizes in kept.items() if sizes})
        return rows, quantum_fuzzy_distribution(net, partition, anywhere), reads, kept

    want = answers()
    assert want[2] == (set(), set(targets))
    assert want[3] == {kind: [size] for kind, size in sizes.items()}
    monkeypatch.setenv("QBNET_MAX_STATES", str(min(sizes.values()) - 1))
    per_set.clear()
    catalog.run_evidence_cases(net)  # the layouts kept above are past this cap
    assert per_set == set(targets)
    peaks = {_opened_peak(net, square) for square in (True, False)} | set(sizes.values())
    floor = _cap_floor(net)
    caps = sorted({c for p in peaks for c in (p - 1, p) if c >= floor} | {floor})
    for cap in caps:  # at or below a selector's size or an opened plan's peak, down to per-block chi
        monkeypatch.setenv("QBNET_MAX_STATES", str(cap))
        got = answers()
        past = {kind for kind, size in sizes.items() if size > cap}
        assert got[2] == (past, set(targets) - past)  # no layout past the cap, one read per set
        assert got[1] == pytest.approx(want[1], abs=1e-12)
        assert len(got[0]) == len(want[0])
        for (no_out, errors, rows), (want_no_out, want_errors, want_rows) in zip(got[0], want[0]):
            assert (no_out, errors, len(rows)) == (want_no_out, want_errors, len(want_rows))
            for row, want_row in zip(rows, want_rows):
                for a, b in zip(row, want_row):
                    assert a == pytest.approx(b, abs=1e-12)


@pytest.fixture
def contract_calls(monkeypatch):
    """Every core.contract call, at each module binding of it."""
    calls = []
    original = core.contract

    def counted(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("open_nodes", ()))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("qbnet") and getattr(module, "contract", None) is original:
            monkeypatch.setattr(module, "contract", counted)
    return calls


def test_an_evidence_case_costs_two_contractions(contract_calls):
    net = catalog.build("fig23")
    case = catalog.default_cases(net)[5]
    (result,) = catalog.run_evidence_cases(net, cases=[case])
    assert not result.no_output and len(result.rows) == 21
    assert len(contract_calls) == 2  # the quantum net and its parent


@pytest.mark.parametrize("per_call", [False, True], ids=["one-call", "one-case-per-call"])
def test_every_default_case_of_a_net_shares_two_contractions(contract_calls, per_call):
    net = catalog.build("fig23")
    cases = catalog.default_cases(net)
    batches = [[case] for case in cases] if per_call else [cases]
    results = [r for batch in batches for r in catalog.run_evidence_cases(net, cases=batch)]
    assert len(results) == len(cases) and not any(r.errors for r in results)
    assert all(bool(r.rows) != r.no_output for r in results)
    assert len(contract_calls) == 2  # the quantum net and its parent, once each
    for batch in batches:  # a second run reuses both
        catalog.run_evidence_cases(net, cases=batch)
    assert len(contract_calls) == 2


@pytest.fixture
def layouts_built(monkeypatch):
    """The width of every read layout a state space builds: 2 (real and
    imaginary parts) for a quantum net's read, 1 for a classical net's."""
    built, layout = [], core._layout

    def counted(space, nodes, n_ext, width, spec, cap):
        built.append(width)
        return layout(space, nodes, n_ext, width, spec, cap)

    monkeypatch.setattr(core, "_layout", counted)
    return built


_GIVEN = {"z.plus": 0}
_ONE_READ = {
    "conditional": lambda t: conditional(t, {"u.plus": 1}, _GIVEN),
    "f_qna": lambda t: f_qna(t, ["u.plus"], _GIVEN),
    "Weights.row": lambda t: Weights(t, ["u.plus", "u.minus"], _GIVEN).row(["u.plus", "u.minus"]),
    "classical_fuzzy_conditional": lambda t: classical_fuzzy_conditional(
        t, DirectProductSet.over(t, {"u.plus": 1, "u.minus": {0, 1}}),
        DirectProductSet.over(t, {"z.plus": {0}})),
    "quantum_fuzzy_distribution": lambda t: quantum_fuzzy_distribution(
        t, singleton_partition(t, ["u.plus"]), DirectProductSet.over(t, {"z.plus": {0}})),
    "run_evidence_cases": catalog.run_evidence_cases,  # reads the quantum net and its parent
}


@pytest.mark.parametrize("query, kind", [(q, k) for q in _ONE_READ for k in ("quantum", "classical")
                                         if (q, k) != ("run_evidence_cases", "classical")])
def test_each_public_query_builds_at_most_one_layout_per_net_kind(layouts_built, query, kind):
    net = catalog.build("fig19-loop")
    target = net if kind == "quantum" else parent_cb_net(net)
    net.space.read.cache_clear()  # the quantum net's and its parent's: a cold space
    _ONE_READ[query](target)
    assert layouts_built and max(collections.Counter(layouts_built).values()) == 1


def test_an_evidence_case_reads_chi_e_once_and_each_row_once_per_net(monkeypatch):
    net = catalog.build("fig23")
    case = catalog.default_cases(net)[5]
    reads = []
    weigh, rows = Weights._weigh, Weights.rows

    def counted_weigh(self, spec, item=None):
        reads.append(("weigh", self.net.kind, len(spec)))
        return weigh(self, spec, item)

    def counted_rows(self, sets):
        reads.append(("rows", self.net.kind, tuple(sets)[0]))
        return rows(self, sets)

    monkeypatch.setattr(Weights, "_weigh", counted_weigh)
    monkeypatch.setattr(Weights, "rows", counted_rows)
    (result,) = catalog.run_evidence_cases(net, cases=[case])
    assert not result.errors and len(result.rows) == 21
    # on the quantum net, then its parent: one read of chi(E)'s set and the
    # 21 others, whose first row (the empty set's, every entry) is chi(E),
    # and no other read
    assert reads == [("rows", "quantum", ()), ("weigh", "quantum", 22),
                     ("rows", "classical", ()), ("weigh", "classical", 22)]
    for target in (net, parent_cb_net(net)):
        (_, spec, *_), rows, ends = target._last_read
        assert len(spec) == 22 and spec[0] == () and ends[:2] == (0, 1)
        assert rows[0] == Weights(target, spec[1], case.as_sets()).blocks([{}])[0]


@pytest.mark.parametrize("evidence", [{}, {"t1.x2": 1}], ids=["no-evidence", "pinned"])
def test_warm_per_site_conditionals_are_read_memo_hits(monkeypatch, contract_calls, evidence):
    spec = LatticeSpec.make(8, 1.0, 3, 0.2, potential=potential_preset("harmonic", 8.0, 1.0))
    net, opened, real = build_lattice_net(spec), [], Weights._opened
    monkeypatch.setattr(Weights, "_opened", lambda self: opened.append(self.net) or real(self))
    got = []
    for s in range(spec.n_x):  # the first call opens the final slice; the rest are hits
        got.append(quantum_conditional(net, {f"t3.x{s}": 1}, evidence))
        assert len(contract_calls) == 1 and opened == [net]
    for s, p in enumerate(got):  # each as a fresh net's first call gives it, bit for bit
        fresh = quantum_conditional(build_lattice_net(spec), {f"t3.x{s}": 1}, evidence)
        assert p.hex() == fresh.hex()


def test_a_cap_set_between_warm_per_site_calls_takes_effect(monkeypatch):
    net, evidence = build_lattice_net(_harmonic_chain()), {"t1.x2": 1}
    sites = [{f"t3.x{s}": 1} for s in range(8)]
    want = [quantum_conditional(net, h, evidence).hex() for h in sites]  # warm from the second
    below = min(_opened_plan_peak(net, ("t3.x0",)), _chi_floor(net)) - 1
    monkeypatch.delenv("QBNET_MAX_STATES", raising=False)
    try:  # set and deleted in os.environ itself, as a caller outside pytest would
        os.environ["QBNET_MAX_STATES"] = str(below)
        for h in sites[:2]:
            with pytest.raises(StateSpaceTooLarge):
                quantum_conditional(net, h, evidence)
        del os.environ["QBNET_MAX_STATES"]
        assert [quantum_conditional(net, h, evidence).hex() for h in sites] == want
        os.environ["QBNET_MAX_STATES"] = "abc"
        with pytest.raises(ValueError) as err:
            quantum_conditional(net, sites[0], evidence)
        assert str(err.value) == "QBNET_MAX_STATES must be a positive integer, got 'abc'"
    finally:
        os.environ.pop("QBNET_MAX_STATES", None)


def _conditional_queries():
    """(net, evidence) pairs: each catalog net that is not a pre-net, with no
    evidence and with every fifth default case's, four random nets of up to
    four values a node, and an 8 x 3 chain unpinned and pinned; a quantum
    net's parent follows it."""
    nets = [net for entry in catalog.list_entries()
            if not (net := catalog.build(entry.id)).pre_net]
    nets += [random_qbnet(seed, max_values=4) for seed in range(4)]
    queries = []
    for net in nets:
        evidence, targets = [{}], (net,)
        if net.kind == "quantum":
            evidence += [case.as_sets() for case in catalog.default_cases(net)[1::5]]
            targets += (parent_cb_net(net),)
        queries += [(t, e) for t in targets for e in evidence]
    chain = build_lattice_net(_harmonic_chain())
    return queries + [(t, e) for e in ({}, {"t1.x2": 1}) for t in (chain, parent_cb_net(chain))]


def test_a_conditional_is_its_combo_over_its_rows_total_bit_for_bit():
    """Each conditional is its entry of ``Weights.row``: its combo over the
    left-to-right sum of its component's combos, neither chi(E) (f_qna is not
    one) nor an exactly rounded sum (``math.fsum`` differs) in its place."""
    off_chi_e = off_fsum = 0
    for net, evidence in _conditional_queries():
        conditional_fn = quantum_conditional if net.kind == "quantum" else classical_conditional
        for alpha in (a for a in net.all_components if a not in evidence):
            weights = Weights(net, (alpha,), evidence)
            combos = weights.combos((alpha,))
            off_fsum += sum(combos) != math.fsum(combos)
            try:
                row, f = weights.row((alpha,))
            except ContradictoryEvidence:
                with pytest.raises(ContradictoryEvidence):
                    conditional_fn(net, {alpha: net.space.component_values(alpha)[0]}, evidence)
                continue
            off_chi_e += f != 1.0
            for v, want in zip(net.space.component_values(alpha), row):
                assert conditional_fn(net, {alpha: v}, evidence) == want, (net, alpha, v, evidence)
    assert off_chi_e > 100 and off_fsum > 5


def test_a_read_has_a_fresh_nets_bits_whatever_the_net_read_before():
    def build():
        return parent_cb_net(catalog.build("fig19-loop"))

    net, comps = build(), build().all_components
    want = {a: Weights(build(), (a,), {}).blocks([{}])[0].hex() for a in comps}
    assert len(set(want.values())) > 1  # the open nodes move chi(E)'s last bits
    for a, b in itertools.product(comps, repeat=2):
        Weights(net, (a,), {}).blocks([{}])[0]
        assert Weights(net, (b,), {}).blocks([{}])[0].hex() == want[b]


def test_an_unknown_open_node_is_named():
    net = catalog.build("fig19-loop")
    for open_nodes in (["nope"], ["u", "nope"]):
        with pytest.raises(KeyError) as err:
            contract(net, open_nodes)
        assert err.value.args == ("unknown node 'nope'",)


@pytest.mark.parametrize("past_cap", [False, True], ids=["opened", "block-by-block"])
def test_a_set_naming_a_component_twice_is_refused(monkeypatch, past_cap):
    net = catalog.build("fig19-loop")
    if past_cap:  # past the opened plan (24), not one chi call's (12)
        monkeypatch.setenv("QBNET_MAX_STATES", str(_chi_floor(net)))
    weights, twice = Weights(net, ["z.plus"], {}), r"^component 'u\.plus' named twice$"
    assert (weights._opened() is None) == past_cap
    reads = [lambda: weights.combos(["u.plus", "u.plus"]),
             lambda: weights.rows([("u.plus", "z.plus", "u.plus")]),
             lambda: f_qna(net, ["u.plus", "u.plus"], {}),
             lambda: path_row(net, ["u.plus", "u.plus"], {}),
             lambda: value_blocks(net, ["z.plus", "u.plus", "u.plus"])]
    for read in reads:
        with pytest.raises(ValueError, match=twice):
            read()
    assert net._last_read[0] is None  # nothing was read, so nothing is kept


def test_a_conditional_costs_one_contraction(contract_calls):
    net = catalog.build("fig19-loop")
    want = chi(net, {"u.plus": 1, "z.minus": 0}) / chi(net, {"z.minus": 0})
    contract_calls.clear()
    assert quantum_conditional(net, {"u.plus": 1}, {"z.minus": 0}) == pytest.approx(want, abs=1e-12)
    assert len(contract_calls) == 1


@st.composite
def runner_cases(draw):
    """A catalog or random quantum net, evidence cases on its query
    components (sharp values, value sets, now and then an empty set) and
    the hypothesis sets to run."""
    if draw(st.booleans()):
        net = draw(st.sampled_from(QUANTUM_NETS))
    else:
        net = random_qbnet(draw(st.integers(0, 2**32 - 1)), max_nodes=draw(st.integers(2, 5)),
                           zero_frac=draw(st.sampled_from([0.0, 0.3, 0.6])))
    comps = catalog.query_components(net)
    cases = []
    for number in range(1, draw(st.integers(1, 4)) + 1):
        constraints = []
        for alpha in draw(st.lists(st.sampled_from(comps), max_size=3, unique=True)):
            values = net.space.component_values(alpha)
            sharp_or_set = st.one_of(
                st.sampled_from(values), st.frozensets(st.sampled_from(values), min_size=1)
            )
            constraints.append((alpha, draw(st.just(frozenset()) if draw(st.integers(0, 7)) == 7
                                            else sharp_or_set)))
        cases.append(catalog.EvidenceCase(number, tuple(constraints)))
    return net, cases, draw(st.sampled_from(["singles", "pairs", "both"]))


def _loop_rows(weights, sets):
    """The per-row recipe as a loop over one product's weights: each combo
    over its set's total, that total over chi(E); None for a zero total."""
    (chi_e,), *combos = weights.rows(((), *sets))
    return [None if sum(w) == 0.0 else ([x / sum(w) for x in w], sum(w) / chi_e) for w in combos]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(runner_cases())
def test_the_runner_normalizes_each_row_as_weights_row_does(query):
    net, cases, hypotheses = query
    comps = catalog.query_components(net)
    pairs = list(itertools.combinations(comps, 2))
    sets = {"singles": [(a,) for a in comps], "pairs": pairs,
            "both": [(a,) for a in comps] + pairs}[hypotheses]
    for case, result in zip(cases, catalog.run_evidence_cases(net, cases, hypotheses)):
        weights = [Weights(target, comps, case.as_sets()) for target in (net, parent_cb_net(net))]
        assert result.no_output == any(w.blocks([{}])[0] == 0.0 for w in weights)
        if result.no_output:
            assert not result.rows and not result.errors
            continue
        qb_loop, cb_loop = (_loop_rows(w, sets) for w in weights)
        rows, errors = iter(result.rows), []
        for s, qb_want, cb_want in zip(sets, qb_loop, cb_loop):
            try:
                qb, cb = (w.row(s) for w in weights)
            except ContradictoryEvidence:
                errors.append(f"{s}: zero weight under this evidence")
                assert qb_want is None or cb_want is None
                continue
            row = next(rows)
            assert row.components == s and row.combos == net.space.combos(s)
            assert qb_want is not None and cb_want is not None
            # bit for bit the per-row loop over the same product, and Weights.row:
            # a row reads alike whatever other rows share its product
            assert (list(row.qb), row.qb_fqna, list(row.cb), row.cb_fqna) == (*qb_want, *cb_want)
            assert (list(row.qb), row.qb_fqna, list(row.cb), row.cb_fqna) == (*qb, *cb)
        assert next(rows, None) is None and result.errors == errors


@settings(derandomize=True, max_examples=150, deadline=None)
@given(runner_cases())
def test_every_read_form_gives_a_row_the_same_bits(query):
    net, cases, _ = query
    comps = catalog.query_components(net)
    sets = [(a,) for a in comps] + list(itertools.combinations(comps, 2))
    for case, target in itertools.product(cases, (net, parent_cb_net(net))):
        evidence = case.as_sets()
        (chi_e,), *rows = Weights(target, comps, evidence).rows(((), *sets))  # the runner's read
        assert Weights(target, comps, evidence).blocks([{}])[0] == chi_e
        for s, row in zip(sets, rows):
            weights = Weights(target, comps, evidence)
            assert weights.blocks(value_blocks(target, s)) == weights.combos(s) == row


def test_a_set_of_zero_weight_is_recorded_and_the_rest_of_the_case_runs(monkeypatch):
    # with chi(E) nonzero, a set's combos vanish only through round-off, so zero them here
    net = catalog.build("fig23")
    case = catalog.default_cases(net)[5]
    (want,) = catalog.run_evidence_cases(net, cases=[case])
    dead, rows, combos = (catalog.query_components(net)[1],), Weights.rows, Weights.combos
    zeros = [0.0] * len(net.space.combos(dead))
    for target in (net, parent_cb_net(net)):
        monkeypatch.setattr(Weights, "rows", lambda self, sets: [
            zeros if s == dead and self.net is target else w for s, w in zip(sets, rows(self, sets))])
        monkeypatch.setattr(Weights, "combos", lambda self, comps: (
            zeros if tuple(comps) == dead and self.net is target else combos(self, comps)))
        (got,) = catalog.run_evidence_cases(net, cases=[case])
        assert not got.no_output and got.errors == [f"{dead}: zero weight under this evidence"]
        assert got.rows == [row for row in want.rows if row.components != dead]
        with pytest.raises(ContradictoryEvidence, match="has zero weight"):  # the one-set case
            Weights(target, dead, case.as_sets()).row(dead)


def test_a_lower_cap_between_two_runner_calls_takes_effect(monkeypatch):
    net = catalog.build("fig26")
    case = catalog.default_cases(net)[3]
    caps, opened = [], Weights._opened

    def spied(self):
        caps.append(self.cap)
        return opened(self)

    monkeypatch.setattr(Weights, "_opened", spied)
    (want,) = catalog.run_evidence_cases(net, cases=[case])
    assert not want.no_output and want.rows and caps == [core.DEFAULT_MAX_STATES] * 2
    monkeypatch.setenv("QBNET_MAX_STATES", str(_cap_floor(net)))
    (got,) = catalog.run_evidence_cases(net, cases=[case])  # both nets' tensors are cached
    assert caps[2:] == [_cap_floor(net)] * 2
    assert (got.no_output, got.errors) == (want.no_output, want.errors)
    assert len(got.rows) == len(want.rows)
    for row, want_row in zip(got.rows, want.rows):
        for a, b in zip((row.cb, row.qb, row.cb_fqna, row.qb_fqna),
                        (want_row.cb, want_row.qb, want_row.cb_fqna, want_row.qb_fqna)):
            assert a == pytest.approx(b, abs=1e-12)
    monkeypatch.setenv("QBNET_MAX_STATES", "1")
    with pytest.raises(StateSpaceTooLarge):
        catalog.run_evidence_cases(net, cases=[case])


# ---------------------------------------------------------------------------
# What a net caches: the last opened tensor and the parent net


def test_final_site_conditionals_share_one_contraction(contract_calls):
    spec = LatticeSpec.make(8, 1.0, 3, 0.2, potential=potential_preset("harmonic", 8.0, 1.0))
    net = build_lattice_net(spec)
    got = [quantum_conditional(net, {f"t3.x{s}": 1}, {}) for s in range(8)]
    np.testing.assert_allclose(got, np.abs(propagate(spec)) ** 2, atol=1e-12)
    assert len(contract_calls) == 1
    assert not net._last_opened[1].flags.writeable
    quantum_conditional(net, {"t3.x0": 1}, {"t1.x4": 1})  # new evidence
    assert len(contract_calls) == 2
    quantum_conditional(net, {"t3.x5": 1}, {"t1.x4": 1})
    assert len(contract_calls) == 2
    quantum_conditional(net, {"t2.x0": 1}, {"t1.x4": 1})  # another hypothesis node
    assert len(contract_calls) == 3
    quantum_conditional(net, {"t3.x0": 1}, {"t1.x4": 1})  # one entry: the first is gone
    assert len(contract_calls) == 4


LATTICE_SPEC = LatticeSpec.make(6, 1.0, 4, 0.2, potential=potential_preset("harmonic", 6.0, 1.0))


def _propagated_weight(spec, pins):
    """The final slice's total |amplitude|^2 from site 0 by step-matrix
    propagation, each (slice, site, value) pin keeping only that site (1) or
    dropping it (0) at its slice."""
    step = step_amplitudes_exact(spec).matrix
    psi = np.eye(spec.n_x, dtype=complex)[0]
    for t in range(1, spec.n_t + 1):
        psi = step @ psi
        for _, site, value in (p for p in pins if p[0] == t):
            keep = np.arange(spec.n_x) == site
            psi = np.where(keep if value else ~keep, psi, 0)
    return float((np.abs(psi) ** 2).sum())


@pytest.mark.parametrize("cap", [None, 71], ids=["default-cap", "node-read-past-cap"])
def test_per_site_conditionals_match_a_fresh_net_and_propagation(monkeypatch, cap):
    net, fresh_nets = build_lattice_net(LATTICE_SPEC), iter(
        [build_lattice_net(LATTICE_SPEC) for _ in range(3 * 2 * LATTICE_SPEC.n_x)]
    )
    if cap is not None:  # past the whole-node read (6 x 12 rows), not one component's (6 x 2)
        monkeypatch.setenv("QBNET_MAX_STATES", str(cap))
    a, b = {"t1.x2": 1}, {"t3.x0": 0}
    for t in (4, 2):  # the final slice, then a middle one
        for evidence in (a, b, a):
            pins = [(int(k[1]), int(k[-1]), v) for k, v in evidence.items()]
            for site in range(LATTICE_SPEC.n_x):
                hypothesis = {f"t{t}.x{site}": 1}
                got = quantum_conditional(net, hypothesis, evidence)
                fresh = quantum_conditional(next(fresh_nets), hypothesis, evidence)
                on = _propagated_weight(LATTICE_SPEC, [*pins, (t, site, 1)])
                want = on / (on + _propagated_weight(LATTICE_SPEC, [*pins, (t, site, 0)]))
                assert got == pytest.approx(fresh, abs=1e-12)
                assert got == pytest.approx(want, abs=1e-12)


def test_a_lattice_chain_shares_its_state_list_and_one_read_of_the_final_slice(
    monkeypatch, contract_calls, layouts
):
    spec = LatticeSpec.make(16, 1.0, 4, 0.2, potential=potential_preset("well", 16.0, 1.0))
    net = build_lattice_net(spec)
    assert net.space.states("t1") is net.space.states("t4")
    net.space.read.cache_clear()
    products, weigh = [], Weights._weigh

    def kept_rows(self, *args):  # the rows each read leaves as the net's last read
        got = weigh(self, *args)
        products.append(self.net._last_read[1])
        return got

    monkeypatch.setattr(Weights, "_weigh", kept_rows)
    got = [quantum_conditional(net, {f"t4.x{s}": 1}, {}) for s in range(16)]
    np.testing.assert_allclose(got, np.abs(propagate(spec)) ** 2, atol=1e-12)
    # one layout, every component of t4 one set each, read by one product
    assert len(contract_calls) == 1
    assert [(kind, spec) for kind, spec, *_ in layouts] == [("quantum", net.space.components("t4"))]
    assert len(products) == 16 and len({id(rows) for rows in products}) == 1
    fresh = build_lattice_net(spec)  # a chain of the same shape builds no layout
    quantum_conditional(fresh, {"t4.x3": 1}, {})
    assert len(layouts) == 1


QUANTUM_NETS = [catalog.build(e.id) for e in catalog.list_entries() if e.kind == "quantum"]
# a lattice net: eight components on each node, so a set can hold two of one node
LATTICE_NET = build_lattice_net(
    LatticeSpec.make(4, 1.0, 2, 0.2, potential=potential_preset("harmonic", 4.0, 1.0))
)
ROWS_NETS = QUANTUM_NETS + [parent_cb_net(net) for net in QUANTUM_NETS] + [LATTICE_NET]


@st.composite
def rows_queries(draw):
    """A net, evidence (or none), the components a Weights opens, and sets
    over them: any size from the empty set up, repeats allowed, often two
    components of one node, sometimes a component the Weights does not open,
    sometimes just one set."""
    if draw(st.booleans()):
        net, evidence = draw(nets_and_filters())
    else:
        net = draw(st.sampled_from(ROWS_NETS))
        picked = draw(st.lists(st.sampled_from(net.all_components), max_size=2, unique=True))
        evidence = _value_sets(draw, net, picked, min_size=1)
    if draw(st.booleans()):
        evidence = {}
    node = draw(st.sampled_from(net.node_order()))  # up to two components of one node
    drawn = draw(st.lists(st.sampled_from(net.all_components), min_size=1, max_size=4, unique=True))
    pool = list(dict.fromkeys([*net.space.components(node)[:2], *drawn]))[:4]
    comps = pool[:-1] if draw(st.integers(0, 4)) == 0 else pool
    one_set = st.lists(st.sampled_from(pool), max_size=2, unique=True).map(tuple)
    sets = draw(st.lists(one_set, min_size=1, max_size=5))
    if draw(st.booleans()):
        sets.insert(draw(st.integers(0, len(sets))), tuple(net.space.components(node)[:2]))
    return net, tuple(comps), evidence, sets


def _rows_example(net, sets, evidence=None):
    comps = tuple(dict.fromkeys(a for s in sets for a in s))
    return example((net, comps, evidence or {}, sets))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rows_queries())
@_rows_example(LATTICE_NET, [("t1.x0", "t1.x3"), ("t1.x0", "t1.x3"), (), ("t0.x2",)])
@_rows_example(LATTICE_NET, [("t1.x0", "t1.x3")], {"t0.x1": 1})
@_rows_example(QUANTUM_NETS[0], [(), ()], {"u.plus": 1})
def test_rows_are_the_combos_of_each_set(query):
    net, comps, evidence, sets = query
    weights = Weights(net, comps, evidence)
    got = weights.rows(sets)
    assert len(got) == len(sets) and weights.rows([]) == weights.blocks([]) == []
    for s, row in zip(sets, got):
        assert row == pytest.approx(weights.combos(s), abs=1e-12)
        want = distribution(path_chi, net, value_blocks(net, s), evidence)
        assert row == pytest.approx(want, abs=1e-12)


@st.composite
def open_and_summed_evidence(draw):
    """A random net, the components a Weights opens, evidence on components
    of open nodes and of summed-away ones (each sharp, a value set, or now and
    then an empty set), sets of the opened components and value-set blocks."""
    net, _ = draw(nets_and_filters())
    comps = draw(st.lists(st.sampled_from(net.all_components), min_size=1, max_size=2, unique=True))
    ext = net.external_order if net.kind == "quantum" else ()
    nodes = {*ext, *(net.space.owner(a)[0] for a in comps)}
    on_open = [a for a in net.all_components if net.space.owner(a)[0] in nodes]
    summed = [a for a in net.all_components if a not in on_open]
    evidence = {}
    for pool in filter(None, (on_open, summed)):
        at_least = draw(st.integers(0, 1))
        for alpha in draw(st.lists(st.sampled_from(pool), min_size=at_least, max_size=2, unique=True)):
            values = net.space.component_values(alpha)
            sharp_or_set = st.one_of(
                st.sampled_from(values), st.frozensets(st.sampled_from(values), min_size=1)
            )
            evidence[alpha] = draw(st.just(frozenset()) if draw(st.integers(0, 7)) == 7
                                   else sharp_or_set)
    one_set = st.lists(st.sampled_from(comps), max_size=2, unique=True).map(tuple)
    sets = draw(st.lists(one_set, min_size=1, max_size=4))
    blocks = [_value_sets(draw, net, draw(st.lists(st.sampled_from(comps), unique=True)), 0)
              for _ in range(draw(st.integers(1, 3)))]
    return net, tuple(comps), evidence, sets, blocks


@settings(derandomize=True, max_examples=150, deadline=None)
@given(open_and_summed_evidence())
def test_evidence_on_open_nodes_masks_one_cached_contraction(query):
    net, comps, evidence, sets, blocks = query
    weights = Weights(net, comps, evidence)
    assert weights._wide is False  # nothing is opened before a read misses
    nodes, _ = weights._opened()
    summed = {a: v for a, v in evidence.items() if net.space.owner(a)[0] not in nodes}
    bare = np.asarray(contract(net, nodes, summed))  # evidence-free when all of it is open
    cached = net._last_opened[1]

    def reads():
        yield weights.blocks([{}])[0], [{}]
        yield weights.combos(comps), value_blocks(net, comps)
        for s, row in zip(sets, weights.rows(sets)):
            yield row, value_blocks(net, s)
        yield weights.blocks(blocks), blocks

    engine = chi if net.kind == "quantum" else chi_classical
    for got, want_blocks in reads():
        got = got if isinstance(got, list) else [got]
        for chi_fn in (engine, path_chi):
            want = distribution(chi_fn, net, want_blocks, evidence)
            assert got == pytest.approx(want, abs=1e-12)
        assert net._last_opened[1] is cached and not cached.flags.writeable
        assert cached.dtype == bare.dtype and cached.tobytes() == bare.tobytes()
    if path_chi(net, evidence) == 0.0:
        with pytest.raises(ContradictoryEvidence):
            weights.row(comps)


def test_evidence_that_zeroes_an_open_axis_is_still_contradictory(contract_calls):
    net = catalog.build("fig23")
    comps = catalog.query_components(net)
    catalog.run_evidence_cases(net, cases=[catalog.EvidenceCase(1)])
    key, cached = net._last_opened
    kept = cached.tobytes()
    for impossible in (7, frozenset()):  # a value comps[0] never takes, and no value at all
        (result,) = catalog.run_evidence_cases(
            net, cases=[catalog.EvidenceCase(2, ((comps[0], impossible),))]
        )
        assert result.no_output and not result.rows and not result.errors
        with pytest.raises(ContradictoryEvidence):
            Weights(net, comps, {comps[0]: impossible}).row(comps[1:2])
    assert len(contract_calls) == 2 and net._last_opened[0] == key
    assert net._last_opened[1] is cached and cached.tobytes() == kept


def test_a_memo_hit_then_a_lower_cap_gives_the_fallback_answers(monkeypatch, contract_calls):
    net = catalog.build("fig26")
    hypothesis, evidence = {"z.plus": 1}, {"v.minus": 0}
    want = quantum_conditional(net, hypothesis, evidence)
    assert quantum_conditional(net, hypothesis, evidence) == want
    assert len(contract_calls) == 1
    assert net.space.view((*net.external_order, "z.plus"))[0].peak == 24
    monkeypatch.setenv("QBNET_MAX_STATES", "23")
    assert quantum_conditional(net, hypothesis, evidence) == pytest.approx(want, abs=1e-12)
    assert len(contract_calls) == 3  # one per value of z.plus, with the external nodes open


def test_a_single_set_read_leaves_the_selector_alone(layouts):
    net = build_lattice_net(LatticeSpec.make(4, 1.0, 2, 0.2))
    net.space.read.cache_clear()
    sets = [("t1.x0", "t1.x3"), ("t1.x2",)]
    want = Weights(net, ("t1.x0",), {}).rows(sets)
    quantum_conditional(net, {"t1.x3": 1}, {})
    assert Weights(net, ("t1.x0",), {}).rows(sets) == want
    assert [spec for _, spec, *_ in layouts] == [tuple(sets), net.space.components("t1")]
    assert net.space.read.cache_info().hits == 1  # the two-set layout, kept


def test_the_evidence_indicators_a_shape_keeps_serve_every_net_of_it():
    net, fresh = build_lattice_net(LATTICE_SPEC), build_lattice_net(LATTICE_SPEC)
    parent, indicator = parent_cb_net(net), net.space.indicator
    assert fresh.space is parent.space is net.space
    assert indicator.cache_info().maxsize == 256
    indicator.cache_clear()
    evidence = [{"t4.x1": {0, 1}}, {"t4.x1": 0}, {"t4.x2": 0}, {"t4.x3": 0, "t4.x4": 1}]
    quantum_conditional(net, {"t4.x0": 1}, {})
    cached = net._last_opened[1]
    kept = cached.tobytes()
    wants = []
    for ev in evidence:  # on the open final slice: one indicator each, on its one axis
        wants.append(quantum_conditional(net, {"t4.x0": 1}, ev))
        assert net._last_opened[1] is cached and not cached.flags.writeable
        assert cached.tobytes() == kept
    evidence.append({"t2.x1": 0})  # on a summed-away slice: contract's indicator, on the same axis
    wants.append(quantum_conditional(net, {"t4.x0": 1}, evidence[-1]))
    assert cached.tobytes() == kept and indicator.cache_info().currsize == 6
    built = indicator.cache_info().misses
    assert [quantum_conditional(fresh, {"t4.x0": 1}, ev) for ev in evidence] == wants
    for ev in evidence:
        classical_conditional(parent, {"t4.x0": 1}, ev)
    assert indicator.cache_info().misses == built  # nothing built for the fresh net or the parent
    space = net.space
    for ev in evidence:
        for alpha, allowed in ev.items():
            got = indicator(alpha, core.value_set(allowed), 0, 1)
            column = space._lists[space.owner(alpha)[0]].array[:, space.owner(alpha)[1]]
            assert got.tolist() == [v in core.value_set(allowed) for v in column.tolist()]
            assert not got.flags.writeable
    assert indicator.cache_info().misses == built
    assert indicator("t4.x1", frozenset({0}), 1, 3).shape == (1, len(space.states("t4")), 1)


def test_the_read_layouts_a_shape_keeps_are_bounded_and_read_only(monkeypatch, layouts):
    net = catalog.build("fig23")
    comps = catalog.query_components(net)  # six components, one node each: 2 rows x 64 entries a set
    wants = [distribution(path_chi, net, value_blocks(net, (a,)), {}) for a in (*comps, comps[0])]
    read = net.space.read
    for cap in (None, 127):  # at 127 each set is past the cap: one chi call per block
        if cap is not None:
            monkeypatch.setenv("QBNET_MAX_STATES", str(cap))
        read.cache_clear()
        layouts.clear()
        for alpha, want in zip((*comps, comps[0]), wants):
            assert Weights(net, comps, {}).rows([(alpha,)]) == [pytest.approx(want, abs=1e-12)]
            assert read.cache_info().currsize <= core._READS == 2
        # a build per lookup: the oldest is dropped first, so the first set is built again
        assert [size for *_, size, _ in layouts] == [None if cap else 128] * 7
        assert all(not a.flags.writeable for *_, got in layouts if got for a in got[:2])


def test_the_parent_net_is_built_once(monkeypatch):
    built = []
    monkeypatch.setattr(quantum, "CBNet", lambda *args, **kw: built.append(1) or CBNet(*args, **kw))
    net = catalog.build("fig23")
    parent = parent_cb_net(net)
    assert parent_cb_net(net) is parent
    assert not any(parent.factor(n).flags.writeable for n in parent.graph.nodes)
    catalog.run_evidence_cases(net, cases=catalog.default_cases(net)[:3])
    validate_quantum(net)
    total_squared_amplitude(net)
    assert parent_cb_net(net) is parent and len(built) == 1


# ---------------------------------------------------------------------------
# Net structure: one state space per equal set of blocks


def _harmonic_chain(dt=0.2, strength=1.0, n_x=8, n_t=3):
    potential = potential_preset("harmonic", n_x, strength)
    return LatticeSpec.make(n_x, 1.0, n_t, dt, potential=potential)


# every final-site conditional of an 8 x 3 chain, then one past evidence on a middle slice
CHAIN_QUERIES = [({f"t3.x{s}": 1}, {}) for s in range(8)] + [({"t3.x1": 1}, {"t1.x4": 1})]


def test_chains_of_one_shape_share_their_structure_and_not_their_tables():
    a = build_lattice_net(_harmonic_chain())
    b = build_lattice_net(LatticeSpec.make(8, 1.0, 3, 0.3, potential=potential_preset("well", 8.0)))
    assert a.space is b.space
    assert a.space is b.space and a.chronological is b.chronological
    assert a.space.view(a.external_order)[0] is b.space.view(b.external_order)[0]
    assert a.graph is not b.graph and a.external_order == b.external_order  # one graph per net
    assert not np.array_equal(a.factor("t2"), b.factor("t2"))
    assert build_lattice_net(_harmonic_chain(n_t=4)).space is not a.space
    net = catalog.build("fig23")
    assert parent_cb_net(net).space is net.space is catalog.build("fig23").space


def test_answers_do_not_change_when_the_shape_cache_evicts():
    spec = _harmonic_chain()
    net = build_lattice_net(spec)
    pair = (net, parent_cb_net(net))
    want = [quantum_conditional(t, h, e) for t in pair for h, e in CHAIN_QUERIES]
    core._space_of.cache_clear()
    fresh = build_lattice_net(spec)
    assert fresh.space is not net.space and parent_cb_net(fresh).space is fresh.space
    for new in (fresh, net):  # the net built before keeps its own shape
        pair = (new, parent_cb_net(new))
        assert [quantum_conditional(t, h, e) for t in pair for h, e in CHAIN_QUERIES] == want


def test_a_build_calls_the_graph_layer_alike_whatever_was_built_before(monkeypatch):
    calls = collections.Counter()
    for name in ("LabelledGraph", "chronological_labelling", "classify_nodes"):
        monkeypatch.setattr(core, name, lambda *a, _f=getattr(core, name), _n=name:
                            calls.update([_n]) or _f(*a))

    def counted(build):
        calls.clear()
        build()
        return dict(calls)

    for build in (lambda: parent_cb_net(build_lattice_net(_harmonic_chain())),
                  lambda: parent_cb_net(catalog.build("fig19-loop"))):
        core._space_of.cache_clear()
        cold = counted(build)
        assert counted(build) == cold  # a seen shape
        assert cold == {"LabelledGraph": 1, "chronological_labelling": 1, "classify_nodes": 2}


def test_a_net_built_on_another_nets_graph_and_space_shares_the_space():
    net = catalog.build("fig19-loop")
    tables = {n: np.abs(net.table(n)) ** 2 for n in net.graph.nodes}
    direct = CBNet(net.graph, net.space, tables)
    assert direct.space is net.space is parent_cb_net(net).space
    assert total_mass(direct) == total_mass(parent_cb_net(net))


def _three_nodes(c_parents):
    """a (2 states), b (3) and c (2), c below ``c_parents``; b is a root."""
    return [NodeBlock("a", [0, 1], [0.3, 0.7]),
            NodeBlock("b", [0, 1, 2], [0.2, 0.3, 0.5]),
            NodeBlock("c", [0, 1], lambda s, p: ((0.4, 0.6), (0.9, 0.1))[sum(map(sum, p)) % 2][s[0]],
                      parents=c_parents)]


def test_a_graph_with_other_parents_gets_the_space_of_its_own_structure():
    chain = CBNet.from_blocks(_three_nodes(("b",)))
    other = CBNet.from_blocks(_three_nodes(("a", "b")))
    tables = {n: other.table(n) for n in other.graph.nodes}
    direct = CBNet(other.graph, chain.space, tables)  # the chain's state lists, other parents
    assert direct.space is other.space is not chain.space
    assert direct.space.dims == {"a": (2,), "b": (3,), "c": (2, 3, 2)} != chain.space.dims
    assert total_mass(direct) == total_mass(other) == pytest.approx(1.0)
    for h, e in (({"a": 1}, {"c": 0}), ({"c": 1}, {"b": 2}), ({"b": 0}, {})):
        assert classical_conditional(direct, h, e) == classical_conditional(other, h, e)


@pytest.mark.parametrize("cls", [CBNet, QBNet])
def test_a_graph_with_a_node_its_space_lacks_is_refused_naming_it(cls):
    net = parent_cb_net(catalog.build("fig19-loop"))
    graph = LabelledGraph((*net.graph.nodes, "extra"), [*net.graph.arrows, ("extra",)])
    tables = {n: net.table(n) for n in net.graph.nodes} | {"extra": [1.0]}
    with pytest.raises(ValueError) as err:
        cls(graph, net.space, tables)
    assert str(err.value) == "missing states for node 'extra'"


def test_a_cyclic_pre_net_built_directly_keeps_its_graphs_declared_order():
    net = CBNet.from_blocks(_two_cycle(), pre_net=True)
    graph = LabelledGraph(("w", "u"), [("u", "w"), ("w", "u")])  # the same parents, other order
    direct = CBNet(graph, net.space, {n: net.table(n) for n in graph.nodes}, pre_net=True)
    assert (net.node_order(), direct.node_order()) == (("u", "w"), ("w", "u"))
    assert total_mass(direct) == total_mass(net) == 2.0


@pytest.mark.parametrize("cls", [BaseNet, QBNet])
def test_a_net_takes_its_graph_space_tables_and_nothing_private(cls):
    assert list(inspect.signature(cls).parameters) == ["graph", "space", "tables", "meta", "pre_net"]


def test_the_shape_cache_and_its_memos_are_bounded():
    space = build_lattice_net(_harmonic_chain()).space
    assert core._space_of.cache_info().maxsize == 256
    assert space.view.cache_info().maxsize == 256
    assert space._combos.cache_info().maxsize == 256


def _memo_rows():
    """{name: (kind, bound)} of each row of README's Memos table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("## Memos\n", 1)[1].split("\n## ", 1)[0]
    rows = [[c.strip() for c in line.strip("|").split("|")]
            for line in table.splitlines() if line.startswith("| `")]
    return {name.strip("`"): (kind, bound) for name, kind, _, _, bound, _ in rows}


def test_the_memos_table_names_every_memo():
    rows = _memo_rows()
    assert {kind for kind, _ in rows.values()} == {"lru_cache", "net attribute"}
    net = catalog.build("fig19-loop")
    parent_cb_net(net)
    owners = {"StateSpace": net.space, "BaseNet": net, "QBNet": net}
    modules = {m.name: importlib.import_module(f"qbnet.{m.name}")
               for m in pkgutil.iter_modules(qbnet.__path__) if m.name != "__main__"}
    found = {}  # every lru_cache wrapper, by the name the table gives it
    for owner, obj in {**owners, **modules}.items():
        found.update((f"{owner}.{attr}", memo) for attr, memo in vars(obj).items()
                     if hasattr(memo, "cache_parameters")
                     and (owner in owners or memo.__module__ == obj.__name__))  # not an import
    owners.update(modules)
    for name, memo in found.items():
        maxsize = memo.cache_parameters()["maxsize"]
        assert maxsize is not None, f"{name} is unbounded"
        assert rows.get(name, ("", ""))[0] == "lru_cache", f"{name} has no lru_cache row"
        assert rows[name][1].split()[0] == str(maxsize), f"{name} keeps {maxsize}"
    for name, (kind, _) in rows.items():
        owner, attr = name.rsplit(".", 1)
        assert attr in vars(owners[owner]), f"{name} names no memo"
        assert (kind == "lru_cache") == (name in found), name


def _two_cycle(table=np.eye(2), components=None):
    return [NodeBlock("u", [0, 1], table, parents=("w",)),
            NodeBlock("w", [0, 1], np.eye(2), parents=("u",), components=components)]


@pytest.mark.parametrize(
    "blocks, error, message",
    [
        (_two_cycle(), CyclicGraph,
         "net graph has a directed cycle (use a pre-net for diagnostics)"),
        (_two_cycle(components=("u",)), ValueError, "component name 'u' is not globally unique"),
        (_two_cycle(table=np.ones(3)), ValueError, "node 'u': table shape (3,), expected (2, 2)"),
    ],
    ids=["cyclic", "duplicate-component", "table-shape-before-cycle"],
)
def test_a_refused_build_is_refused_the_same_way_again(blocks, error, message):
    kept = core._space_of.cache_info().currsize
    for _ in range(2):
        with pytest.raises(error) as err:
            CBNet.from_blocks(blocks)
        assert type(err.value) is error and str(err.value) == message
    if error is CyclicGraph:  # a valid structure: its shape is kept, and serves a pre-net
        assert total_mass(CBNet.from_blocks(blocks, pre_net=True)) == 2.0
    elif "component" in message:  # a refused structure leaves nothing behind
        assert core._space_of.cache_info().currsize == kept


def test_a_table_of_the_wrong_shape_is_refused_naming_both_shapes():
    blocks = [NodeBlock("a", [0, 1], [0.5, 0.5]),
              NodeBlock("b", [0, 1, 2], np.full((3, 3), 1 / 3), parents=("a",))]
    with pytest.raises(ValueError) as err:
        CBNet.from_blocks(blocks)
    assert str(err.value) == "node 'b': table shape (3, 3), expected (3, 2)"


def test_a_writable_table_given_for_two_nodes_is_copied_at_build():
    def net_of(table):
        return CBNet.from_blocks([NodeBlock("a", [0, 1], [0.3, 0.7]),
                                  NodeBlock("b", [0, 1], table, parents=("a",)),
                                  NodeBlock("c", [0, 1], table, parents=("b",))])

    table = np.array([[0.9, 0.2], [0.1, 0.8]])
    net, twin = net_of(table), net_of(table.copy())
    assert net.factor("b") is net.factor("c") and not net.factor("b").flags.writeable
    table[:] = 0.5  # the caller's array, after the build and before any read
    np.testing.assert_array_equal(net.table("c"), twin.table("c"))
    for h, e in [({"c": 1}, {}), ({"b": 0}, {"c": 1}), ({"a": 1}, {"c": 0})]:
        assert classical_conditional(net, h, e) == classical_conditional(twin, h, e)


def test_one_table_given_for_nodes_of_other_parent_shapes_gets_a_factor_each():
    table = np.arange(12.0).reshape(2, 6)  # (2, 6): two parents of 2 and 3 states, or one of 6
    net = CBNet.from_blocks([NodeBlock("a", [0, 1], [0.5, 0.5]),
                             NodeBlock("b", [0, 1, 2], np.full(3, 1 / 3)),
                             NodeBlock("c", [0, 1], table, parents=("a", "b")),
                             NodeBlock("e", range(6), np.full(6, 1 / 6)),
                             NodeBlock("d", [0, 1], table, parents=("e",))])
    assert net.factor("c").shape == (2, 3, 2) and net.factor("d").shape == (6, 2)
    for node in ("c", "d"):
        np.testing.assert_array_equal(net.table(node), table)


def test_a_fresh_chain_of_a_seen_shape_compiles_and_views_nothing_new(monkeypatch, contract_calls):
    seen = build_lattice_net(_harmonic_chain())
    for h, e in CHAIN_QUERIES:
        quantum_conditional(seen, h, e)
    compiles, real = [], core._compile
    monkeypatch.setattr(core, "_compile", lambda *a: compiles.append(a) or real(*a))
    views = seen.space.view.cache_info()
    spec = _harmonic_chain(dt=0.3, strength=2.0)
    fresh = build_lattice_net(spec)
    assert fresh.space is seen.space
    got = [quantum_conditional(fresh, h, e) for h, e in CHAIN_QUERIES[:8]]
    np.testing.assert_allclose(got, np.abs(propagate(spec)) ** 2, atol=1e-12)
    quantum_conditional(fresh, *CHAIN_QUERIES[8])
    assert compiles == []
    assert fresh.space.view.cache_info()[1:] == views[1:]  # no miss, no new entry
    assert len(contract_calls) == 2 * 2  # per net: the final slice, then past the evidence


# ---------------------------------------------------------------------------
# Value combos: one memoized recipe


@pytest.mark.parametrize("net", [LATTICE_NET, *BEAM_NETS[:2], random_qbnet(3, max_values=3)],
                         ids=["lattice", "fig19-loop", "fig26", "random"])
def test_combos_are_the_product_of_component_values_and_are_memoized(net):
    space = net.space
    picks = [(), *((a,) for a in net.all_components[:3]), net.all_components[:3],
             net.all_components[::-1][:2], tuple(space.components(net.node_order()[-1]))]
    for comps in picks:
        want = tuple(itertools.product(*map(space.component_values, comps)))
        got = space.combos(comps)
        assert got == want and space.combos(list(comps)) is got
        assert value_blocks(net, comps) == [dict(zip(comps, c)) for c in want]
    with pytest.raises(KeyError, match="unknown component 'nope'"):
        space.combos((net.all_components[0], "nope"))


# ---------------------------------------------------------------------------
# Evidence values are whole numbers


@pytest.mark.parametrize(
    "bad", [0.5, 1.9, math.nan, math.inf, "1", "10", b"1", {0.5}, [0, "1"], frozenset({1.5, 0})]
)
def test_a_value_that_is_not_an_integer_is_refused_on_every_route(bad):
    net = catalog.build("fig19-loop")
    parent = parent_cb_net(net)
    routes = [
        lambda: quantum_conditional(net, {"u.plus": 1}, {"z.plus": bad}),
        lambda: classical_conditional(parent, {"u.plus": 1}, {"z.plus": bad}),
        lambda: pathsum_conditional(net, {"u.plus": 1}, {"z.plus": bad}),
        lambda: classical_fuzzy_conditional(
            parent,
            DirectProductSet.over(net, {"u.plus": 1}),
            DirectProductSet.over(net, {"z.plus": bad}),
        ),
        lambda: chi(net, {"z.plus": bad}),
        lambda: catalog.EvidenceCase(2, (("z.plus", bad),)).as_sets(),
    ]
    for route in routes:
        with pytest.raises(InvalidState, match="not an integer value"):
            route()


def test_whole_numbers_of_any_type_are_accepted():
    net = catalog.build("fig19-loop")
    want = quantum_conditional(net, {"u.plus": 1}, {"z.plus": 1})
    for good in (1.0, np.int64(1), np.float64(1.0), True, [1, 1.0], frozenset({1})):
        assert quantum_conditional(net, {"u.plus": 1}, {"z.plus": good}) == want
    assert core.value_set(np.array([0.0, 1.0])) == {0, 1}
    assert core.value_set(()) == frozenset()


# ---------------------------------------------------------------------------
# One chi and one external map for both net kinds


def test_one_chi_and_one_external_map_serve_both_net_kinds():
    assert qbnet.chi is qbnet.chi_classical
    assert external_amplitude_map is external_mass_map
    net = catalog.build("fig19-loop")
    parent = parent_cb_net(net)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning from a wrong-kind route fails here
        for target in (net, parent):
            for fixed in ({}, {"u.plus": 1}, {"z.plus": 0, "u._minus": {0, 1}}):
                want = path_chi(target, fixed)
                assert qbnet.chi(target, fixed) == pytest.approx(want, abs=1e-12)
                assert qbnet.chi_classical(target, fixed) == pytest.approx(want, abs=1e-12)
        assert qbnet.chi(parent) == total_mass(parent)


# ---------------------------------------------------------------------------
# The state cap and the state-space checks


@pytest.mark.parametrize("raw", ["abc", "1e3", "", "0", "-3"])
def test_a_cap_that_is_not_a_positive_integer_is_refused(monkeypatch, raw):
    monkeypatch.setenv("QBNET_MAX_STATES", raw)
    with pytest.raises(ValueError) as err:
        core.max_states()
    assert str(err.value) == f"QBNET_MAX_STATES must be a positive integer, got {raw!r}"


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([NodeBlock("a", [], [])], "node 'a' has no states"),
        (
            [NodeBlock("a", [(0, 1)], [1.0], components=("p",))],
            "node 'a': state (0, 1) has 2 entries, expected 1",
        ),
        ([NodeBlock("a", [0, 1, 0], [0.5, 0.5, 0.0])], "node 'a' has duplicate states"),
        (
            [NodeBlock("a", [0, 1], [0.5, 0.5]),
             NodeBlock("b", [0, 1], [0.5, 0.5], components=("a",))],
            "component name 'a' is not globally unique",
        ),
    ],
)
def test_the_state_space_checks_keep_their_messages(blocks, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CBNet.from_blocks(blocks)


@pytest.mark.parametrize(
    "states, want",
    [
        ([(1.5,), (2,)], "node 'a': 1.5 is not a whole number"),
        ([(0.9,), (0,)], "node 'a': 0.9 is not a whole number"),
        (["01", "10"], "node 'a': '01' is not a whole number"),
        ([(0, "1")], "node 'a': '1' is not a whole number"),
        ([math.nan], "node 'a': nan is not a whole number"),
        ([True, False], ((1,), (0,))),
        ([(True, 0), (False, 1)], ((1, 0), (0, 1))),
        (np.arange(2), ((0,), (1,))),
        ([np.float64(1.0), 2.0], ((1,), (2,))),
        (np.eye(2), ((1, 0), (0, 1))),
        ([[np.int64(0), 1], (1, 0)], ((0, 1), (1, 0))),
    ],
    ids=["fraction", "truncates-to-duplicate", "string", "string-entry", "nan", "bools",
         "bool-entries", "numpy-ints", "whole-floats", "numpy-rows", "list-rows"],
)
def test_states_are_whole_numbers_as_ints(states, want):
    components = ("p", "q") if isinstance(want, tuple) and len(want[0]) == 2 else None
    if isinstance(want, str):
        with pytest.raises(InvalidState, match=f"^{re.escape(want)}$"):
            NodeBlock("a", states, None, components=components)
        return
    block = NodeBlock("a", states, None, components=components)
    assert block.states == want
    assert all(type(v) is int for s in block.states for v in s)


def _state_forms(states):
    """The same state list written the ways a caller may write it."""
    forms = [list(states), tuple(states), [list(s) for s in states],
             [tuple(map(np.int64, s)) for s in states]]
    if all(v in (0, 1) for s in states for v in s):
        forms.append([tuple(map(bool, s)) for s in states])
    if len({len(s) for s in states}) == 1:
        forms.append(np.array(states, dtype=np.int64).reshape(len(states), -1))
    if all(len(s) == 1 for s in states):
        forms.append([s[0] for s in states])
    return forms


def _one_node_net(states, width):
    comps = tuple(f"c{k}" for k in range(width))
    return CBNet.from_blocks([NodeBlock("a", states, np.ones(len(states)), components=comps)])


def _space_facts(states, width):
    """What a one-node net makes of ``states``: its states, values and
    index, or the refusal's type and message."""
    comps = tuple(f"c{k}" for k in range(width))
    try:
        net = _one_node_net(states, width)
    except (ValueError, InvalidState) as exc:
        return type(exc), str(exc)
    space = net.space
    return (space.states("a"), [space.component_values(c) for c in comps],
            [space.state_index("a", s) for s in space.states("a")])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda w: st.tuples(
    st.just(w),
    st.lists(st.tuples(*[st.integers(0, 2)] * w), max_size=5),
    st.lists(st.integers(1, 3), max_size=1),
)))
def test_equal_state_lists_give_equal_state_spaces(case):
    width, states, odd = case
    states = states + [(0,) * odd[0]] if odd else states  # sometimes a state of the wrong width
    copies = [[tuple(int(v) for v in s) for s in states] for _ in range(2)]
    core._shared.cache_clear()
    want = _space_facts(copies[0], width)  # worked out with nothing shared yet
    assert _space_facts(copies[1], width) == want
    for form in _state_forms(states):
        assert _space_facts(form, width) == want
        core._shared.cache_clear()
        assert _space_facts(form, width) == want
    if want[0] in (ValueError, InvalidState):
        return
    # every spelling of an accepted list interns as one list and one space
    core._shared.cache_clear()
    spaces = [_one_node_net(form, width).space for form in [copies[0], *_state_forms(states)]]
    assert all(s is spaces[0] for s in spaces)
    assert all(s._lists["a"] is spaces[0]._lists["a"] for s in spaces)


def _two_nodes():
    return CBNet.from_blocks([NodeBlock("a", [0, 1], [0.5, 0.5]),
                              NodeBlock("b", [0, 1], np.eye(2), parents=("a",))])


def _a_child_of_52_one_state_roots():
    roots = [NodeBlock(f"r{i}", [0], [1.0]) for i in range(52)]
    parents = tuple(b.name for b in roots)
    return CBNet.from_blocks([*roots, NodeBlock("c", [0, 1], [[0.5], [0.5]], parents=parents)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: NodeBlock("a", [(0, 1), (1, 0)], None),
         ValueError, "node 'a' has 2 components; explicit names required"),
        (lambda: CBNet(_two_nodes().graph, _two_nodes().space, {"a": [0.5, 0.5]}),
         ValueError, "missing table for node 'b'"),
        (lambda: _two_nodes().entry("b", 1, ()),
         ValueError, "node 'b' has 1 parents, got 0 states"),
        (lambda: _two_nodes().joint_value({"a": 0}),
         ValueError, "assignment missing nodes ['b']"),
        (lambda: chi_classical(_a_child_of_52_one_state_roots()),
         StateSpaceTooLarge, "contraction step over 53 nodes exceeds einsum's 52 axis labels"),
    ],
    ids=["unnamed-components", "missing-table", "entry-parent-count", "joint-missing-node",
         "past-einsum-labels"],
)
def test_the_build_entry_and_plan_refusals_keep_their_texts(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("kind", ["quantum", "classical"])
@pytest.mark.parametrize(
    "route", ["conditional", "f_qna", "Weights.row", "path_row", "pathsum_conditional"])
def test_an_unknown_evidence_component_is_refused_first_on_every_route(route, kind):
    net = catalog.build("fig19-loop")
    target = net if kind == "quantum" else parent_cb_net(net)
    evidence = {"z.plus": 0, "nope": 0}
    ask = {  # a pinned value out of range too, where the route takes one
        "conditional": lambda: conditional(target, {"u.plus": 7}, evidence),
        "f_qna": lambda: f_qna(target, ["u.plus"], evidence),
        "Weights.row": lambda: Weights(target, ["u.plus"], evidence).row(["u.plus"]),
        "path_row": lambda: path_row(target, ["u.plus"], evidence),
        "pathsum_conditional": lambda: pathsum_conditional(target, {"u.plus": 7}, evidence),
    }[route]
    with pytest.raises(KeyError) as err:
        ask()
    assert err.value.args == ("unknown component 'nope'",)
