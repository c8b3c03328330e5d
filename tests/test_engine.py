"""The contraction engine against the dense reference and the path sums."""

import itertools
import math
import re
import sys
import warnings

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
    NodeBlock,
    Weights,
    conditional,
    contract,
    distribution,
    filter_mask,
    value_blocks,
)
from qbnet.errors import ContradictoryEvidence, InvalidState, StateSpaceTooLarge
from qbnet.fuzzy import (
    DirectProductSet,
    classical_fuzzy_conditional,
    quantum_fuzzy_distribution,
    singleton_partition,
)
from qbnet.lattice import LatticeSpec, build_lattice_net, potential_preset, propagate
from qbnet.pathsum import PathWeights, path_chi, pathsum_conditional
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
        assert weights.total() == pytest.approx(chi_fn(net, evidence), abs=1e-12)
        want = distribution(chi_fn, net, combos, evidence)
        assert weights.combos(comps) == pytest.approx(want, abs=1e-12)
        want = distribution(chi_fn, net, blocks, evidence)
        assert weights.blocks(blocks) == pytest.approx(want, abs=1e-12)


ROW_NETS = BEAM_NETS + [catalog.build(fid) for fid in ("fig29", "fig13-clauser-horne")]


def _chi_floor(net):
    """The smallest cap under which one chi call per block still answers."""
    return core._plan(net, net.external_order if net.kind == "quantum" else ()).peak


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
    return core._plan(net, nodes).peak


def _row(engine, net, comps, evidence):
    try:
        return engine(net, comps, evidence).row(comps)
    except ContradictoryEvidence:
        return None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(row_queries())
def test_a_row_is_the_conditionals_and_f_qna(query):
    net, comps, evidence, cap = query
    path_row = _row(PathWeights, net, comps, evidence)
    try:
        probs = [conditional(Weights, net, b, evidence) for b in value_blocks(net, comps)]
        pieces = (probs, f_qna(net, comps, evidence))
    except ContradictoryEvidence:
        pieces = None
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setenv("QBNET_MAX_STATES", str(cap))
            fallback = Weights(net, comps, evidence)._wide is None
            assert fallback == (cap < _opened_plan_peak(net, comps))
        got = _row(Weights, net, comps, evidence)
    for want in (path_row, pieces):
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
    return max(core._plan(net, net.external_order).peak, core._plan(parent_cb_net(net), ()).peak)


def _opened_peak(net, square):
    comps = catalog.query_components(net)
    target = net if square else parent_cb_net(net)
    nodes = tuple(dict.fromkeys([
        *(net.external_order if square else ()), *(net.space.owner(a)[0] for a in comps)
    ]))
    return core._plan(target, nodes).peak


def _selector_size(net, square):
    """The size of the runner's selector: every single and pair row of the
    query components times the opened tensor's entries."""
    comps = catalog.query_components(net)
    sets = [(a,) for a in comps] + list(itertools.combinations(comps, 2))
    n_rows = sum(math.prod(len(net.space.component_values(a)) for a in s) for s in sets)
    nodes = {*(net.external_order if square else ()), *(net.space.owner(a)[0] for a in comps)}
    return n_rows * math.prod(len(net.space.states(n)) for n in nodes)


@pytest.mark.parametrize("fid", ["fig23", "fig26", "fig29"])
def test_cap_fallback_gives_the_same_answers(monkeypatch, fid):
    net = catalog.build(fid)
    partition = singleton_partition(net, catalog.query_components(net)[:2])
    anywhere = DirectProductSet.over(net, {})
    targets = {"quantum": net, "classical": parent_cb_net(net)}
    sizes = {kind: _selector_size(net, kind == "quantum") for kind in targets}
    read, per_set = Weights._read, set()

    def counted(self, reads, blocks):
        if reads:  # a per-set read, not chi(E)
            per_set.add(self.net.kind)
        return read(self, reads, blocks)

    monkeypatch.setattr(Weights, "_read", counted)

    def answers():
        per_set.clear()
        for target in targets.values():
            target._last_selector = (None, None, None)
        results = catalog.run_evidence_cases(net)
        rows = [(r.no_output, r.errors, [(row.cb, row.qb, row.cb_fqna, row.qb_fqna)
                                         for row in r.rows]) for r in results]
        kept = {kind for kind, t in targets.items() if t._last_selector[1] is not None}
        reads = (set(per_set), kept)
        return rows, quantum_fuzzy_distribution(net, partition, anywhere), reads

    want = answers()
    assert want[2] == (set(), set(targets))
    assert {kind: t._last_selector[1].size for kind, t in targets.items()} == sizes
    monkeypatch.setenv("QBNET_MAX_STATES", str(min(sizes.values()) - 1))
    per_set.clear()
    catalog.run_evidence_cases(net)  # the selectors kept above are past this cap
    assert per_set == set(targets)
    peaks = {_opened_peak(net, square) for square in (True, False)} | set(sizes.values())
    caps = sorted({p - 1 for p in peaks if p - 1 >= _cap_floor(net)} | {_cap_floor(net)})
    for cap in caps:  # just below a selector's size or an opened plan's peak, down to per-block chi
        monkeypatch.setenv("QBNET_MAX_STATES", str(cap))
        got = answers()
        past = {kind for kind, size in sizes.items() if size > cap}
        assert got[2] == (past, set(targets) - past)  # no selector past the cap, one read per set
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


def test_an_evidence_case_reads_chi_e_once_and_each_row_once_per_net(monkeypatch):
    net = catalog.build("fig23")
    case = catalog.default_cases(net)[5]
    reads = []
    read, rows = Weights._read, Weights.rows

    def counted_read(self, reads_, blocks):
        reads.append(("chi(E)" if not reads_ else "combos", self.net.kind))
        return read(self, reads_, blocks)

    def counted_rows(self, sets):
        reads.append(("rows", self.net.kind))
        return rows(self, sets)

    monkeypatch.setattr(Weights, "_read", counted_read)
    monkeypatch.setattr(Weights, "rows", counted_rows)
    (result,) = catalog.run_evidence_cases(net, cases=[case])
    assert not result.errors and len(result.rows) == 21
    # on the quantum net and its parent: chi(E) once, then every row in one product
    assert sorted(reads) == sorted(
        (name, kind) for name in ("chi(E)", "rows") for kind in ("quantum", "classical")
    )


def test_a_conditional_costs_one_contraction(contract_calls):
    net = catalog.build("fig19-loop")
    want = chi(net, {"u.plus": 1, "z.minus": 0}) / chi(net, {"z.minus": 0})
    contract_calls.clear()
    assert quantum_conditional(net, {"u.plus": 1}, {"z.minus": 0}) == pytest.approx(want, abs=1e-12)
    assert len(contract_calls) == 1


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
    assert len(got) == len(sets)
    for s, row in zip(sets, got):
        assert row == pytest.approx(weights.combos(s), abs=1e-12)
        want = distribution(path_chi, net, value_blocks(net, s), evidence)
        assert row == pytest.approx(want, abs=1e-12)


def test_a_memo_hit_then_a_lower_cap_gives_the_fallback_answers(monkeypatch, contract_calls):
    net = catalog.build("fig26")
    hypothesis, evidence = {"z.plus": 1}, {"v.minus": 0}
    want = quantum_conditional(net, hypothesis, evidence)
    assert quantum_conditional(net, hypothesis, evidence) == want
    assert len(contract_calls) == 1
    assert core._plan(net, (*net.external_order, "z.plus")).peak == 24
    monkeypatch.setenv("QBNET_MAX_STATES", "23")
    assert quantum_conditional(net, hypothesis, evidence) == pytest.approx(want, abs=1e-12)
    assert len(contract_calls) == 3  # one per value of z.plus, with the external nodes open


def test_a_single_set_read_leaves_the_selector_alone():
    net = build_lattice_net(LatticeSpec.make(4, 1.0, 2, 0.2))
    Weights(net, ("t1.x0",), {}).rows([("t1.x0", "t1.x3"), ("t1.x2",)])
    kept = net._last_selector
    assert kept[0] is not None and not kept[1].flags.writeable
    quantum_conditional(net, {"t1.x3": 1}, {})
    assert net._last_selector is kept


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
