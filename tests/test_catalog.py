"""Catalog nets against hand-worked amplitudes and probabilities."""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from qbnet import catalog
from qbnet.catalog import (
    BEAM_LAYOUTS,
    EvidenceCase,
    HypothesisRow,
    angle_string,
    build,
    default_cases,
    list_entries,
    query_components,
    run_evidence_cases,
)
from qbnet.classical import (
    chi_classical,
    classical_conditional,
    coarsen,
    total_mass,
    validate,
)
from qbnet.errors import InvalidParams, UnknownEntry
from qbnet.pathsum import feynman_integral, path_chi, pathsum_conditional
from qbnet.quantum import QBNet, chi, parent_cb_net, quantum_conditional, validate_quantum
from qbnet.spin import SpinDirection, overlap


def test_every_entry_builds_and_is_normalized():
    for entry in list_entries():
        net = build(entry.id)
        if entry.id == "fig4-cycle":
            continue  # checked separately, it is not a normalized net
        if entry.kind == "classical":
            assert validate(net).ok, entry.id
            assert abs(total_mass(net) - 1.0) < 1e-9, entry.id
        else:
            assert validate_quantum(net).ok, entry.id
            fi = feynman_integral(net)
            assert abs(sum(abs(v) ** 2 for v in fi.values()) - 1.0) < 1e-9, entry.id


def test_two_cycle_pre_net_mass():
    net = build("fig4-cycle")
    assert total_mass(net) == 2.0
    report = validate(net)
    assert not report.ok
    assert any("cycle" in p for p in report.problems)


def test_gate_nets_hand_probabilities():
    net = build("fig9-and", p_x=0.3, p_y=0.8)
    assert abs(chi_classical(net, {"z": 1}) - 0.3 * 0.8) < 1e-12
    assert abs(chi_classical(net, {"z": 0}) - (1 - 0.24)) < 1e-12

    net = build("fig10-sum", p_x=0.3, p_y=0.8)
    assert abs(chi_classical(net, {"z": 0}) - 0.7 * 0.2) < 1e-12
    assert abs(chi_classical(net, {"z": 1}) - (0.3 * 0.2 + 0.7 * 0.8)) < 1e-12
    assert abs(chi_classical(net, {"z": 2}) - 0.3 * 0.8) < 1e-12

    net = build("fig11-ifthen", p_x=0.5, p_y=0.25, when_false=0.5)
    # x=1 forces z=y, x=0 splits z evenly
    want = 0.5 * 0.25 + 0.5 * 0.5
    assert abs(chi_classical(net, {"z": 1}) - want) < 1e-12

    # the tables themselves; columns are (x, y) = 00, 01, 10, 11, or the
    # parent combos in declared order, last parent fastest
    tables = {
        ("fig9-and", "z", ()): [[1, 1, 1, 0], [0, 0, 0, 1]],
        ("fig10-sum", "z", ()): [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]],
        # an asymmetric split for x = 0 tells the two Bernoulli rows apart
        ("fig11-ifthen", "z", (("when_false", 0.2),)): [[0.8, 0.8, 1, 0], [0.2, 0.2, 0, 1]],
        # P(x1=1 | lambda) = (lambda + 1) / 4
        ("fig12-clauser-horne", "x1", (("n_lambda", 3),)): [[0.75, 0.5, 0.25], [0.25, 0.5, 0.75]],
        # P(x1=1 | theta1, lambda) = (lambda + 1 + theta1) / 4
        ("fig13-clauser-horne", "x1", (("n_lambda", 2),)): [
            [0.75, 0.5, 0.5, 0.25],
            [0.25, 0.5, 0.5, 0.75],
        ],
    }
    for (entry_id, node, params), want in tables.items():
        table = build(entry_id, **dict(params)).table(node)
        assert table.tolist() == want, entry_id


def test_hidden_pair_factorizations():
    """The two-detector nets factor through the hidden node, exactly."""
    k = 4
    net = build("fig12-clauser-horne", n_lambda=k)
    p_lam = [Fraction(i + 1, k * (k + 1) // 2) for i in range(k)]
    p1 = [Fraction(i + 1, k + 1) for i in range(k)]
    p2 = [Fraction(1, i + 2) for i in range(k)]
    for a in (0, 1):
        for b in (0, 1):
            want = sum(
                p_lam[i]
                * (p1[i] if a else 1 - p1[i])
                * (p2[i] if b else 1 - p2[i])
                for i in range(k)
            )
            got = chi_classical(net, {"x1": a, "x2": b})
            assert abs(got - float(want)) < 1e-14

    net = build("fig13-clauser-horne", n_lambda=k, p_t1=0.5, p_t2=0.5)
    for t1 in (0, 1):
        for t2 in (0, 1):
            for a in (0, 1):
                for b in (0, 1):
                    q1 = [Fraction(i + 1 + t1, k + 2) for i in range(k)]
                    q2 = [Fraction(i + 1 + 2 * t2, k + 3) for i in range(k)]
                    want = sum(
                        p_lam[i]
                        * (q1[i] if a else 1 - q1[i])
                        * (q2[i] if b else 1 - q2[i])
                        for i in range(k)
                    )
                    got = classical_conditional(
                        net, {"x1": a, "x2": b}, {"theta1": t1, "theta2": t2}
                    )
                    assert abs(got - float(want)) < 1e-14


def test_walk_positions_are_binomial():
    # small walk: direct filtered-mass route
    net = build("fig14-walk", n=4, p_plus=0.3)
    for x in range(-4, 5, 2):
        r = (4 + x) // 2
        want = math.comb(4, r) * 0.3**r * 0.7 ** (4 - r)
        assert abs(chi_classical(net, {"x4": x}) - want) < 1e-12
    # longest walk: too large to enumerate whole, so coarsen to the endpoints
    n, p = 8, 0.3
    small = coarsen(build("fig14-walk", n=n, p_plus=p), ["x0", f"x{n}"])
    table = small.table(f"x{n}")
    assert table.shape == (n + 1, 1)
    for idx, x in enumerate(range(-n, n + 1, 2)):
        r = (n + x) // 2
        want = math.comb(n, r) * p**r * (1 - p) ** (n - r)
        assert abs(table[idx, 0] - want) < 1e-12


def _fs(net, **vals):
    return tuple(vals.get(c, 0) for c in net.external_components)


def _hand_amplitudes(fid, psi01, psi10, tz, tu, tv, g=1.0):
    """Per-exit amplitudes read straight off the beam diagrams."""
    z = SpinDirection(tz, label="z")
    u = SpinDirection(tu, label="u")
    v = SpinDirection(tv, label="v")

    def ov(d2, s2, d1, s1):
        return overlap(d2, s2, d1, s1)

    if fid == "fig18":
        return {
            "z.minus": psi10,
            "u.minus": ov(u, "-", z, "+") * psi01,
            "u.plus": ov(u, "+", z, "+") * psi01,
        }
    if fid == "fig19-loop":
        return {
            s: ov(u, m, z, "-") * psi10 + ov(u, m, z, "+") * psi01
            for s, m in (("u.minus", "-"), ("u.plus", "+"))
        }
    if fid == "fig23":
        via = ov(v, "+", z, "+") * psi01
        return {
            "z.minus": psi10,
            "v.minus": ov(v, "-", z, "+") * psi01,
            "u.minus": ov(u, "-", v, "+") * via,
            "u.plus": ov(u, "+", v, "+") * via,
        }
    if fid == "fig24":
        into_v = {m: ov(v, m, z, "-") * psi10 + ov(v, m, z, "+") * psi01 for m in "-+"}
        return {
            "v.minus": into_v["-"],
            "u.minus": ov(u, "-", v, "+") * into_v["+"],
            "u.plus": ov(u, "+", v, "+") * into_v["+"],
        }
    if fid == "fig25":
        return {
            "z.minus": psi10,
            **{
                s: sum(ov(u, m, v, t) * ov(v, t, z, "+") for t in "-+") * psi01
                for s, m in (("u.minus", "-"), ("u.plus", "+"))
            },
        }
    if fid == "fig26":
        into_v = {t: ov(v, t, z, "-") * psi10 + ov(v, t, z, "+") * psi01 for t in "-+"}
        return {
            s: sum(ov(u, m, v, t) * into_v[t] for t in "-+")
            for s, m in (("u.minus", "-"), ("u.plus", "+"))
        }
    if fid == "fig27":
        return {
            "v.minus": ov(v, "-", z, "-") * psi10,
            "v.plus": ov(v, "+", z, "-") * psi10,
            "u.minus": ov(u, "-", z, "+") * psi01,
            "u.plus": ov(u, "+", z, "+") * psi01,
        }
    if fid == "fig28":
        rejoin = ov(v, "+", z, "-") * psi10
        return {
            "v.minus": ov(v, "-", z, "-") * psi10,
            **{
                s: ov(u, m, z, "+") * psi01 + g * ov(u, m, v, "+") * rejoin
                for s, m in (("u.minus", "-"), ("u.plus", "+"))
            },
        }
    if fid == "fig29":
        return {
            s: ov(u, m, z, "+") * psi01
            + g * sum(ov(u, m, v, t) * ov(v, t, z, "-") for t in "-+") * psi10
            for s, m in (("u.minus", "-"), ("u.plus", "+"))
        }
    raise AssertionError(fid)


SCRAMBLED = dict(
    psi01=0.6 * np.exp(0.4j),
    psi10=0.8 * np.exp(-1.1j),
    theta_z=0.3,
    theta_u=1.1,
    theta_v=2.0,
)


@pytest.mark.parametrize(
    "fid",
    ["fig18", "fig19-loop", "fig23", "fig24", "fig25", "fig26", "fig27", "fig28", "fig29"],
)
def test_beam_net_amplitudes_match_diagrams(fid):
    """Engine state sums equal the per-path products, entry by entry."""
    for params in ({}, dict(SCRAMBLED)):
        kwargs = dict(params)
        g = 1.0
        if fid in ("fig28", "fig29"):
            kwargs["xi"] = 0.77
            g = np.exp(0.77j)
        net = build(fid, **kwargs)
        hand = _hand_amplitudes(
            fid,
            kwargs.get("psi01", (1 + 1j) / 2),
            kwargs.get("psi10", 2**-0.5),
            kwargs.get("theta_z", 0.0),
            kwargs.get("theta_u", math.pi / 5),
            kwargs.get("theta_v", math.pi / 3),
            g,
        )
        fi = feynman_integral(net)
        assert len(fi) == len(hand)
        for comp, amp in hand.items():
            got = fi[_fs(net, **{comp: 1})]
            assert abs(got - amp) < 1e-12, (fid, comp)


def test_loop_interference_frozen_values():
    net = build("fig19")
    assert net.meta["catalog"] == "fig19-loop"
    fi = feynman_integral(net)
    up = fi[_fs(net, **{"u.plus": 1})]
    assert abs(up - (0.6940362703719873 + 0.47552825814757677j)) < 1e-12
    p_up = chi(net, {"u.plus": 1})
    assert abs(p_up - 0.70781) < 5e-5
    assert abs(p_up - 0.7078134688887268) < 1e-12
    # the parent classical net sees no interference at all
    parent = parent_cb_net(net)
    assert classical_conditional(parent, {"u.plus": 1}, {}) == 0.5
    assert classical_conditional(parent, {"u.minus": 1}, {}) == 0.5


def test_recombining_net_needs_the_inline_phase():
    bad = build("fig28", xi=0.0)
    report = validate_quantum(bad)
    assert not report.ok
    total = sum(abs(v) ** 2 for v in feynman_integral(bad).values())
    assert abs(total - 1.0) > 1e-3
    good = build("fig28")
    assert validate_quantum(good).ok
    # e^{i xi} = i psi01 psi10* / |psi01 psi10*| for the default wavefunction
    assert complex(good.meta["phase"].replace("j", "j")) == pytest.approx(
        np.exp(3j * math.pi / 4)
    )


def test_double_rejoin_is_normalized_for_any_phase():
    rng = np.random.default_rng(20240817)
    for xi in rng.uniform(-math.pi, math.pi, 8):
        net = build("fig29", xi=float(xi))
        assert validate_quantum(net).ok
        total = sum(abs(v) ** 2 for v in feynman_integral(net).values())
        assert abs(total - 1.0) < 1e-9


def test_rejoin_layouts_agree_at_the_consistency_phase():
    p28 = quantum_conditional(build("fig28"), {"u.minus": 1}, {"v.minus": 0})
    p29 = quantum_conditional(build("fig29"), {"u.minus": 1}, {"v.minus": 0})
    assert abs(p28 - p29) < 1e-9
    assert abs(p28 - 0.08503865648576092) < 1e-12


def test_internal_phase_changes_answers_but_external_phase_cannot():
    # two valid nets differing only in an internal beam phase disagree
    a = chi(build("fig29", xi=0.3), {"u.plus": 1})
    b = chi(build("fig29", xi=2.0), {"u.plus": 1})
    assert abs(a - b) > 1e-3
    # rephasing an external node state by state moves nothing observable
    net = build("fig18")
    tables = {n: net.table(n).copy() for n in net.graph.nodes}
    tables["u.plus"] = tables["u.plus"] * np.exp(0.61j)
    tables["z.minus"] = np.diag(np.exp(1j * np.array([0.2, -1.4]))) @ tables["z.minus"]
    phased = QBNet(net.graph, net.space, tables, meta=dict(net.meta))
    assert validate_quantum(phased).ok
    for hyp, ev in (
        ({"u.plus": 1}, {}),
        ({"z.plus": 1}, {"u.minus": 0}),
        ({"u.minus": 0}, {"z.minus": 0}),
    ):
        assert abs(
            quantum_conditional(net, hyp, ev) - quantum_conditional(phased, hyp, ev)
        ) < 1e-12


def test_path_sums_agree_with_state_sums_on_the_catalog():
    for entry in list_entries():
        if entry.kind != "quantum":
            continue
        net = build(entry.id)
        assert abs(path_chi(net, {}) - chi(net)) < 1e-12
        lhs = pathsum_conditional(net, {"u.plus": 1}, {"z.minus": 0})
        rhs = quantum_conditional(net, {"u.plus": 1}, {"z.minus": 0})
        assert abs(lhs - rhs) < 1e-12, entry.id


def test_default_case_layout():
    net = build("fig19")
    cases = default_cases(net)
    assert len(cases) == 33
    assert query_components(net) == ("z.plus", "z.minus", "u.plus", "u.minus")
    assert cases[0].constraints == ()
    assert cases[1].constraints == (("z.plus", 0),)
    assert cases[3].constraints == (("u.plus", 0),)
    assert cases[9].constraints == (("z.plus", 0), ("z.minus", 0))
    assert cases[10].constraints == (("z.plus", 0), ("z.minus", 1))
    assert cases[-1].constraints == (("u.plus", 1), ("u.minus", 1))
    assert [c.number for c in cases] == list(range(1, 34))
    assert len(default_cases(build("fig26"))) == 73


def test_runner_flags_impossible_evidence_and_carries_on():
    results = run_evidence_cases(build("fig19"))
    marked = {r.case.number for r in results if r.no_output}
    # both beams empty, both full, and the same for the exits
    assert marked == {10, 13, 30, 33}
    for r in results:
        assert not r.errors
        if r.no_output:
            assert r.rows == []
        else:
            assert len(r.rows) == 10  # 4 singles + 6 pairs
    tree = run_evidence_cases(build("fig18"))
    tree_marked = {r.case.number for r in tree if r.no_output}
    # beside the one-particle constraints, the tree forbids an occupied u
    # exit whenever the z.plus beam is empty; both-exits-empty is fine there
    # because the particle can leave at z.minus
    assert tree_marked == {10, 13, 15, 19, 25, 29, 33}
    assert 30 not in tree_marked


def test_runner_records_a_case_constraining_a_component_twice_and_carries_on():
    net = build("fig19")
    cases = [EvidenceCase(1, (("z.plus", 1),)), EvidenceCase(2, (("z.plus", 1), ("z.plus", 0))),
             EvidenceCase(3, (("nope", 1),)), EvidenceCase(4)]
    results = run_evidence_cases(net, cases)
    assert [r.errors for r in results] == [
        [], ["component 'z.plus' constrained twice"], ["unknown components ['nope']"], []]
    assert results[1].rows == [] and not results[1].no_output
    want = run_evidence_cases(net, [cases[0], cases[3]])
    assert [r.rows for r in results[::3]] == [r.rows for r in want]


def test_runner_distributions_and_fqna():
    results = run_evidence_cases(build("fig19"))
    by_number = {r.case.number: r for r in results}
    case4 = by_number[4]  # evidence u.plus = 0
    rows = {r.components: r for r in case4.rows}
    z_row = rows[("z.plus",)]
    assert abs(z_row.qb_fqna - 1.0) > 1e-6
    assert abs(z_row.qb[0] - 0.9045084971874737) < 1e-9
    exit_pair = rows[("u.plus", "u.minus")]
    assert abs(exit_pair.qb_fqna - 1.0) < 1e-9
    assert exit_pair.combos == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert abs(exit_pair.qb[1] - 1.0) < 1e-12
    # with no evidence every exit-only hypothesis has unit normalization
    for row in by_number[1].rows:
        if set(row.components) <= {"u.plus", "u.minus"}:
            assert abs(row.qb_fqna - 1.0) < 1e-9
        assert abs(sum(row.qb) - 1.0) < 1e-9
        assert abs(sum(row.cb) - 1.0) < 1e-9


def test_runner_trees_match_their_parent_nets():
    for fid in ("fig18", "fig27"):
        for result in run_evidence_cases(build(fid)):
            for row in result.rows:
                for a, b in zip(row.cb, row.qb):
                    assert abs(a - b) < 1e-9, (fid, result.case.number)
                assert abs(row.cb_fqna - row.qb_fqna) < 1e-9


def test_hypothesis_rows_stay_frozen_hashable_dataclasses():
    names = ["components", "combos", "cb", "qb", "cb_fqna", "qb_fqna"]
    assert [f.name for f in dataclasses.fields(HypothesisRow)] == names
    row = run_evidence_cases(build("fig19"))[3].rows[4]
    values = [getattr(row, name) for name in names]
    for other in (HypothesisRow(*values), HypothesisRow(**dict(zip(names, values))),
                  pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
        assert other == row and hash(other) == hash(row) and other is not row
        assert [getattr(other, name) for name in names] == values
    changed = dataclasses.replace(row, qb_fqna=0.5)
    assert changed.qb_fqna == 0.5 and changed != row and row.qb_fqna == values[-1]
    assert dataclasses.replace(changed, qb_fqna=values[-1]) == row
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(row, name)
    assert [getattr(row, name) for name in names] == values
    with pytest.raises(TypeError):
        HypothesisRow(*values[:-1])


def test_fresh_builds_of_one_net_share_one_hypothesis_layout():
    catalog._layout.cache_clear()
    first, second = (run_evidence_cases(build("fig19")) for _ in range(2))
    assert catalog._layout.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert [(r.no_output, r.rows, r.errors) for r in first] == [
        (r.no_output, r.rows, r.errors) for r in second]
    run_evidence_cases(build("fig19"), hypotheses="singles")
    assert catalog._layout.cache_info()[:2] == (1, 2)


@pytest.mark.parametrize("hypotheses", ["all", None, ("both",), ["both"], {"both": 1}])
def test_the_runner_refuses_unknown_hypotheses_before_its_layout(hypotheses):
    net, before = build("fig19"), catalog._layout.cache_info()
    with pytest.raises(InvalidParams, match="^hypotheses must be singles/pairs/both"):
        run_evidence_cases(net, hypotheses=hypotheses)
    assert catalog._layout.cache_info() == before


def test_build_rejects_unknown_entries_and_parameters():
    with pytest.raises(UnknownEntry):
        build("fig99")
    with pytest.raises(InvalidParams):
        build("fig18", bogus=1)
    with pytest.raises(InvalidParams):
        build("fig14-walk", n=0)
    # unknown names and wrong types on the classical builders, and NaN or
    # infinite beam parameters, are all InvalidParams
    for entry_id, params in (
        ("fig9-and", dict(bogus=1)),
        ("fig9-and", dict(p_x=1 + 1j)),
        ("fig4-cycle", dict(xi=0.5)),
        ("fig14-walk", dict(n=2.5)),
        ("fig19-loop", dict(theta_u=1 + 1j)),
        ("fig19-loop", dict(psi01=math.nan)),
        ("fig19-loop", dict(psi10=math.nan)),
        ("fig28", dict(xi=math.nan)),
        ("fig28", dict(xi=math.inf)),
        ("fig29", dict(xi=math.nan)),
        ("fig29", dict(xi=1 + 1j)),
    ):
        with pytest.raises(InvalidParams):
            build(entry_id, **params)
    # every entry, classical or beam, names unknown parameters the same way
    for entry in list_entries():
        with pytest.raises(InvalidParams, match=r"^unknown parameters: \['bogus', 'zz'\]$"):
            build(entry.id, zz=2, bogus=1)
    # a wrongly typed value keeps the entry id in front of the builder's message
    for entry_id, params in (
        ("fig9-and", dict(p_x=1 + 1j)),
        ("fig14-walk", dict(n=2.5)),
        ("fig12-clauser-horne", dict(n_lambda="4")),
    ):
        with pytest.raises(InvalidParams, match=f"^bad parameters for {entry_id}: "):
            build(entry_id, **params)
    with pytest.raises(InvalidParams):
        run_evidence_cases(build("fig9-and"))
    with pytest.raises(InvalidParams):
        run_evidence_cases(build("fig18"), hypotheses="all")


def test_angle_strings():
    assert angle_string(0.0) == "0"
    assert angle_string(math.pi / 5) == "pi/5"
    assert angle_string(-3 * math.pi / 4) == "-3*pi/4"
    assert angle_string(math.pi) == "pi"
    assert angle_string(2 * math.pi) == "2*pi"
    assert angle_string(0.123) == "0.123"
    net = build("fig23")
    assert net.meta["theta_u"] == "pi/5"
    assert net.meta["theta_v"] == "pi/3"
    assert net.meta["query_components"].split(",")[0] == "z.plus"


BEAM_QUERY = {
    2: ("z.plus", "z.minus", "u.plus", "u.minus"),
    3: ("z.plus", "z.minus", "v.plus", "v.minus", "u.plus", "u.minus"),
}
BEAM_MAGNETS = {
    "fig18": 2,
    "fig19-loop": 2,
    "fig23": 3,
    "fig24": 3,
    "fig25": 3,
    "fig26": 3,
    "fig27": 3,
    "fig28": 3,
    "fig29": 3,
}


@pytest.mark.parametrize("fid", sorted(BEAM_MAGNETS))
def test_beam_layout_rules(fid):
    """What each beam net derives from its layout row."""
    assert fid in BEAM_LAYOUTS
    net = build(fid)
    three = BEAM_MAGNETS[fid] == 3
    assert query_components(net) == BEAM_QUERY[BEAM_MAGNETS[fid]]
    assert net.meta["query_components"] == ",".join(BEAM_QUERY[BEAM_MAGNETS[fid]])
    # theta_v is accepted everywhere, shown only where a v magnet exists
    assert ("theta_v" in net.meta) == three
    assert ("theta_v" in build(fid, theta_v=0.4).meta) == three
    if not three:
        build(fid, theta_v=math.nan)  # never read, so never checked
    # only the layouts with a phased beam take xi and record the phase
    phased = fid in ("fig28", "fig29")
    assert ("phase" in net.meta) == phased
    if phased:
        assert build(fid, xi=0.5).meta["phase"] != net.meta["phase"]
    else:
        with pytest.raises(InvalidParams, match="unknown parameters: \\['xi'\\]"):
            build(fid, xi=0.5)
    assert {e.id for e in list_entries() if e.kind == "quantum"} == set(BEAM_LAYOUTS)
