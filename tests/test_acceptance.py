"""Release gate: one check per shipped guarantee, one printed line each.

Each test prints "ACCEPTANCE NN PASS" (or FAIL) on the real stdout so the
lines survive pytest's capture; tolerances are stated inline next to each
assertion. These deliberately re-derive expected numbers by hand instead
of trusting the engine under test.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from qbnet import catalog
from qbnet.classical import (
    CBNet,
    chi_classical,
    classical_conditional,
    coarsen,
    total_mass,
    validate,
)
from qbnet.core import NodeBlock
from qbnet.errors import ContradictoryEvidence
from qbnet.fuzzy import (
    DirectProductSet,
    Partition,
    quantum_fuzzy_distribution,
    singleton_partition,
    validate_partition,
)
from qbnet.lattice import (
    LatticeSpec,
    build_lattice_net,
    potential_preset,
    propagate,
    step_amplitudes_exact,
    step_amplitudes_gaussian,
)
from qbnet.pathsum import feynman_integral, pathsum_conditional
from qbnet.quantum import (
    QBNet,
    f_qna,
    parent_cb_net,
    quantum_conditional,
    total_squared_amplitude,
    validate_quantum,
)

from conftest import random_cbnet, random_qbnet


RESULTS: list[tuple[int, str, str]] = []


@contextlib.contextmanager
def criterion(num, label):
    """Record one gate line; the conftest summary hook prints them all."""
    try:
        yield
    except BaseException:
        RESULTS.append((num, "FAIL", label))
        print(f"ACCEPTANCE {num:02d} FAIL  {label}")
        raise
    RESULTS.append((num, "PASS", label))
    print(f"ACCEPTANCE {num:02d} PASS  {label}")


def test_criterion_01_catalog_normalization():
    with criterion(1, "catalog nets normalized, beam nets unit weight, under 1s"):
        start = time.perf_counter()
        for entry in catalog.list_entries():
            net = catalog.build(entry.id)
            if isinstance(net, QBNet):
                report = validate_quantum(net)
                assert report.ok, (entry.id, report.problems)
                assert abs(total_squared_amplitude(net) - 1.0) <= 1e-9, entry.id
                weight = sum(abs(a) ** 2 for a in feynman_integral(net).values())
                assert abs(weight - 1.0) <= 1e-9, entry.id
            else:
                for node in net.graph.nodes:
                    sums = net.table(node).sum(axis=0)
                    assert np.abs(sums - 1.0).max() <= 1e-9, (entry.id, node)
                if entry.id != "fig4-cycle":
                    assert validate(net).ok, entry.id
                    assert abs(total_mass(net) - 1.0) <= 1e-9, entry.id
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"catalog sweep took {elapsed:.2f}s"


def test_criterion_02_cyclic_pre_net_mass():
    with criterion(2, "delta two-cycle pre-net has mass exactly 2"):
        net = catalog.build("fig4-cycle")
        assert total_mass(net) == 2.0
        report = validate(net)
        assert not report.ok
        assert any("cycle" in p for p in report.problems)


def test_criterion_03_trees_match_their_parent_nets():
    with criterion(3, "tree-layout quantum conditionals equal the parent net to 1e-9"):
        for fid in ("fig18", "fig23", "fig27", "fig28"):
            for result in catalog.run_evidence_cases(catalog.build(fid)):
                assert not result.errors, (fid, result.case.number, result.errors)
                for row in result.rows:
                    gap = max(abs(c - q) for c, q in zip(row.cb, row.qb))
                    assert gap <= 1e-9, (fid, result.case.number, row.components, gap)


def test_criterion_04_loop_interference_value():
    with criterion(4, "recombined-loop exit probability matches the 4-path hand sum"):
        net = catalog.build("fig19-loop")
        engine = quantum_conditional(net, {"u.plus": 1}, {})
        assert abs(engine - 0.70781) <= 5e-5
        # hand sum over the four beam histories, trig only
        psi01, psi10 = (1 + 1j) / 2, 2**-0.5
        c, s = math.cos(math.pi / 10), math.sin(math.pi / 10)
        fi_plus = psi01 * c + psi10 * s
        fi_minus = psi10 * c - psi01 * s
        hand = abs(fi_plus) ** 2 / (abs(fi_plus) ** 2 + abs(fi_minus) ** 2)
        assert abs(engine - hand) <= 1e-12
        parent = parent_cb_net(net)
        assert classical_conditional(parent, {"u.plus": 1}, {}) == 0.5


def test_criterion_05_noise_factor():
    with criterion(5, "conditioning on internal components moves f_qna off 1"):
        net = catalog.build("fig19-loop")
        noisy = f_qna(net, ["z.plus"], {"u.plus": 0})
        assert abs(noisy - 1.0) > 1e-6
        quiet = f_qna(net, list(net.external_components), {})
        assert abs(quiet - 1.0) <= 1e-9


def test_criterion_06_contradictions_never_number():
    with criterion(6, "impossible evidence raises, and the runner marks it"):
        for fid in ("fig18", "fig19-loop"):
            net = catalog.build(fid)
            with pytest.raises(ContradictoryEvidence):
                quantum_conditional(net, {"u.plus": 1}, {"z.plus": 0, "z.minus": 0})
            case10 = [
                r
                for r in catalog.run_evidence_cases(net, hypotheses="singles")
                if r.case.as_sets() == {"z.plus": frozenset({0}), "z.minus": frozenset({0})}
            ]
            assert case10 and case10[0].no_output and not case10[0].rows


def test_criterion_07_rejoin_phase():
    with criterion(7, "rejoin layouts need the matching phase and then agree"):
        raw = catalog.build("fig28", xi=0.0)
        assert not validate_quantum(raw).ok
        tuned = catalog.build("fig28")
        assert validate_quantum(tuned).ok
        rng = np.random.default_rng(20240821)
        for _ in range(8):
            anyphase = catalog.build("fig29", xi=float(rng.uniform(0, 2 * math.pi)))
            assert validate_quantum(anyphase).ok
        both = catalog.build("fig29")
        p28 = quantum_conditional(tuned, {"u.minus": 1}, {"v.minus": 0})
        p29 = quantum_conditional(both, {"u.minus": 1}, {"v.minus": 0})
        assert abs(p28 - p29) <= 1e-9
        assert abs(p28 - 0.08503865648576092) <= 1e-9


def _compare_routes(net, hypothesis, evidence):
    state_route = (
        quantum_conditional if isinstance(net, QBNet) else classical_conditional
    )
    try:
        want = state_route(net, hypothesis, evidence)
    except ContradictoryEvidence:
        with pytest.raises(ContradictoryEvidence):
            pathsum_conditional(net, hypothesis, evidence)
        return
    got = pathsum_conditional(net, hypothesis, evidence)
    assert abs(want - got) <= 1e-12


def test_criterion_08_path_sums_equal_state_sums():
    with criterion(8, "path-sum conditionals equal state-sum conditionals to 1e-12"):
        for entry in catalog.list_entries():
            if entry.id == "fig4-cycle":
                continue  # paths need an acyclic net
            net = catalog.build(entry.id)
            comps = net.all_components
            alpha, beta = comps[0], comps[-1]
            for v in net.space.component_values(alpha):
                _compare_routes(net, {alpha: v}, {})
            _compare_routes(
                net,
                {alpha: net.space.component_values(alpha)[0]},
                {beta: net.space.component_values(beta)[-1]},
            )
        for seed in range(25):
            for net in (
                random_cbnet(seed, zero_frac=0.2 if seed % 3 == 0 else 0.0),
                random_qbnet(seed, zero_frac=0.2 if seed % 3 == 1 else 0.0),
            ):
                comps = net.all_components
                alpha, beta = comps[0], comps[-1]
                evidence = (
                    {} if alpha == beta else {beta: net.space.component_values(beta)[0]}
                )
                for v in net.space.component_values(alpha):
                    _compare_routes(net, {alpha: v}, evidence)


def _random_partition(net, rng):
    """Split one component's values into contiguous groups."""
    comps = net.all_components
    alpha = comps[int(rng.integers(len(comps)))]
    values = list(net.space.component_values(alpha))
    rng.shuffle(values)
    cuts = sorted(rng.choice(range(1, len(values) + 1), size=1)) if len(values) > 1 else [1]
    k = int(cuts[0])
    groups = [values[:k], values[k:]] if values[k:] else [values]
    blocks = tuple(DirectProductSet.over(net, {alpha: set(g)}) for g in groups)
    return Partition((alpha,), blocks)


def test_criterion_09_fuzzy_partitions():
    with criterion(9, "fuzzy blocks sum to 1; singleton blocks equal sharp queries"):
        for seed in range(20):
            net = random_qbnet(seed + 500)
            rng = np.random.default_rng(seed)
            part = _random_partition(net, rng)
            assert validate_partition(net, part) == []
            dist = quantum_fuzzy_distribution(net, part, DirectProductSet.over(net, {}))
            assert abs(sum(dist) - 1.0) <= 1e-9
            beta = net.all_components[-1]
            fine = singleton_partition(net, [beta])
            fine_dist = quantum_fuzzy_distribution(
                net, fine, DirectProductSet.over(net, {})
            )
            for block, p in zip(fine.blocks, fine_dist):
                (value,) = block.sets[beta]
                assert abs(p - quantum_conditional(net, {beta: value}, {})) <= 1e-12


def test_criterion_10_walk_positions_binomial():
    with criterion(10, "random-walk position marginals are binomial to 1e-12"):
        for n, p in ((4, 0.5), (8, 0.3)):
            net = catalog.build("fig14-walk", n=n, p_plus=p)
            small = coarsen(net, [f"x{n}"])
            marginal = small.table(f"x{n}")[:, 0]
            states = small.space.states(f"x{n}")
            assert len(states) == n + 1
            for idx, state in enumerate(states):
                k = (state[0] + n) // 2  # number of +1 steps
                want = math.comb(n, k) * p**k * (1 - p) ** (n - k)
                assert abs(marginal[idx] - want) <= 1e-12


def test_criterion_11_lattice():
    with criterion(11, "lattice net equals matrix propagation; gaussian error shrinks"):
        start = time.perf_counter()
        spec = LatticeSpec.make(
            n_x=5, dx=0.5, n_t=3, dt=0.2,
            potential=potential_preset("harmonic", 2.5, strength=3.0),
        )
        net = build_lattice_net(spec, "exact")
        psi = propagate(spec, "exact")
        fi = feynman_integral(net)
        assert abs(sum(abs(a) ** 2 for a in fi.values()) - 1.0) <= 1e-9
        for s in range(spec.n_x):
            key = tuple(1 if i == s else 0 for i in range(spec.n_x))
            assert abs(fi.get(key, 0.0) - psi[s]) <= 1e-12
        # fixed-angle halvings in the strong-potential regime
        m = hbar = 1.0
        dt0 = 0.1
        dx0 = math.sqrt(2 * hbar * dt0 * 0.1 / m)
        vpot = lambda x, t: 0.5 * 200.0 * x * x
        errors = []
        for halving in range(3):
            dt = dt0 / 2**halving
            dx = dx0 * math.sqrt(dt / dt0)
            step_spec = LatticeSpec.make(n_x=5, dx=dx, n_t=1, dt=dt, potential=vpot)
            diff = np.abs(
                step_amplitudes_exact(step_spec).matrix
                - step_amplitudes_gaussian(step_spec).matrix
            ).max()
            errors.append(diff)
        assert errors[0] > errors[1] > errors[2], errors
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"lattice checks took {elapsed:.2f}s"


def test_criterion_12_chapman_kolmogorov():
    with criterion(12, "coarsening reproduces chained and merged transition products"):
        rng = np.random.default_rng(1212)
        # three-node chain: the coarse table is the matrix product
        tb = rng.random((3, 2))
        tb /= tb.sum(axis=0)
        tc = rng.random((2, 3))
        tc /= tc.sum(axis=0)
        chain = CBNet.from_blocks(
            [
                NodeBlock("a", [0, 1], [0.4, 0.6]),
                NodeBlock("b", [0, 1, 2], tb, parents=("a",)),
                NodeBlock("c", [0, 1], tc, parents=("b",)),
            ]
        )
        got = coarsen(chain, ["a", "c"]).table("c")
        assert np.abs(got - tc @ tb).max() <= 1e-12
        # diamond: generalized form with a double sum over the middle layer
        for seed in range(6):
            r = np.random.default_rng(3000 + seed)
            ka, kb, kc, kd = (int(r.integers(2, 4)) for _ in range(4))
            ta = r.random(ka)
            ta /= ta.sum()
            tb2 = r.random((kb, ka))
            tb2 /= tb2.sum(axis=0)
            tc2 = r.random((kc, ka))
            tc2 /= tc2.sum(axis=0)
            td = r.random((kd, kb * kc))
            td /= td.sum(axis=0)
            diamond = CBNet.from_blocks(
                [
                    NodeBlock("a", list(range(ka)), ta),
                    NodeBlock("b", list(range(kb)), tb2, parents=("a",)),
                    NodeBlock("c", list(range(kc)), tc2, parents=("a",)),
                    NodeBlock("d", list(range(kd)), td, parents=("b", "c")),
                ]
            )
            want = np.zeros((kd, ka))
            for i in range(ka):
                for j in range(kb):
                    for k in range(kc):
                        want[:, i] += td[:, j * kc + k] * tb2[j, i] * tc2[k, i]
            got = coarsen(diamond, ["a", "d"]).table("d")
            assert np.abs(got - want).max() <= 1e-12
