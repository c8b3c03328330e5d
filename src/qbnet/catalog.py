"""Built-in example nets and the batch evidence-case runner.

The classical entries are small teaching nets: logic gates, constraint
nodes, a hidden-variable pair experiment, and a one-dimensional random
walk. The quantum entries are single-particle beam experiments with two or
three splitting magnets wired in different layouts: trees where each beam
is seen at most once, loops where beams recombine, and recombining layouts
that need an inline phase to stay normalized.

Naming conventions for the beam nets:

* the source node is ``psi`` with state pair (n_minus, n_plus),
* each beam is tapped by a projection node named ``<magnet>.<mode>``
  (``z.minus``, ``u.plus``, ...) whose single component carries the
  occupation number people condition on,
* magnet nodes are bare letters (``z`` is implicit in the source; ``u``
  and ``v`` are real nodes) with internal component names ``u._minus`` /
  ``u._plus`` that queries normally never touch.

``build`` constructs any entry by id, ``default_cases`` reproduces the
standard evidence-case table for a net (no evidence, every single value,
every value pair), and ``run_evidence_cases`` evaluates each case against
one- and two-component hypotheses for both the quantum net and its parent
classical net.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from .classical import CBNet, chi_classical
from .core import NodeBlock, distribution, normalize, value_blocks, value_set
from .errors import ContradictoryEvidence, InvalidParams, UnknownEntry
from .quantum import QBNet, chi, parent_cb_net
from .spin import (
    MAGNET_STATES,
    InitialWavefunction,
    SpinDirection,
    consistency_phase,
    marginalizer_table,
    stern_gerlach_table,
)


def angle_string(x: float) -> str:
    """Render an angle, using exact pi fractions when they apply.

    Small rational multiples of pi come out as "pi/5", "-3*pi/4", "2*pi"
    and so on; anything else is the decimal value.
    """
    if x == 0:
        return "0"
    for den in range(1, 13):
        num = x * den / math.pi
        rounded = round(num)
        if rounded != 0 and abs(num - rounded) < 1e-12:
            frac = Fraction(rounded, den)
            n, d = frac.numerator, frac.denominator
            head = "pi" if abs(n) == 1 else f"{abs(n)}*pi"
            sign = "-" if n < 0 else ""
            return f"{sign}{head}" if d == 1 else f"{sign}{head}/{d}"
    return repr(float(x))


def _complex_string(z: complex) -> str:
    z = complex(z)
    return f"{z.real!r}{z.imag:+}j" if z.imag else repr(z.real)


DEFAULT_PSI01 = (1 + 1j) / 2
DEFAULT_PSI10 = 2**-0.5
DEFAULT_THETA_Z = 0.0
DEFAULT_THETA_U = math.pi / 5
DEFAULT_THETA_V = math.pi / 3


# ---------------------------------------------------------------------------
# Classical entries


def _binary_root(name: str, p_one: float) -> NodeBlock:
    if not 0.0 <= p_one <= 1.0:
        raise InvalidParams(f"P({name}=1) must be in [0,1], got {p_one!r}")
    return NodeBlock(name, [0, 1], [1.0 - p_one, p_one])


def build_and_gate(p_x=0.5, p_y=0.5) -> CBNet:
    def gate(state, parents):
        (x,), (y,) = parents
        return 1.0 if state[0] == (x & y) else 0.0

    return CBNet.from_blocks(
        [
            _binary_root("x", p_x),
            _binary_root("y", p_y),
            NodeBlock("z", [0, 1], gate, parents=("x", "y")),
        ],
        meta={"catalog": "fig9-and"},
    )


def build_sum_node(p_x=0.5, p_y=0.5) -> CBNet:
    def total(state, parents):
        (x,), (y,) = parents
        return 1.0 if state[0] == x + y else 0.0

    return CBNet.from_blocks(
        [
            _binary_root("x", p_x),
            _binary_root("y", p_y),
            NodeBlock("z", [0, 1, 2], total, parents=("x", "y")),
        ],
        meta={"catalog": "fig10-sum"},
    )


def build_if_then(p_x=0.5, p_y=0.5, when_false=0.5) -> CBNet:
    """z = (if x then y); rows with x = 0 are left at an arbitrary split."""
    if not 0.0 <= when_false <= 1.0:
        raise InvalidParams("when_false must be in [0,1]")

    def implies(state, parents):
        (x,), (y,) = parents
        if x:
            return 1.0 if state[0] == y else 0.0
        return when_false if state[0] == 1 else 1.0 - when_false

    return CBNet.from_blocks(
        [
            _binary_root("x", p_x),
            _binary_root("y", p_y),
            NodeBlock("z", [0, 1], implies, parents=("x", "y")),
        ],
        meta={"catalog": "fig11-ifthen"},
    )


def _lambda_prior(n: int) -> list[float]:
    total = n * (n + 1) // 2
    return [(k + 1) / total for k in range(n)]


def build_hidden_pair(n_lambda=4) -> CBNet:
    """Two detector outcomes that are independent given a hidden cause.

    The conditional tables are fixed rationals so that the factorization
    P(x1, x2) = sum_l P(x1|l) P(x2|l) P(l) can be checked on concrete
    numbers; nothing depends on the specific values.
    """
    if n_lambda < 1:
        raise InvalidParams("n_lambda must be >= 1")

    def det1(state, parents):
        p = (parents[0][0] + 1) / (n_lambda + 1)
        return p if state[0] == 1 else 1.0 - p

    def det2(state, parents):
        p = 1.0 / (parents[0][0] + 2)
        return p if state[0] == 1 else 1.0 - p

    return CBNet.from_blocks(
        [
            NodeBlock("lambda", list(range(n_lambda)), _lambda_prior(n_lambda)),
            NodeBlock("x1", [0, 1], det1, parents=("lambda",)),
            NodeBlock("x2", [0, 1], det2, parents=("lambda",)),
        ],
        meta={"catalog": "fig12-clauser-horne", "n_lambda": str(n_lambda)},
    )


def build_hidden_pair_with_settings(n_lambda=4, p_t1=0.5, p_t2=0.5) -> CBNet:
    """The hidden-cause pair with randomized detector settings."""
    if n_lambda < 1:
        raise InvalidParams("n_lambda must be >= 1")

    def det1(state, parents):
        (t,), (lam,) = parents
        p = (lam + 1 + t) / (n_lambda + 2)
        return p if state[0] == 1 else 1.0 - p

    def det2(state, parents):
        (t,), (lam,) = parents
        p = (lam + 1 + 2 * t) / (n_lambda + 3)
        return p if state[0] == 1 else 1.0 - p

    return CBNet.from_blocks(
        [
            _binary_root("theta1", p_t1),
            _binary_root("theta2", p_t2),
            NodeBlock("lambda", list(range(n_lambda)), _lambda_prior(n_lambda)),
            NodeBlock("x1", [0, 1], det1, parents=("theta1", "lambda")),
            NodeBlock("x2", [0, 1], det2, parents=("theta2", "lambda")),
        ],
        meta={"catalog": "fig13-clauser-horne", "n_lambda": str(n_lambda)},
    )


def build_random_walk(n=4, p_plus=0.5) -> CBNet:
    """Positions x0..xn of a unit-step walk started at zero.

    Each xj keeps only the positions reachable in j steps (same parity
    as j), which keeps the tables small without changing any probability.
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if not 0.0 <= p_plus <= 1.0:
        raise InvalidParams("p_plus must be in [0,1]")

    def mover(state, parents):
        (x,), (d,) = parents
        return 1.0 if state[0] == x + d else 0.0

    blocks = [NodeBlock("x0", [0], [1.0])]
    for j in range(1, n + 1):
        blocks.append(NodeBlock(f"dx{j}", [-1, 1], [1.0 - p_plus, p_plus]))
        blocks.append(
            NodeBlock(
                f"x{j}",
                list(range(-j, j + 1, 2)),
                mover,
                parents=(f"x{j-1}", f"dx{j}"),
            )
        )
    return CBNet.from_blocks(
        blocks, meta={"catalog": "fig14-walk", "n": str(n), "p_plus": repr(p_plus)}
    )


def build_two_cycle() -> CBNet:
    """The two-node delta cycle; a pre-net whose total mass is 2, not 1."""
    delta = np.eye(2)
    return CBNet.from_blocks(
        [
            NodeBlock("u", [0, 1], delta, parents=("w",)),
            NodeBlock("w", [0, 1], delta, parents=("u",)),
        ],
        pre_net=True,
        meta={"catalog": "fig4-cycle"},
    )


# ---------------------------------------------------------------------------
# Quantum beam entries


def _psi_block(psi: InitialWavefunction) -> NodeBlock:
    return NodeBlock(
        "psi",
        [(0, 1), (1, 0)],
        lambda state, parents: psi.amplitude(state),
        components=("psi._minus", "psi._plus"),
    )


def _tap(name: str, parent: str, k: int) -> NodeBlock:
    """Projection node copying the k-th (1-based) mode of a beam pair."""
    return NodeBlock(name, [0, 1], marginalizer_table(k, 2), parents=(parent,))


def _magnet(name, direction, parents, modes, phases=None) -> NodeBlock:
    return NodeBlock(
        name,
        MAGNET_STATES,
        stern_gerlach_table(direction, modes, phases=phases),
        parents=tuple(parents),
        components=(f"{name}._minus", f"{name}._plus"),
    )


def _spin_params(params: Mapping) -> dict:
    """Pop the shared beam-net parameters, applying the standard defaults."""
    out = {
        "psi01": params.pop("psi01", DEFAULT_PSI01),
        "psi10": params.pop("psi10", DEFAULT_PSI10),
        "theta_z": params.pop("theta_z", DEFAULT_THETA_Z),
        "theta_u": params.pop("theta_u", DEFAULT_THETA_U),
        "theta_v": params.pop("theta_v", DEFAULT_THETA_V),
    }
    return out


def _spin_meta(entry_id: str, p: Mapping, query: Iterable[str], **extra) -> dict:
    meta = {
        "catalog": entry_id,
        "psi01": _complex_string(p["psi01"]),
        "psi10": _complex_string(p["psi10"]),
        "theta_z": angle_string(p["theta_z"]),
        "theta_u": angle_string(p["theta_u"]),
        "query_components": ",".join(query),
    }
    if "theta_v" in extra:
        meta["theta_v"] = angle_string(extra.pop("theta_v"))
    meta.update({k: str(v) for k, v in extra.items()})
    return meta


TWO_MAGNET_QUERY = ("z.plus", "z.minus", "u.plus", "u.minus")
THREE_MAGNET_QUERY = ("z.plus", "z.minus", "v.plus", "v.minus", "u.plus", "u.minus")


def _check_spin_kwargs(params: Mapping):
    if params:
        raise InvalidParams(f"unknown parameters: {sorted(params)}")


def build_two_magnet_tree(**params) -> QBNet:
    """Source, one tapped beam into a second magnet, every exit distinct."""
    p = _spin_params(params)
    _check_spin_kwargs(params)
    psi = InitialWavefunction(p["psi01"], p["psi10"])
    z = SpinDirection(p["theta_z"], label="z")
    u = SpinDirection(p["theta_u"], label="u")
    blocks = [
        _psi_block(psi),
        _tap("z.minus", "psi", 1),
        _tap("z.plus", "psi", 2),
        _magnet("u", u, ["z.plus"], [(z, "+")]),
        _tap("u.minus", "u", 1),
        _tap("u.plus", "u", 2),
    ]
    return QBNet.from_blocks(
        blocks, meta=_spin_meta("fig18", p, TWO_MAGNET_QUERY)
    )


def build_two_magnet_loop(**params) -> QBNet:
    """Both source beams recombine inside the second magnet."""
    p = _spin_params(params)
    _check_spin_kwargs(params)
    psi = InitialWavefunction(p["psi01"], p["psi10"])
    z = SpinDirection(p["theta_z"], label="z")
    u = SpinDirection(p["theta_u"], label="u")
    blocks = [
        _psi_block(psi),
        _tap("z.minus", "psi", 1),
        _tap("z.plus", "psi", 2),
        _magnet("u", u, ["z.minus", "z.plus"], [(z, "-"), (z, "+")]),
        _tap("u.minus", "u", 1),
        _tap("u.plus", "u", 2),
    ]
    return QBNet.from_blocks(
        blocks, meta=_spin_meta("fig19-loop", p, TWO_MAGNET_QUERY)
    )


def _three_magnet(entry_id: str, wiring: Callable, **params) -> QBNet:
    p = _spin_params(params)
    xi = params.pop("xi", None) if entry_id in ("fig28", "fig29") else None
    _check_spin_kwargs(params)
    psi = InitialWavefunction(p["psi01"], p["psi10"])
    dirs = {
        "z": SpinDirection(p["theta_z"], label="z"),
        "u": SpinDirection(p["theta_u"], label="u"),
        "v": SpinDirection(p["theta_v"], label="v"),
    }
    extra = {"theta_v": p["theta_v"]}
    if entry_id in ("fig28", "fig29"):
        phase = consistency_phase(psi) if xi is None else np.exp(1j * float(xi))
        extra["phase"] = _complex_string(phase)
        blocks = wiring(psi, dirs, phase)
    else:
        blocks = wiring(psi, dirs)
    return QBNet.from_blocks(
        blocks, meta=_spin_meta(entry_id, p, THREE_MAGNET_QUERY, **extra)
    )


def _source_taps(psi):
    return [_psi_block(psi), _tap("z.minus", "psi", 1), _tap("z.plus", "psi", 2)]


def _wiring_chain(psi, d):
    # z.minus exits; z.plus -> v; v.plus -> u
    return _source_taps(psi) + [
        _magnet("v", d["v"], ["z.plus"], [(d["z"], "+")]),
        _tap("v.minus", "v", 1),
        _tap("v.plus", "v", 2),
        _magnet("u", d["u"], ["v.plus"], [(d["v"], "+")]),
        _tap("u.minus", "u", 1),
        _tap("u.plus", "u", 2),
    ]


def _wiring_merge_then_chain(psi, d):
    # both z beams -> v; v.minus exits; v.plus -> u
    return _source_taps(psi) + [
        _magnet("v", d["v"], ["z.minus", "z.plus"], [(d["z"], "-"), (d["z"], "+")]),
        _tap("v.minus", "v", 1),
        _tap("v.plus", "v", 2),
        _magnet("u", d["u"], ["v.plus"], [(d["v"], "+")]),
        _tap("u.minus", "u", 1),
        _tap("u.plus", "u", 2),
    ]


def _wiring_split_then_merge(psi, d):
    # z.minus exits; z.plus -> v; both v beams -> u
    return _source_taps(psi) + [
        _magnet("v", d["v"], ["z.plus"], [(d["z"], "+")]),
        _tap("v.minus", "v", 1),
        _tap("v.plus", "v", 2),
        _magnet(
            "u", d["u"], ["v.minus", "v.plus"], [(d["v"], "-"), (d["v"], "+")]
        ),
        _tap("u.minus", "u", 1),
        _tap("u.plus", "u", 2),
    ]


def _wiring_double_merge(psi, d):
    # both z beams -> v; both v beams -> u; only u exits
    return _source_taps(psi) + [
        _magnet("v", d["v"], ["z.minus", "z.plus"], [(d["z"], "-"), (d["z"], "+")]),
        _tap("v.minus", "v", 1),
        _tap("v.plus", "v", 2),
        _magnet(
            "u", d["u"], ["v.minus", "v.plus"], [(d["v"], "-"), (d["v"], "+")]
        ),
        _tap("u.minus", "u", 1),
        _tap("u.plus", "u", 2),
    ]


def _wiring_two_branches(psi, d):
    # z.minus -> v and z.plus -> u in parallel; all four exits distinct
    return _source_taps(psi) + [
        _magnet("v", d["v"], ["z.minus"], [(d["z"], "-")]),
        _tap("v.minus", "v", 1),
        _tap("v.plus", "v", 2),
        _magnet("u", d["u"], ["z.plus"], [(d["z"], "+")]),
        _tap("u.minus", "u", 1),
        _tap("u.plus", "u", 2),
    ]


def _wiring_recombine_one(psi, d, phase):
    # z.minus -> v; v.minus exits; v.plus rejoins z.plus inside u, with the
    # inline phase on the rejoining beam
    return _source_taps(psi) + [
        _magnet("v", d["v"], ["z.minus"], [(d["z"], "-")]),
        _tap("v.minus", "v", 1),
        _tap("v.plus", "v", 2),
        _magnet(
            "u",
            d["u"],
            ["z.plus", "v.plus"],
            [(d["z"], "+"), (d["v"], "+")],
            phases=[1.0, phase],
        ),
        _tap("u.minus", "u", 1),
        _tap("u.plus", "u", 2),
    ]


def _wiring_recombine_both(psi, d, phase):
    # z.minus -> v with the inline phase on v's fed beam; both v beams and
    # z.plus all rejoin inside u
    return _source_taps(psi) + [
        _magnet("v", d["v"], ["z.minus"], [(d["z"], "-")], phases=[phase]),
        _tap("v.minus", "v", 1),
        _tap("v.plus", "v", 2),
        _magnet(
            "u",
            d["u"],
            ["z.plus", "v.minus", "v.plus"],
            [(d["z"], "+"), (d["v"], "-"), (d["v"], "+")],
        ),
        _tap("u.minus", "u", 1),
        _tap("u.plus", "u", 2),
    ]


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    summary: str
    builder: Callable
    kind: str  # "classical" | "quantum"


_ENTRIES = [
    CatalogEntry("fig9-and", "AND gate over two random bits", build_and_gate, "classical"),
    CatalogEntry("fig10-sum", "z = x + y constraint node", build_sum_node, "classical"),
    CatalogEntry("fig11-ifthen", "z = (if x then y) constraint node", build_if_then, "classical"),
    CatalogEntry(
        "fig12-clauser-horne",
        "two outcomes independent given a hidden cause",
        build_hidden_pair,
        "classical",
    ),
    CatalogEntry(
        "fig13-clauser-horne",
        "hidden-cause pair with randomized settings",
        build_hidden_pair_with_settings,
        "classical",
    ),
    CatalogEntry("fig14-walk", "unit-step random walk positions", build_random_walk, "classical"),
    CatalogEntry("fig4-cycle", "two-node delta cycle (pre-net, mass 2)", build_two_cycle, "classical"),
    CatalogEntry("fig18", "two magnets, tree layout", build_two_magnet_tree, "quantum"),
    CatalogEntry("fig19-loop", "two magnets, recombining loop", build_two_magnet_loop, "quantum"),
    CatalogEntry(
        "fig23",
        "three magnets chained, all taps exit",
        lambda **kw: _three_magnet("fig23", _wiring_chain, **kw),
        "quantum",
    ),
    CatalogEntry(
        "fig24",
        "merge both source beams, then chain",
        lambda **kw: _three_magnet("fig24", _wiring_merge_then_chain, **kw),
        "quantum",
    ),
    CatalogEntry(
        "fig25",
        "split at v, merge both v beams at u",
        lambda **kw: _three_magnet("fig25", _wiring_split_then_merge, **kw),
        "quantum",
    ),
    CatalogEntry(
        "fig26",
        "merge at v and again at u",
        lambda **kw: _three_magnet("fig26", _wiring_double_merge, **kw),
        "quantum",
    ),
    CatalogEntry(
        "fig27",
        "two parallel branches, four exits",
        lambda **kw: _three_magnet("fig27", _wiring_two_branches, **kw),
        "quantum",
    ),
    CatalogEntry(
        "fig28",
        "one beam rejoins at u; needs the inline phase",
        lambda **kw: _three_magnet("fig28", _wiring_recombine_one, **kw),
        "quantum",
    ),
    CatalogEntry(
        "fig29",
        "both v beams rejoin at u; normalized for any phase",
        lambda **kw: _three_magnet("fig29", _wiring_recombine_both, **kw),
        "quantum",
    ),
]

_BY_ID = {e.id: e for e in _ENTRIES}
_ALIASES = {e.id.split("-")[0]: e.id for e in _ENTRIES if "-" in e.id}


def list_entries() -> list[CatalogEntry]:
    return list(_ENTRIES)


def build(entry_id: str, **params):
    """Construct a catalog net by id; bare figure names are accepted."""
    canonical = _ALIASES.get(entry_id, entry_id)
    entry = _BY_ID.get(canonical)
    if entry is None:
        known = ", ".join(sorted(_BY_ID))
        raise UnknownEntry(f"no catalog entry {entry_id!r}; known: {known}")
    return entry.builder(**params)


# ---------------------------------------------------------------------------
# Evidence cases


@dataclass(frozen=True)
class EvidenceCase:
    """One row of an evidence-case table.

    ``constraints`` maps component names to either a sharp integer value
    or a frozenset of allowed values; unconstrained components are simply
    absent (the blank columns of the table).
    """

    number: int
    constraints: tuple = ()

    def as_sets(self) -> dict[str, frozenset]:
        return {alpha: value_set(v) for alpha, v in self.constraints}

    def describe(self) -> str:
        if not self.constraints:
            return "(no evidence)"
        bits = []
        for alpha, v in self.constraints:
            if isinstance(v, frozenset):
                bits.append(f"{alpha}in{{{','.join(str(x) for x in sorted(v))}}}")
            else:
                bits.append(f"{alpha}={v}")
        return " ".join(bits)


def query_components(net) -> tuple[str, ...]:
    """Components used for evidence and hypotheses, in header order."""
    meta = net.meta.get("query_components")
    if meta:
        return tuple(meta.split(","))
    return tuple(net.all_components)


def default_cases(net) -> list[EvidenceCase]:
    """No-evidence case, then all single values, then all value pairs.

    For binary components the layout is: case 1 blank; one case per
    component with value 0, then one per component with value 1; then for
    each component pair in header order the four value combinations
    (0,0), (0,1), (1,0), (1,1).
    """
    comps = query_components(net)
    cases = [EvidenceCase(1)]
    n = 2
    for value_pick in range(2):
        for alpha in comps:
            values = net.space.component_values(alpha)
            v = values[min(value_pick, len(values) - 1)]
            cases.append(EvidenceCase(n, ((alpha, v),)))
            n += 1
    for i, j in itertools.combinations(range(len(comps)), 2):
        a, b = comps[i], comps[j]
        for va in net.space.component_values(a):
            for vb in net.space.component_values(b):
                cases.append(EvidenceCase(n, ((a, va), (b, vb))))
                n += 1
    return cases


@dataclass(frozen=True)
class HypothesisRow:
    """Distribution over one hypothesis set, classical and quantum."""

    components: tuple[str, ...]
    combos: tuple
    cb: tuple
    qb: tuple
    cb_fqna: float
    qb_fqna: float


@dataclass
class CaseResult:
    case: EvidenceCase
    no_output: bool = False
    rows: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_evidence_cases(net, cases=None, hypotheses="both") -> list[CaseResult]:
    """Evaluate evidence cases against single and pair hypotheses.

    Returns one CaseResult per case. A case whose evidence is impossible
    is marked no_output with no rows; errors inside individual rows are
    recorded and the run continues.
    """
    if not isinstance(net, QBNet):
        raise InvalidParams("run_evidence_cases expects a quantum net")
    if hypotheses not in ("singles", "pairs", "both"):
        raise InvalidParams(f"hypotheses must be singles/pairs/both, got {hypotheses!r}")
    if cases is None:
        cases = default_cases(net)
    comps = query_components(net)
    sets: list[tuple[str, ...]] = []
    if hypotheses in ("singles", "both"):
        sets += [(a,) for a in comps]
    if hypotheses in ("pairs", "both"):
        sets += [(comps[i], comps[j]) for i, j in itertools.combinations(range(len(comps)), 2)]

    parent = parent_cb_net(net)
    results = []
    for case in cases:
        result = CaseResult(case)
        results.append(result)
        evidence = case.as_sets()
        unknown = [a for a in evidence if not net.space.has_component(a)]
        if unknown:
            result.errors.append(f"unknown components {sorted(unknown)}")
            continue
        qb_base = chi(net, evidence)
        cb_base = chi_classical(parent, evidence) if qb_base else 0.0
        if cb_base == 0.0:
            result.no_output = True
            continue
        for hyp in sets:
            try:
                blocks = value_blocks(net, hyp)
                qb, qb_total = distribution(chi, net, blocks, evidence)
                cb, cb_total = distribution(chi_classical, parent, blocks, evidence)
                row = HypothesisRow(
                    hyp,
                    tuple(tuple(b.values()) for b in blocks),
                    tuple(normalize(cb, cb_total, evidence)),
                    tuple(normalize(qb, qb_total, evidence)),
                    cb_total / cb_base,
                    qb_total / qb_base,
                )
            except ContradictoryEvidence:
                result.errors.append(f"{hyp}: zero weight under this evidence")
                continue
            except Exception as exc:  # record and keep going
                result.errors.append(f"{hyp}: {exc}")
                continue
            result.rows.append(row)
    return results
