"""Built-in example nets and the batch evidence-case runner.

The classical entries are small teaching nets: logic gates, constraint
nodes, a hidden-variable pair experiment, and a one-dimensional random
walk. Apart from the two-node cycle, every non-root node is one of two
kinds: a function node, whose state is a deterministic function of its
parents' values, or a Bernoulli node, a noisy detector that reads 1 with
a probability set by its parents' values.

The quantum entries are single-particle beam experiments with two or
three splitting magnets wired in different layouts: trees where each beam
is seen at most once, loops where beams recombine, and recombining layouts
that need an inline phase to stay normalized.

Every beam net is one row of ``BEAM_LAYOUTS``, built by ``build_beam_net``.
A row lists the magnets in node order, each with the beams it is fed:
"v.plus" is the plus beam out of magnet v, entering as spin-up along v,
and a trailing "~" puts the inline phase on that beam. From the row the
builder derives the whole net:

* the source node ``psi`` with state pair (n_minus, n_plus); the source
  acts as the implicit magnet ``z``,
* each magnet (``u``, ``v``) is a node with internal components
  ``u._minus`` / ``u._plus`` that queries normally never touch,
* each beam is tapped by a projection node named ``<magnet>.<mode>``
  (``z.minus``, ``u.plus``, ...) whose single component carries the
  occupation number people condition on; the query components are z's
  taps, then each magnet's, plus before minus,
* theta_v appears in the meta data only when the row has a v magnet, and
  the ``xi`` parameter and the ``phase`` meta only when a beam carries "~".

``build`` constructs any entry by id, ``default_cases`` reproduces the
standard evidence-case table for a net (no evidence, every single value,
every value pair), and ``run_evidence_cases`` evaluates each case against
one- and two-component hypotheses for both the quantum net and its parent
classical net.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .classical import CBNet
from .core import NodeBlock, Weights, expect_kind, max_states
from .errors import InvalidParams, UnknownEntry
from .netfile import EvidenceCase, angle_string
from .quantum import QBNet, chi, parent_cb_net  # noqa: F401  (perfbench traces catalog.chi)
from .spin import (
    MAGNET_STATES,
    InitialWavefunction,
    SpinDirection,
    consistency_phase,
    marginalizer_table,
    stern_gerlach_table,
)


def _complex_string(z: complex) -> str:
    z = complex(z)
    return f"{z.real!r}{z.imag:+}j" if z.imag else repr(z.real)


# ---------------------------------------------------------------------------
# Classical entries


def _binary_root(name: str, p_one: float) -> NodeBlock:
    if not 0.0 <= p_one <= 1.0:
        raise InvalidParams(f"P({name}=1) must be in [0,1], got {p_one!r}")
    return NodeBlock(name, [0, 1], [1.0 - p_one, p_one])


def _hidden_cause(n_lambda: int, settings=()) -> list[NodeBlock]:
    """The roots of a hidden-cause pair: a binary root per (name, P(1))
    setting, then ``lambda`` over 0..n-1 with P(k) proportional to k + 1."""
    if n_lambda < 1:
        raise InvalidParams("n_lambda must be >= 1")
    total = n_lambda * (n_lambda + 1) // 2
    return [
        *(_binary_root(name, p_one) for name, p_one in settings),
        NodeBlock("lambda", list(range(n_lambda)), [(k + 1) / total for k in range(n_lambda)]),
    ]


def _function_node(name: str, states, parents, f) -> NodeBlock:
    """A deterministic node: its state is ``f(*parent values)``."""

    def table(state, parent_states):
        return 1.0 if state[0] == f(*(s[0] for s in parent_states)) else 0.0

    return NodeBlock(name, states, table, parents=parents)


def _bernoulli_node(name: str, parents, p) -> NodeBlock:
    """A noisy detector: 1 with probability ``p(*parent values)``, else 0."""

    def table(state, parent_states):
        p_one = p(*(s[0] for s in parent_states))
        return p_one if state[0] == 1 else 1.0 - p_one

    return NodeBlock(name, [0, 1], table, parents=parents)


def _two_bit_net(catalog_id: str, p_x, p_y, z: NodeBlock) -> CBNet:
    """Random bits x and y feeding the node z."""
    roots = [_binary_root("x", p_x), _binary_root("y", p_y)]
    return CBNet.from_blocks([*roots, z], meta={"catalog": catalog_id})


def build_and_gate(p_x=0.5, p_y=0.5) -> CBNet:
    z = _function_node("z", [0, 1], ("x", "y"), lambda x, y: x & y)
    return _two_bit_net("fig9-and", p_x, p_y, z)


def build_sum_node(p_x=0.5, p_y=0.5) -> CBNet:
    z = _function_node("z", [0, 1, 2], ("x", "y"), lambda x, y: x + y)
    return _two_bit_net("fig10-sum", p_x, p_y, z)


def build_if_then(p_x=0.5, p_y=0.5, when_false=0.5) -> CBNet:
    """z = (if x then y); rows with x = 0 are left at an arbitrary split."""
    if not 0.0 <= when_false <= 1.0:
        raise InvalidParams("when_false must be in [0,1]")
    z = _bernoulli_node("z", ("x", "y"), lambda x, y: float(y) if x else when_false)
    return _two_bit_net("fig11-ifthen", p_x, p_y, z)


def build_hidden_pair(n_lambda=4) -> CBNet:
    """Two detector outcomes that are independent given a hidden cause.

    The conditional tables are fixed rationals so that the factorization
    P(x1, x2) = sum_l P(x1|l) P(x2|l) P(l) can be checked on concrete
    numbers; nothing depends on the specific values.
    """
    return CBNet.from_blocks(
        [
            *_hidden_cause(n_lambda),
            _bernoulli_node("x1", ("lambda",), lambda lam: (lam + 1) / (n_lambda + 1)),
            _bernoulli_node("x2", ("lambda",), lambda lam: 1.0 / (lam + 2)),
        ],
        meta={"catalog": "fig12-clauser-horne", "n_lambda": str(n_lambda)},
    )


def build_hidden_pair_with_settings(n_lambda=4, p_t1=0.5, p_t2=0.5) -> CBNet:
    """The hidden-cause pair with randomized detector settings."""
    return CBNet.from_blocks(
        [
            *_hidden_cause(n_lambda, [("theta1", p_t1), ("theta2", p_t2)]),
            _bernoulli_node("x1", ("theta1", "lambda"), lambda t, k: (k + 1 + t) / (n_lambda + 2)),
            _bernoulli_node(
                "x2", ("theta2", "lambda"), lambda t, k: (k + 1 + 2 * t) / (n_lambda + 3)
            ),
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
    blocks = [NodeBlock("x0", [0], [1.0])]
    for j in range(1, n + 1):
        positions = list(range(-j, j + 1, 2))
        blocks += [
            NodeBlock(f"dx{j}", [-1, 1], [1.0 - p_plus, p_plus]),
            _function_node(f"x{j}", positions, (f"x{j-1}", f"dx{j}"), lambda x, d: x + d),
        ]
    meta = {"catalog": "fig14-walk", "n": str(n), "p_plus": repr(p_plus)}
    return CBNet.from_blocks(blocks, meta=meta)


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

# (magnet, fed beams) in node order. A beam "X.minus" / "X.plus" leaves magnet
# X (the source is magnet z) and enters the fed magnet as spin -/+ along X;
# each magnet is tapped by "<magnet>.minus" / "<magnet>.plus", and a trailing
# "~" carries the inline phase on that beam.
BEAM_LAYOUTS = {
    "fig18": [("u", ("z.plus",))],
    "fig19-loop": [("u", ("z.minus", "z.plus"))],
    "fig23": [("v", ("z.plus",)), ("u", ("v.plus",))],
    "fig24": [("v", ("z.minus", "z.plus")), ("u", ("v.plus",))],
    "fig25": [("v", ("z.plus",)), ("u", ("v.minus", "v.plus"))],
    "fig26": [("v", ("z.minus", "z.plus")), ("u", ("v.minus", "v.plus"))],
    "fig27": [("v", ("z.minus",)), ("u", ("z.plus",))],
    "fig28": [("v", ("z.minus",)), ("u", ("z.plus", "v.plus~"))],
    "fig29": [("v", ("z.minus~",)), ("u", ("z.plus", "v.minus", "v.plus"))],
}

BEAM_DEFAULTS = {
    "psi01": (1 + 1j) / 2,
    "psi10": 2**-0.5,
    "theta_z": 0.0,
    "theta_u": math.pi / 5,
    "theta_v": math.pi / 3,
}


def _taps(magnet: str, source: str) -> list[NodeBlock]:
    """Projection nodes copying the minus and plus modes of ``source``."""
    return [
        NodeBlock(f"{magnet}.{mode}", [0, 1], marginalizer_table(k, 2), parents=(source,))
        for k, mode in ((1, "minus"), (2, "plus"))
    ]


def build_beam_net(entry_id: str, **params) -> QBNet:
    """The beam net of one ``BEAM_LAYOUTS`` entry.

    Every beam net takes the ``BEAM_DEFAULTS`` parameters; theta_v goes
    unused without a v magnet. A layout with a "~" beam also takes ``xi``,
    the inline phase angle, which defaults to the consistency phase.
    """
    layout = BEAM_LAYOUTS[entry_id]
    p = {k: params.pop(k, default) for k, default in BEAM_DEFAULTS.items()}
    phased = any(beam.endswith("~") for _, fed in layout for beam in fed)
    xi = params.pop("xi", None) if phased else None
    if params:
        raise InvalidParams(f"unknown parameters: {sorted(params)}")
    psi = InitialWavefunction(p["psi01"], p["psi10"])
    magnets = [m for m, _ in layout]
    dirs = {m: SpinDirection(p[f"theta_{m}"], label=m) for m in ["z", *magnets]}
    meta = {
        "catalog": entry_id,
        "psi01": _complex_string(p["psi01"]),
        "psi10": _complex_string(p["psi10"]),
        **{f"theta_{m}": angle_string(p[f"theta_{m}"]) for m in dirs},
        "query_components": ",".join(f"{m}.{mode}" for m in dirs for mode in ("plus", "minus")),
    }
    phase = 1.0
    if phased:
        if xi is None:
            phase = consistency_phase(psi)
        else:
            xi = float(xi)
            if not math.isfinite(xi):
                raise InvalidParams(f"xi must be finite, got {xi!r}")
            phase = np.exp(1j * xi)
        meta["phase"] = _complex_string(phase)

    blocks = [
        NodeBlock(
            "psi",
            [(0, 1), (1, 0)],
            lambda state, parents: psi.amplitude(state),
            components=("psi._minus", "psi._plus"),
        ),
        *_taps("z", "psi"),
    ]
    for magnet, fed in layout:
        beams = tuple(beam.rstrip("~") for beam in fed)
        modes = []
        for beam in beams:
            source, mode = beam.split(".")
            modes.append((dirs[source], "-" if mode == "minus" else "+"))
        phases = [phase if beam.endswith("~") else 1.0 for beam in fed]
        blocks.append(
            NodeBlock(
                magnet,
                MAGNET_STATES,
                stern_gerlach_table(dirs[magnet], modes, phases=phases),
                parents=beams,
                components=(f"{magnet}._minus", f"{magnet}._plus"),
            )
        )
        blocks += _taps(magnet, magnet)
    return QBNet.from_blocks(blocks, meta=meta)


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    summary: str
    builder: Callable
    kind: str  # "classical" | "quantum"


_BEAM_SUMMARIES = {
    "fig18": "two magnets, tree layout",
    "fig19-loop": "two magnets, recombining loop",
    "fig23": "three magnets chained, all taps exit",
    "fig24": "merge both source beams, then chain",
    "fig25": "split at v, merge both v beams at u",
    "fig26": "merge at v and again at u",
    "fig27": "two parallel branches, four exits",
    "fig28": "one beam rejoins at u; needs the inline phase",
    "fig29": "both v beams rejoin at u; normalized for any phase",
}

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
    *(
        CatalogEntry(fid, summary, functools.partial(build_beam_net, fid), "quantum")
        for fid, summary in _BEAM_SUMMARIES.items()
    ),
]

_BY_ID = {e.id: e for e in _ENTRIES}
_ALIASES = {e.id.split("-")[0]: e.id for e in _ENTRIES if "-" in e.id}


def list_entries() -> list[CatalogEntry]:
    return list(_ENTRIES)


def build(entry_id: str, **params):
    """Construct a catalog net by id; bare figure names are accepted.

    A parameter the entry does not take raises InvalidParams("unknown
    parameters: [...]"), named from the builder's signature or, for a builder
    taking ``**params``, by the builder itself. A value of the wrong type
    raises InvalidParams("bad parameters for <id>: ...").
    """
    canonical = _ALIASES.get(entry_id, entry_id)
    entry = _BY_ID.get(canonical)
    if entry is None:
        known = ", ".join(sorted(_BY_ID))
        raise UnknownEntry(f"no catalog entry {entry_id!r}; known: {known}")
    accepted = inspect.signature(entry.builder).parameters.values()
    if all(p.kind is not p.VAR_KEYWORD for p in accepted):
        unknown = sorted(set(params) - {p.name for p in accepted})
        if unknown:
            raise InvalidParams(f"unknown parameters: {unknown}")
    try:
        return entry.builder(**params)
    except TypeError as exc:
        raise InvalidParams(f"bad parameters for {canonical}: {exc}") from None


# ---------------------------------------------------------------------------
# Evidence cases


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
        for va, vb in net.space.combos((a, b)):
            cases.append(EvidenceCase(n, ((a, va), (b, vb))))
            n += 1
    return cases


@dataclass(frozen=True, init=False)
class HypothesisRow:
    """Distribution over one hypothesis set, classical and quantum."""

    components: tuple[str, ...]
    combos: tuple
    cb: tuple
    qb: tuple
    cb_fqna: float
    qb_fqna: float

    def __init__(self, components, combos, cb, qb, cb_fqna, qb_fqna):
        # one dict update, not the six object.__setattr__ calls of a frozen init
        vars(self).update(components=components, combos=combos, cb=cb, qb=qb,
                          cb_fqna=cb_fqna, qb_fqna=qb_fqna)


@dataclass
class CaseResult:
    case: EvidenceCase
    no_output: bool = False
    rows: list = field(default_factory=list)
    errors: list = field(default_factory=list)


@functools.lru_cache(maxsize=256)
def _layout(space, comps, hypotheses) -> tuple[tuple, tuple]:
    """The runner's hypothesis sets and (set, value combos) pairs, kept per
    state space, query components and ``hypotheses`` (256 kept)."""
    singles, pairs = [(a,) for a in comps], list(itertools.combinations(comps, 2))
    sets = tuple({"singles": singles, "pairs": pairs, "both": singles + pairs}[hypotheses])
    return sets, tuple((hyp, space.combos(hyp)) for hyp in sets)


def run_evidence_cases(net, cases=None, hypotheses="both") -> list[CaseResult]:
    """Evaluate evidence cases against single and pair hypotheses.

    Returns one CaseResult per case. A case whose evidence is impossible
    is marked no_output with no rows; a row of zero weight, an unknown
    component or one constrained twice is recorded as an error. Each case
    reads chi(E) and every row with one ``Weights.rows`` read on the
    quantum net and one on its parent, normalized by one loop
    over the sets (``Weights.table``), so a row has the bits that
    ``Weights.row`` reads off the same open nodes. The sets and their combos
    are kept per state space (256 kept). Evidence on the query components' nodes
    only masks each net's cached contraction, so the cases contract again
    only for evidence on other nodes.
    """
    expect_kind(net, "quantum", "run_evidence_cases")
    if hypotheses not in ("singles", "pairs", "both"):
        raise InvalidParams(f"hypotheses must be singles/pairs/both, got {hypotheses!r}")
    if cases is None:
        cases = default_cases(net)
    comps = query_components(net)
    sets, hyps = _layout(net.space, comps, hypotheses)
    parent, cap = parent_cb_net(net), max_states()
    results = []
    for case in cases:
        result = CaseResult(case)
        results.append(result)
        try:
            evidence, twice = case.as_sets(), None
        except ValueError as exc:  # a component constrained twice, recorded after unknown ones
            evidence, twice = dict(case.constraints), str(exc)
        unknown = [a for a in evidence if not net.space.has_component(a)]
        if unknown or twice:
            result.errors.append(f"unknown components {sorted(unknown)}" if unknown else twice)
            continue
        qb = Weights(net, comps, evidence, cap).table(sets)
        cb = None if qb is None else Weights(parent, comps, evidence, cap).table(sets)
        if cb is None:  # chi(E) is zero
            result.no_output = True
            continue
        for (hyp, combos), q, c in zip(hyps, qb, cb):
            if q and c:
                result.rows.append(HypothesisRow(hyp, combos, tuple(c[0]), tuple(q[0]), c[1], q[1]))
            else:
                result.errors.append(f"{hyp}: zero weight under this evidence")
    return results
