"""State spaces, node tables, and the machinery shared by both net kinds.

Every node carries a finite list of states; a state is a vector of integer
occupation numbers, one per named component. The component names of all nodes
together form the index set Gamma of the whole net, and conditioning always
talks about components, never whole nodes, so the names must be globally
unique.

A node's table holds one value per (state, parent configuration) pair. It is
stored once, as a read-only factor with one axis per parent (in declared
order) and a last axis for the node: ``factor[i, j, k]`` is the value of the
node's state k under parent states i and j. Every route indexes the factor
directly. The 2-D form, which ``NodeBlock`` takes and ``BaseNet.table``
shows, flattens the parent axes into columns in ``itertools.product`` order
over the parent state lists (the last parent varies fastest); root nodes have
a single column. That column order is defined here alone: ``as_table``
gives a factor's 2-D form, and ``BaseNet`` stores a 2-D table as a factor.

Total mass, chi, the external map and coarsening are all sums over the
joint, and the contraction engine computes every one of them without
materializing it. A greedy planner sums the nodes that are not kept open
out one at a time, multiplying only the factors that mention the node
(variable elimination), and compiles the eliminations into einsum steps once
per net. A filter multiplies a node's factor by a 0/1 indicator of its
allowed states. The cap (default 2**20, override with the QBNET_MAX_STATES
environment variable) bounds each step's full index space: the product of
the state counts of every node the step touches.

The dense enumeration (``BaseNet.enumeration`` and ``filter_mask``)
materializes the joint value vector over the full cartesian product of node
states. No route computes with it; it stays as the plain reference that the
engine is tested against. It refuses joints past the same cap through
``joint_states``, as the path-sum listing does.

The query layer at the very bottom answers every query from one opened
tensor. Tucci's conditional divides a hypothesis combo's weight by the total
over every value combo of the hypothesis components, so ``Weights`` keeps
the nodes owning those components open (and, on quantum nets, the external
nodes) in one contraction under the evidence filters, and reads chi(E) and
every combo or value-set block off it with 0/1 indicator einsums, or many
sets' combos with one 0/1 selector product (``Weights.rows``). Past the cap
each block is one ``chi`` call instead. ``chi`` is one function for both net
kinds (the classical and quantum modules re-export it), and so is
``external_map``. ``Weights.row`` is the one hypothesis-row recipe, used by
the CLI query, ``quantum.f_qna`` and the case runner: each combo over the
combos' total, and f_qna, that total over chi(E). ``conditional`` is its
probabilities-only half; it skips chi(E), which can vanish on a quantum net
while the combos do not. Every other route answers through ``Weights`` too;
the path-sum route keeps one chi call per block, as the independent check.

A net never changes after construction, so it caches what its queries reuse:
a plan per set of open nodes, an indicator column per component, the last
tensor a ``Weights`` opened and the last selector it built (one read-only
entry each, keyed by open nodes and evidence or sets, at most the cap in
entries: 16 MB at the default) and, on a quantum net, its parent classical
net (tables the size of its own).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContradictoryEvidence, CyclicGraph, InvalidParams, InvalidState
from .errors import StateSpaceTooLarge
from .graph import Arrow, LabelledGraph, classify_nodes, chronological_labelling

DEFAULT_MAX_STATES = 2 ** 20


def max_states() -> int:
    """The state cap, from QBNET_MAX_STATES or the default."""
    raw = os.environ.get("QBNET_MAX_STATES")
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"QBNET_MAX_STATES must be a positive integer, got {raw!r}")
    return value


def _as_state(state) -> tuple[int, ...]:
    if isinstance(state, int):
        return (state,)
    return tuple(map(int, state))


class StateSpace:
    """Per-node state lists plus the global component naming, from the
    blocks' states as ``NodeBlock`` normalized them."""

    def __init__(self, blocks: Sequence[NodeBlock]):
        self._components = {b.name: b.components for b in blocks}
        self._states = {}
        for b in blocks:
            states = tuple(b.states)
            if not states:
                raise ValueError(f"node {b.name!r} has no states")
            width = len(b.components)
            for s in states:
                if len(s) != width:
                    raise ValueError(
                        f"node {b.name!r}: state {s} has {len(s)} entries, expected {width}"
                    )
            if len(set(states)) != len(states):
                raise ValueError(f"node {b.name!r} has duplicate states")
            self._states[b.name] = states
        self._owner: dict[str, tuple[str, int]] = {}
        self._values: dict[str, tuple[int, ...]] = {}
        for node, comps in self._components.items():
            for k, (alpha, column) in enumerate(zip(comps, zip(*self._states[node]))):
                if alpha in self._owner:
                    raise ValueError(f"component name {alpha!r} is not globally unique")
                self._owner[alpha] = (node, k)
                self._values[alpha] = tuple(sorted(set(column)))
        self._index = {
            node: {s: i for i, s in enumerate(slist)} for node, slist in self._states.items()
        }

    def components(self, node: str) -> tuple[str, ...]:
        return self._components[node]

    def states(self, node: str) -> tuple[tuple[int, ...], ...]:
        return self._states[node]

    def owner(self, alpha: str) -> tuple[str, int]:
        """(node, position) of component alpha."""
        try:
            return self._owner[alpha]
        except KeyError:
            raise KeyError(f"unknown component {alpha!r}") from None

    def has_component(self, alpha: str) -> bool:
        return alpha in self._owner

    def component_values(self, alpha: str) -> tuple[int, ...]:
        """Sorted realizable values of one component."""
        self.owner(alpha)
        return self._values[alpha]

    def state_index(self, node: str, state) -> int:
        s = _as_state(state)
        try:
            return self._index[node][s]
        except KeyError:
            raise InvalidState(f"{s} is not a state of node {node!r}") from None


@dataclass
class NodeBlock:
    """Everything the net builder needs to know about one node.

    ``table`` may be an array-like of shape (n_states, n_columns), in the
    column order of the module docstring -- a flat length-n_states sequence
    is accepted for root nodes -- or a callable ``f(state, parent_states) ->
    value`` that is tabulated at build time.
    """

    name: str
    states: Sequence
    table: object
    parents: tuple[str, ...] = ()
    components: tuple[str, ...] | None = None

    def __post_init__(self):
        self.states = [_as_state(s) for s in self.states]
        self.parents = tuple(self.parents)
        if self.components is None:
            width = len(self.states[0]) if self.states else 1
            if width == 1:
                self.components = (self.name,)
            else:
                raise ValueError(
                    f"node {self.name!r} has {width} components; explicit names required"
                )
        else:
            self.components = tuple(self.components)


class _Enumeration:
    """Dense joint enumeration over one net (values vector + helpers)."""

    def __init__(self, net: "BaseNet"):
        self.njoint = njoint = joint_states(net)
        self.order = net.node_order()
        self.sizes = sizes = [len(net.space.states(n)) for n in self.order]
        self.pos = {n: j for j, n in enumerate(self.order)}
        self.strides = [math.prod(sizes[j + 1:]) for j in range(len(sizes))]
        self._flat = np.arange(njoint, dtype=np.int64)

        values = np.ones(njoint, dtype=net.dtype)
        for node in self.order:
            index = tuple(self.node_state_indices(n) for n in (*net.parents(node), node))
            values = values * net.factor(node)[index]
        self.values = values

        # external configuration index of each joint state, the last external node fastest
        self.external_order = net.external_order
        self.ext_group, self.n_ext = np.zeros(njoint, dtype=np.int64), 1
        for n in reversed(self.external_order):
            self.ext_group += self.node_state_indices(n) * self.n_ext
            self.n_ext *= sizes[self.pos[n]]

    def node_state_indices(self, node: str) -> np.ndarray:
        j = self.pos[node]
        return (self._flat // self.strides[j]) % self.sizes[j]

    def group_values(self, net: "BaseNet") -> list[tuple[int, ...]]:
        """External component values for each group index, in group order."""
        states = [net.space.states(n) for n in self.external_order]
        return [sum(combo, ()) for combo in itertools.product(*states)]

    def component_column(self, net: "BaseNet", alpha: str) -> np.ndarray:
        node, k = net.space.owner(alpha)
        table = np.asarray([s[k] for s in net.space.states(node)], dtype=np.int64)
        return table[self.node_state_indices(node)]


def as_table(factor: np.ndarray) -> np.ndarray:
    """A factor (parent axes, then the node's) as the 2-D table that
    ``NodeBlock`` takes: a view, one column per parent state combo."""
    return factor.reshape(-1, factor.shape[-1]).T


class BaseNet:
    """Graph + state space + one factor per node. Treat as immutable."""

    dtype: type = np.float64
    kind = "classical"

    def __init__(self, graph: LabelledGraph, space: StateSpace, tables: Mapping[str, np.ndarray],
                 meta: Mapping[str, str] | None = None, pre_net: bool = False):
        self.graph = graph
        self.space = space
        self.pre_net = bool(pre_net)
        self.meta: dict[str, str] = dict(meta or {})
        self._factors: dict[str, np.ndarray] = {}
        for node in graph.nodes:
            if node not in tables:
                raise ValueError(f"missing table for node {node!r}")
            arr = np.asarray(tables[node], dtype=self.dtype)
            shape = tuple(len(space.states(n)) for n in (*graph.parents(node), node))
            n_cols = math.prod(shape[:-1])
            if arr.ndim == 1 and n_cols == 1:
                arr = arr.reshape(shape[-1], 1)
            if arr.shape != (shape[-1], n_cols):
                raise ValueError(
                    f"node {node!r}: table shape {arr.shape}, expected ({shape[-1]}, {n_cols})"
                )
            # column c holds the parent states whose C-order flat index is c
            factor = arr.T.reshape(shape).copy()
            factor.flags.writeable = False
            self._factors[node] = factor
        try:
            self._chron: tuple[str, ...] | None = chronological_labelling(graph)
        except CyclicGraph:
            if not self.pre_net:
                raise CyclicGraph(
                    "net graph has a directed cycle (use a pre-net for diagnostics)"
                ) from None
            self._chron = None
        self._enum_cache: _Enumeration | None = None
        self._plans: dict[tuple[str, ...], _Plan] = {}
        self._columns: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}
        self._last_opened: tuple[tuple | None, np.ndarray | None] = (None, None)  # Weights._opened
        self._last_selector: tuple = (None, None, None)  # Weights.rows

    # -- construction -------------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks: Iterable[NodeBlock], meta=None, pre_net=False):
        blocks = list(blocks)
        names = [b.name for b in blocks]
        with_children = {p for b in blocks for p in b.parents}
        arrows = [Arrow(p, b.name) for b in blocks for p in b.parents]
        arrows += [Arrow(n) for n in names if n not in with_children]
        graph = LabelledGraph(names, arrows)
        space = StateSpace(blocks)
        tables = {
            b.name: cls._tabulate(b, space) if callable(b.table) else b.table for b in blocks
        }
        return cls(graph, space, tables, meta=meta, pre_net=pre_net)

    @classmethod
    def _tabulate(cls, block: NodeBlock, space: StateSpace) -> np.ndarray:
        """The 2-D table of a callable block, one column per parent combo."""
        combos = itertools.product(*[space.states(p) for p in block.parents])
        rows = [[block.table(state, combo) for state in block.states] for combo in combos]
        return np.array(rows, dtype=cls.dtype).T

    # -- structure ----------------------------------------------------------

    def node_order(self) -> tuple[str, ...]:
        """Chronological order for acyclic nets, declared order for cyclic pre-nets."""
        return self.graph.nodes if self._chron is None else self._chron

    @property
    def chronological(self) -> tuple[str, ...]:
        """The chronological labelling; a cyclic pre-net raises CyclicGraph."""
        return chronological_labelling(self.graph) if self._chron is None else self._chron

    @property
    def external_nodes(self) -> frozenset:
        if not hasattr(self, "_ext"):
            self._ext = frozenset(classify_nodes(self.graph).external)
        return self._ext

    @property
    def external_order(self) -> tuple[str, ...]:
        """The external nodes in node order."""
        if not hasattr(self, "_ext_order"):
            self._ext_order = tuple(n for n in self.node_order() if n in self.external_nodes)
        return self._ext_order

    @property
    def external_components(self) -> tuple[str, ...]:
        """Gamma_ex in canonical order: external nodes chronologically, their
        components in declared order."""
        return tuple(a for n in self.external_order for a in self.space.components(n))

    @property
    def all_components(self) -> tuple[str, ...]:
        return tuple(a for n in self.node_order() for a in self.space.components(n))

    def parents(self, node: str) -> tuple[str, ...]:
        return self.graph.parents(node)

    def factor(self, node: str) -> np.ndarray:
        """The node's stored table: a read-only array with one axis per
        parent, in declared order, then one for the node's own states."""
        return self._factors[node]

    def table(self, node: str) -> np.ndarray:
        """The node's table as (n_states, n_columns), one column per parent
        state combo, the last parent fastest: a read-only view of the factor."""
        return as_table(self._factors[node])

    def entry(self, node: str, state, parent_states: Sequence = ()):
        """One table value, addressed by state values (not indices)."""
        row = self.space.state_index(node, state)
        parents = self.parents(node)
        if len(parent_states) != len(parents):
            raise ValueError(
                f"node {node!r} has {len(parents)} parents, got {len(parent_states)} states"
            )
        index = [self.space.state_index(p, s) for p, s in zip(parents, parent_states)]
        return self._factors[node][(*index, row)]

    # -- joint values -------------------------------------------------------

    def joint_value(self, assignment: Mapping[str, object]):
        """Product of table entries for a full assignment {node: state}."""
        missing = [n for n in self.graph.nodes if n not in assignment]
        if missing:
            raise ValueError(f"assignment missing nodes {missing}")
        total = self.dtype(1)
        for node in self.graph.nodes:
            state = assignment[node]
            pstates = [assignment[p] for p in self.parents(node)]
            total = total * self.entry(node, state, pstates)
        return total

    def enumeration(self) -> _Enumeration:
        if self._enum_cache is None:
            self._enum_cache = _Enumeration(self)
        return self._enum_cache

    def __repr__(self):
        return f"{type(self).__name__}(nodes={list(self.graph.nodes)})"


def expect_kind(net: BaseNet, kind: str, caller: str) -> None:
    """Refuse a net of the other kind with InvalidParams naming the caller."""
    if net.kind != kind:
        raise InvalidParams(f"{caller} expects a {kind} net")


def joint_states(net: BaseNet) -> int:
    """The size of the net's joint state space; StateSpaceTooLarge past the
    cap, for the routes that walk every joint state."""
    n, cap = math.prod(len(net.space.states(v)) for v in net.graph.nodes), max_states()
    if n > cap:
        raise StateSpaceTooLarge(f"{n} joint states exceeds the cap of {cap}")
    return n


def filter_mask(net: BaseNet, sets: Mapping[str, Iterable[int]]) -> np.ndarray | None:
    """Boolean mask over the joint enumeration for a componentwise filter.

    ``sets`` maps component names to allowed values (scalars are accepted).
    Returns None when the filter is empty (everything allowed).
    """
    if not sets:
        return None
    en = net.enumeration()
    mask = None
    for alpha, allowed in sets.items():
        m = _allowed(en.component_column(net, alpha), allowed)
        mask = m if mask is None else (mask & m)
    return mask


def _allowed(values: np.ndarray, allowed) -> np.ndarray:
    """Where ``values`` lies in ``allowed`` (a value or a value set)."""
    vals = value_set(allowed)
    if len(vals) == 1:
        return values == next(iter(vals))
    return np.isin(values, sorted(vals))


# ---------------------------------------------------------------------------
# Contraction engine
#
# A plan depends on the graph and the state counts alone, never on the table
# values, so nets with the same structure (a quantum net and its parent
# classical net, or two lattice chains of one shape) share it.

_LABELS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class _Plan:
    """einsum steps over the node factors, in node order.

    Each step reads the operands in its slots and appends its result as a
    new slot; the last result has one axis per open node, in the order they
    were asked for. ``peak`` is the largest full index space of any step and
    ``peak_nodes`` the nodes that step touches.
    """

    steps: tuple[tuple[tuple[int, ...], str], ...]
    peak: int
    peak_nodes: tuple[str, ...]


@functools.lru_cache(maxsize=256)
def _compile(structure, open_nodes: tuple[str, ...]) -> _Plan:
    """Greedy elimination plan for ``structure`` = (order, parents, sizes).

    Each round sums out the pending node whose step spans the fewest index
    states (then the one leaving the smallest result, then the earliest), so
    the greedy choice keeps the cap-relevant peak low. Summing a node out of
    a lone intermediate result is folded into the step that made it.
    """
    order, parents, sizes = structure
    size = dict(zip(order, sizes))
    n = len(order)
    axes = [ps + (node,) for node, ps in zip(order, parents)]
    live = set(range(n))
    steps = []  # [operand slots, output axes]; step k writes slot n + k

    def span(slots):
        return tuple(dict.fromkeys(v for i in slots for v in axes[i]))

    def full(union):
        return math.prod(size[v] for v in union)

    def eliminate(slots, out):
        if len(slots) == 1 and slots[0] >= n:
            steps[slots[0] - n][1] = axes[slots[0]] = out
            return
        steps.append([slots, out])
        live.difference_update(slots)
        live.add(len(axes))
        axes.append(out)

    def touching(node):
        return tuple(sorted(i for i in live if node in axes[i]))

    def cost(node):
        total = full(span(touching(node)))
        return total, total // size[node]

    pending = [v for v in order if v not in open_nodes]
    while pending:
        node = min(pending, key=cost)
        pending.remove(node)
        slots = touching(node)
        eliminate(slots, tuple(v for v in span(slots) if v != node))
    if live:
        eliminate(tuple(sorted(live)), open_nodes)

    compiled, peak, peak_nodes = [], 0, ()
    for slots, out in steps:
        union = span(slots)
        if full(union) > peak:
            peak, peak_nodes = full(union), union
        if len(union) > len(_LABELS):
            raise StateSpaceTooLarge(
                f"contraction step over {len(union)} nodes exceeds einsum's "
                f"{len(_LABELS)} axis labels"
            )
        label = dict(zip(union, _LABELS))
        ins = ",".join("".join(label[v] for v in axes[i]) for i in slots)
        compiled.append((slots, f"{ins}->{''.join(label[v] for v in out)}"))
    return _Plan(tuple(compiled), peak, peak_nodes)


def _plan(net: BaseNet, open_nodes: tuple[str, ...]) -> _Plan:
    plan = net._plans.get(open_nodes)
    if plan is None:
        order = net.node_order()
        structure = (
            order,
            tuple(net.parents(n) for n in order),
            tuple(len(net.space.states(n)) for n in order),
        )
        plan = net._plans[open_nodes] = _compile(structure, open_nodes)
    return plan


def _column(net: BaseNet, alpha: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Operand slot of alpha's node, alpha's value in each of its states, and
    the 0/1 indicator (alpha's sorted values x the node's states)."""
    col = net._columns.get(alpha)
    if col is None:
        node, k = net.space.owner(alpha)
        values = np.array([s[k] for s in net.space.states(node)], dtype=np.int64)
        indicator = np.equal.outer(net.space.component_values(alpha), values).astype(float)
        col = net._columns[alpha] = (net.node_order().index(node), values, indicator)
    return col


def contract(net: BaseNet, open_nodes: Sequence[str] = (), fixed: Mapping | None = None):
    """Sum the joint over every node outside ``open_nodes``.

    Only assignments matching ``fixed`` (component -> value or value set)
    count. The result has one axis per open node in the given order; with no
    open nodes it is a scalar. Raises StateSpaceTooLarge when a step of the
    plan spans more index states than the cap.
    """
    plan = _plan(net, tuple(open_nodes))
    cap = max_states()
    if plan.peak > cap:
        raise StateSpaceTooLarge(
            f"contraction step over nodes {', '.join(plan.peak_nodes)} spans "
            f"{plan.peak} index states, over the cap of {cap}"
        )
    ops = [net.factor(n) for n in net.node_order()]
    for alpha, allowed in (fixed or {}).items():
        slot, values, _ = _column(net, alpha)
        ops[slot] = ops[slot] * _allowed(values, allowed)
    if not plan.steps:  # a net without nodes: the empty product
        return np.ones((), dtype=net.dtype)
    for slots, subscripts in plan.steps:
        ops.append(np.einsum(subscripts, *[ops[i] for i in slots]))
    return ops[-1]


def external_map(net: BaseNet) -> dict[tuple[int, ...], object]:
    """The joint summed onto each external configuration -- a summed
    amplitude on a quantum net, a probability on a classical one -- keyed by
    the component values in canonical external order. Zero entries included."""
    ext = net.external_order
    keys = itertools.product(*[net.space.states(n) for n in ext])
    sums = contract(net, ext).reshape(-1).tolist()
    return {sum(key, ()): v for key, v in zip(keys, sums)}


def chi(net: BaseNet, fixed: Mapping[str, object] | None = None) -> float:
    """chi[K], the weight of the assignments matching ``fixed`` (component ->
    value or value set). On a classical net it is their mass; on a quantum
    net their amplitudes are summed per external configuration, and the
    squared magnitudes of those sums are totalled."""
    if net.kind != "quantum":
        return float(contract(net, (), fixed))
    amps = contract(net, net.external_order, fixed)
    return float((amps.real * amps.real + amps.imag * amps.imag).sum())


# ---------------------------------------------------------------------------
# Query layer
#
# An engine is a callable engine(net, components, evidence) whose result reads
# chi(E), the weight of each value combo and the weight of each value-set
# block: Weights, or the path-sum route's reader, one chi call per block.


def value_set(v) -> frozenset[int]:
    """One value or an iterable of values as a frozenset of ints; InvalidState
    for a string or any value that is not a whole number."""
    values = frozenset((v,) if isinstance(v, (str, bytes)) or not hasattr(v, "__iter__") else v)
    try:
        ints = frozenset(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:  # equal sets hold equal numbers: 1.0 == 1, but 0.5 and "1" differ
        raise InvalidState(f"{v!r} is not an integer value or a set of them")
    return ints


def value_blocks(net: BaseNet, components: Iterable[str]) -> list[dict[str, int]]:
    """One {component: value} block per value combo of the components, in
    ``itertools.product`` order (the last component varies fastest)."""
    comps = tuple(components)
    values = [net.space.component_values(a) for a in comps]
    return [dict(zip(comps, combo)) for combo in itertools.product(*values)]


def check_query(net: BaseNet, hypothesis: Mapping[str, object], evidence: Mapping) -> None:
    """Reject a malformed query before any weight is computed.

    ``hypothesis`` maps components to pinned values; None leaves a component
    unpinned. An empty hypothesis or one overlapping the evidence raises
    ValueError, an unknown component KeyError, and a pinned value the
    component never takes InvalidState.
    """
    if not hypothesis:
        raise ValueError("empty hypothesis")
    overlap = set(hypothesis) & set(evidence)
    if overlap:
        raise ValueError(f"hypothesis and evidence overlap on {sorted(overlap)}")
    for alpha in itertools.chain(hypothesis, evidence):
        net.space.owner(alpha)
    for alpha, v in hypothesis.items():
        allowed = net.space.component_values(alpha)
        if v is not None and v not in allowed:
            raise InvalidState(
                f"{alpha}={v} is outside the component's values {list(allowed)}"
            )


def distribution(chi_fn, net: BaseNet, blocks, evidence: Mapping) -> list[float]:
    """chi(B and E) for each block B, one ``chi_fn(net, sets)`` call each.

    Blocks and evidence map components to a value or a value set. A block
    that contradicts the evidence gets 0.0 without a chi call.
    """
    given = {alpha: value_set(v) for alpha, v in evidence.items()}
    weights = []
    for block in blocks:
        sets = dict(given)
        for alpha, v in block.items():
            vals = value_set(v)
            sets[alpha] = sets[alpha] & vals if alpha in sets else vals
        weights.append(chi_fn(net, sets) if all(sets.values()) else 0.0)
    return weights


class Weights:
    """chi(B and E) for blocks B, read off one contraction under evidence E.

    The contraction keeps open the nodes owning ``components``, plus the
    external nodes on a quantum net. A read multiplies the tensor by 0/1
    indicators of its blocks and sums the other open axes, coherently; on a
    quantum net it then squares and sums the external axes. Past the cap
    (the opened plan's peak, or the tensor size times the read's rows), or
    for a component whose node the tensor does not keep open, each block is
    one ``_chi`` call instead.
    """

    _chi = staticmethod(chi)

    def __init__(self, net: BaseNet, components: Iterable[str], evidence: Mapping):
        self.net, self.square, self.cap = net, net.kind == "quantum", max_states()
        self.evidence = {alpha: value_set(v) for alpha, v in evidence.items()}
        self._ext = net.external_order if self.square else ()
        self._wide, self._total = self._opened(components), None

    def _opened(self, comps):
        """(open nodes, tensor) for the nodes of ``comps``; None past the cap.
        The net keeps the last tensor, read-only, for the next equal request."""
        nodes = tuple(dict.fromkeys([*self._ext, *(self.net.space.owner(a)[0] for a in comps)]))
        if _plan(self.net, nodes).peak > self.cap:
            return None
        key = (nodes, frozenset(self.evidence.items()))
        if self.net._last_opened[0] != key:
            tensor = np.asarray(contract(self.net, nodes, self.evidence))
            tensor.flags.writeable = False
            self.net._last_opened = (key, tensor)
        return nodes, self.net._last_opened[1]

    def total(self) -> float:
        """chi(E), read once per instance."""
        if self._total is None:
            self._total = self.combos(())[0]
        return self._total

    def row(self, comps: Iterable[str], weights=None) -> tuple[list[float], float]:
        """(P(m | E) for every value combo m of ``comps``, f_qna), from ``weights``
        if already read: the combos over their total, and that total over chi(E).
        ContradictoryEvidence if chi(E), or else the combos' total, is zero."""
        weights = self.combos(comps) if weights is None else weights
        total = sum(weights)
        f_qna = normalize([total], self.total(), self.evidence)[0]
        return normalize(weights, total, self.evidence), f_qna

    def combos(self, comps: Iterable[str]) -> list[float]:
        """chi(m and E) for every value combo m of ``comps``, in ``value_blocks`` order."""
        comps = tuple(comps)
        owner = self.net.space.owner
        reads = [(i, owner(a)[0], _column(self.net, a)[2]) for i, a in enumerate(comps)]
        return self._read(reads, lambda: value_blocks(self.net, comps))

    def rows(self, sets) -> list[list[float]]:
        """``combos(s)`` for each set s: for two or more, one product of the
        tensor and the net's 0/1 selector (every combo row of every set x the
        tensor's entries), batched over the external axes; past the cap (the
        selector's size), or for a node not kept open, one read per set."""
        sets = tuple(map(tuple, sets))
        nodes, tensor = self._wide or ((), None)
        if tensor is not None and len(sets) > 1 and self.net._last_selector[0] != (nodes, sets):
            self._select(nodes, tensor.shape, sets)
        key, selector, ends = self.net._last_selector
        if tensor is None or key != (nodes, sets) or selector.size > self.cap:
            return [self.combos(s) for s in sets]
        amps = (selector @ tensor.reshape(selector.shape[0], -1, 1))[..., 0]
        if self.square:
            amps = amps.real * amps.real + amps.imag * amps.imag
        flat = amps.sum(axis=0).tolist()
        return [flat[a:b] for a, b in zip((0, *ends), ends)]

    def _select(self, nodes, shape, sets) -> None:
        """Keep the selector of ``rows`` on the net, (external configs, rows,
        other entries): per set one einsum of its component indicators, with
        ones for the open nodes it does not own; none past the cap or off them."""
        space, axis, k = self.net.space, {n: j for j, n in enumerate(nodes)}, len(nodes)
        counts = [math.prod(len(space.component_values(a)) for a in s) for s in sets]
        owned = [[axis.get(space.owner(a)[0]) for a in s] for s in sets]
        if sum(counts) * math.prod(shape) > self.cap or None in itertools.chain(*owned):
            return
        n_ext, blocks = math.prod(shape[:len(self._ext)]), []
        for s, own, count in zip(sets, owned, counts):
            ops = [x for i, a in enumerate(s) for x in (_column(self.net, a)[2], [k + i, own[i]])]
            free = [j for j in range(k) if j not in own]
            ops += [np.ones([shape[j] for j in free]), free, [*range(k, k + len(s)), *range(k)]]
            blocks.append(np.einsum(*ops).reshape(count, n_ext, -1))
        selector = np.ascontiguousarray(np.concatenate(blocks).transpose(1, 0, 2), self.net.dtype)
        selector.flags.writeable = False
        self.net._last_selector = ((nodes, sets), selector, tuple(itertools.accumulate(counts)))

    def blocks(self, blocks) -> list[float]:
        """chi(B and E) for each block B, a {component: value or value set}."""
        blocks = list(blocks)
        reads = [(0, None, np.ones(len(blocks)))]
        for a in dict.fromkeys(alpha for b in blocks for alpha in b):
            values = self.net.space.component_values(a)
            picks = np.array([[a not in b or v in value_set(b[a]) for v in values] for b in blocks])
            reads.append((0, self.net.space.owner(a)[0], picks @ _column(self.net, a)[2]))
        return self._read(reads, lambda: blocks)

    def _read(self, reads, blocks) -> list[float]:
        """The weights of ``reads``, each (row axis, node, 0/1 rows x node
        states); ``blocks()`` lists the same rows for the per-block route,
        taken past the cap or for a node the tensor does not keep open."""
        rows = math.prod({i: m.shape[0] for i, _, m in reads}.values())
        nodes, tensor = self._wide or ((), None)
        if tensor is None or tensor.size * rows > self.cap or not (
            {n for _, n, _ in reads} <= {None, *nodes}
        ):
            return distribution(self._chi, self.net, blocks(), self.evidence)
        subscripts, n_rows = _read_subscripts(nodes, self._ext, tuple(r[:2] for r in reads))
        amps = np.einsum(subscripts, tensor, *(m for _, _, m in reads))
        flat = amps.reshape(math.prod(amps.shape[:n_rows]), -1)
        if self.square:
            flat = flat.real * flat.real + flat.imag * flat.imag
        return flat.sum(axis=1).tolist()


@functools.lru_cache(maxsize=1024)
def _read_subscripts(nodes, ext, reads) -> tuple[str, int]:
    """einsum subscripts for a tensor over ``nodes`` times (row axis, node)
    operands, onto the row axes then the ``ext`` axes; and the row count."""
    label = dict(zip(nodes, _LABELS))
    rows = "".join(dict.fromkeys(_LABELS[len(nodes) + i] for i, _ in reads))
    ins = ["".join(label[n] for n in nodes)]
    ins += [_LABELS[len(nodes) + i] + (label[n] if n else "") for i, n in reads]
    return f"{','.join(ins)}->{rows}{''.join(label[n] for n in ext)}", len(rows)


def normalize(weights, total: float, evidence: Mapping) -> list[float]:
    """Each weight over the total; ContradictoryEvidence if the total is zero."""
    if total == 0.0:
        raise ContradictoryEvidence(f"evidence {dict(evidence)} has zero weight")
    return [w / total for w in weights]


def conditional(engine, net: BaseNet, hypothesis: Mapping[str, int], evidence: Mapping) -> float:
    """P(hypothesis | evidence), the hypothesis given as {component: value}.

    The weight of the hypothesis combo over the total of every value combo
    of the hypothesis components, both read from ``engine(net, components,
    evidence)``. On classical nets the combos partition the evidence, so the
    total is chi(E); on quantum nets it need not be (see quantum.f_qna).
    """
    check_query(net, hypothesis, evidence)
    comps = tuple(hypothesis)
    weights = engine(net, comps, evidence).combos(comps)
    index = value_blocks(net, comps).index(dict(hypothesis))
    return normalize(weights, sum(weights), evidence)[index]
