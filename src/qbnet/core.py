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
per state space. A filter multiplies a node's factor by a 0/1 indicator of its
allowed states. The cap (default 2**20, override with the QBNET_MAX_STATES
environment variable) bounds each step's full index space: the product of
the state counts of every node the step touches. It is read on every public
call, at no exception cost when the variable is unset (``max_states``).

The dense enumeration (``BaseNet.enumeration`` and ``filter_mask``)
materializes the joint value vector over the full cartesian product of node
states. No route computes with it or keeps it; it stays as the plain reference
that the engine is tested against. It refuses joints past the same cap through
``joint_states``, as the path-sum listing does.

The query layer at the very bottom answers every query from one opened
tensor. Tucci's conditional divides a hypothesis combo's weight by the total
over every value combo of the hypothesis components, so ``Weights`` keeps
the nodes owning those components open (and, on quantum nets, the external
nodes) in one contraction, filtered by the evidence on the nodes it sums
away; evidence on an open node is a 0/1 mask on a copy of the tensor
(Darwiche's evidence indicators, J. ACM 50(3), 2003). The tensor is opened
only when a read misses the net's last read, so a repeated query is its
checks and one lookup. One reader takes every read off it (chi(E), combos,
many sets' combos, value-set blocks), summing each row on its own, so a row
has the same bits in any read. Past the cap a read goes set by set, then
one ``chi`` call per block. ``chi`` and ``external_map`` each serve both net
kinds; the path-sum route, the independent check, shares only the input
checks below.
``Weights.table`` is the one hypothesis-row recipe: each combo over its
set's total, and f_qna, that total over chi(E). ``Weights.row`` is its
one-set case (the CLI query and ``quantum.f_qna``); ``conditional``, the
probabilities-only half, skips chi(E), which can vanish on a quantum net.

Nets never change after construction, so what does not depend on their tables
is interned by value (Filliatre & Conchon's hash-consing). A state list is
interned by normalized value: every spelling of one list (ints, tuples, lists,
numpy rows, bools) shares one checked ``_StateList`` (256 kept) and its int
array. Blocks of equal names, parents, components and state lists share one
``StateSpace`` (256 kept), the one object that holds what nets of that
structure share, its plans and evidence indicators included. A net built on a
graph and a space keeps the space if the graph's parents match it, as a quantum
net's parent does, and else takes its graph's interned space. The graph layer
is not interned, so what a build calls does not depend on what the process
built before: each net keeps its own ``LabelledGraph`` and external order, its
factors (one per distinct table object and dims, so nodes given one table, as a
chain's slices are, share one), two read-only query memos -- the last tensor a
``Weights`` opened (by open nodes and the evidence on summed-away nodes) and
its last read's rows (by nodes, spec, evidence and cap) -- and, on a quantum
net, its parent classical net. README's Memos table lists every memo.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContradictoryEvidence, CyclicGraph, InvalidParams, InvalidState
from .errors import StateSpaceTooLarge
from .graph import Arrow, LabelledGraph, classify_nodes, chronological_labelling

DEFAULT_MAX_STATES = 2 ** 20
_READS = 2  # read layouts a state space keeps: a quantum net's and its parent's
_ZERO_WEIGHT = "evidence {} has zero weight"
_ENVIRON = os.environ._data  # the mapping behind os.environ: its sets and deletes update it
_CAP_KEY = os.environ.encodekey("QBNET_MAX_STATES")  # the cap's key as stored there


def max_states() -> int:
    """The state cap, from QBNET_MAX_STATES or the default, read at every call
    by one lookup that, unlike ``os.environ.get``, raises and catches no
    KeyError when the variable is unset."""
    raw = _ENVIRON.get(_CAP_KEY)
    if raw is None:
        return DEFAULT_MAX_STATES
    raw = os.environ.decodevalue(raw)
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"QBNET_MAX_STATES must be a positive integer, got {raw!r}")
    return value


def _whole(v) -> int:
    """``v`` as an int if it is a number equal to a whole one (True, 1.0, 1+0j,
    a numpy integer), so equal numbers give one int; else InvalidState."""
    try:
        if int(v.real) == v:
            return int(v.real)
    except (AttributeError, TypeError, ValueError, OverflowError):
        pass
    raise InvalidState(f"{v!r} is not a whole number")


def _as_state(state) -> tuple[int, ...]:
    """A state as a tuple of ints; one number is a one-entry state."""
    if isinstance(state, (str, bytes)) or not hasattr(state, "__iter__"):
        state = (state,)
    return tuple(map(_whole, state))


class _StateList:
    """One normalized state list (a tuple of int tuples): each state's index,
    each position's sorted values and, if the widths agree, the read-only int
    array (states x positions)."""

    def __init__(self, states: tuple):
        self.states = states
        self.index = {s: i for i, s in enumerate(self.states)}
        self.widths = frozenset(map(len, self.states))
        self.values = tuple(tuple(sorted(set(column))) for column in zip(*self.states))
        if len(self.widths) == 1:  # StateSpace refuses the rest
            self.array = np.array(self.states, dtype=np.int64)
            self.array.flags.writeable = False


_shared = functools.lru_cache(maxsize=256)(_StateList)  # one per normalized list


def _state_list(node: str, states) -> _StateList:
    """``states`` as its shared ``_StateList`` (as is, if one), keyed by its int
    tuples, so every spelling of one list shares it; InvalidState names the node."""
    if isinstance(states, _StateList):
        return states
    try:
        return _shared(tuple(map(_as_state, states)))
    except InvalidState as exc:
        raise InvalidState(f"node {node!r}: {exc}") from None


class StateSpace:
    """What nets of one structure share whatever their tables, from one (name,
    parents, components, ``_StateList``) per node and the labelling (None for
    a cycle): state lists, component naming, factor dims, node slots and, 256
    each, the value combos per component tuple, a view (plan, axis map) per
    tuple of open nodes, a query's open nodes per (ext, comps), an evidence
    indicator per (component, value set, axis, ndim); and ``_READS`` layouts."""

    def __init__(self, nodes: Sequence[tuple], chron: tuple[str, ...] | None):
        self._components = {name: comps for name, _, comps, _ in nodes}
        self._lists: dict[str, _StateList] = {}
        for name, _, comps, states in nodes:
            self._lists[name] = states
            width = len(comps)
            if not states.states:
                raise ValueError(f"node {name!r} has no states")
            if states.widths != {width}:
                s = next(s for s in states.states if len(s) != width)
                raise ValueError(f"node {name!r}: state {s} has {len(s)} entries, expected {width}")
            if len(states.index) != len(states.states):
                raise ValueError(f"node {name!r} has duplicate states")
        self._owner: dict[str, tuple[str, int]] = {}
        for node, comps in self._components.items():
            for k, alpha in enumerate(comps):
                if alpha in self._owner:
                    raise ValueError(f"component name {alpha!r} is not globally unique")
                self._owner[alpha] = (node, k)
        self.parents: dict[str, tuple[str, ...]] = {name: ps for name, ps, _, _ in nodes}
        self.chron, self.order = chron, (tuple(self.parents) if chron is None else chron)
        self.slot = {n: j for j, n in enumerate(self.order)}  # each node's operand in ``contract``
        self.dims = {n: tuple(len(self._lists[v].states) for v in (*ps, n))
                     for n, ps in self.parents.items()}
        self._combos = functools.lru_cache(maxsize=256)(
            lambda comps: tuple(itertools.product(*map(self.component_values, comps))))
        self.view = functools.lru_cache(maxsize=256)(lambda open_nodes: (
            _compile(self, open_nodes),
            {a: j for j, n in enumerate(open_nodes) for a in self._components[n]}))
        self.query = functools.lru_cache(maxsize=256)(lambda ext, comps: tuple(
            dict.fromkeys([*ext, *(self.owner(a)[0] for a in comps)])))
        self.read = functools.lru_cache(maxsize=_READS)(lambda *key: _layout(self, *key))
        self.indicator = functools.lru_cache(maxsize=256)(self.indicator)  # the method, memoized

    def components(self, node: str) -> tuple[str, ...]:
        return self._components[node]

    def states(self, node: str) -> tuple[tuple[int, ...], ...]:
        return self._lists[node].states

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
        node, k = self.owner(alpha)
        return self._lists[node].values[k]

    def combos(self, comps: Iterable[str]) -> tuple[tuple[int, ...], ...]:
        """Every value combo of the components, in ``itertools.product`` order
        (the last component varies fastest), memoized."""
        return self._combos(tuple(comps))

    def state_index(self, node: str, state) -> int:
        try:
            return self._lists[node].index[_as_state(state)]
        except (KeyError, InvalidState):
            raise InvalidState(f"{state!r} is not a state of node {node!r}") from None

    def indicator(self, alpha: str, values: frozenset, axis: int, ndim: int):
        """Darwiche's evidence indicator of alpha in ``values``: a read-only 0/1
        array over the owner node's states, on axis ``axis`` of ``ndim``."""
        node, k = self.owner(alpha)
        at = np.isin(self._lists[node].array[:, k], list(values))
        at = at.reshape([-1 if j == axis else 1 for j in range(ndim)])
        at.flags.writeable = False
        return at


@dataclass
class NodeBlock:
    """Everything the net builder needs to know about one node.

    Each state is a tuple of whole numbers, or one number; the states are kept
    as int tuples shared by every block given an equal list. ``table`` may be
    an array-like of shape (n_states, n_columns), in the column order of the
    module docstring -- a flat length-n_states sequence is accepted for root
    nodes -- or a callable ``f(state, parent_states) -> value`` tabulated at
    build time.
    """

    name: str
    states: Sequence
    table: object
    parents: tuple[str, ...] = ()
    components: tuple[str, ...] | None = None

    def __post_init__(self):
        self._list = _state_list(self.name, self.states)
        self.states = self._list.states
        self.parents = tuple(self.parents)
        if self.components is None:
            width = len(self.states[0]) if self.states else 1
            if width == 1:
                self.components = (self.name,)
            else:
                raise ValueError(f"node {self.name!r} has {width} components; "
                                 "explicit names required")
        else:
            self.components = tuple(self.components)


_space_of = functools.lru_cache(maxsize=256)(StateSpace)  # one per equal structure, by value


def _labelling(graph: LabelledGraph) -> tuple[str, ...] | None:
    """The chronological labelling, or None for a cyclic graph."""
    try:
        return chronological_labelling(graph)
    except CyclicGraph:
        return None


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
        self.ext_group, self.n_ext = np.zeros(njoint, dtype=np.int64), 1
        for n in reversed(net.external_order):
            self.ext_group += self.node_state_indices(n) * self.n_ext
            self.n_ext *= sizes[self.pos[n]]

    def node_state_indices(self, node: str) -> np.ndarray:
        j = self.pos[node]
        return (self._flat // self.strides[j]) % self.sizes[j]


def as_table(factor: np.ndarray) -> np.ndarray:
    """A factor (parent axes, then the node's) as the 2-D table that
    ``NodeBlock`` takes: a view, one column per parent state combo."""
    return factor.reshape(-1, factor.shape[-1]).T


class BaseNet:
    """Graph + one factor per node, over a state space (lists, plans, memos)
    that nets of equal structure share. Treat as immutable."""

    dtype: type = np.float64
    kind = "classical"

    def __init__(self, graph: LabelledGraph, space: StateSpace, tables: Mapping[str, np.ndarray],
                 meta: Mapping[str, str] | None = None, pre_net: bool = False):
        self.graph = graph
        parents = list(map(graph.parents, graph.nodes))  # in declared order, a cycle's node order
        if tuple(space.parents) != graph.nodes or list(space.parents.values()) != parents:
            for node in (n for n in graph.nodes if n not in space.parents):
                raise ValueError(f"missing states for node {node!r}")
            space = _space_of(tuple((n, ps, space.components(n), space._lists[n])  # its own space
                                    for n, ps in zip(graph.nodes, parents)), _labelling(graph))
        self.space = space
        self.pre_net = bool(pre_net)
        self.meta: dict[str, str] = dict(meta or {})
        self._factors: dict[str, np.ndarray] = {}
        made = {}  # (id(table), dims) -> (table, factor); holding the table keeps its id unique
        for node, dims in space.dims.items():
            if node not in tables:
                raise ValueError(f"missing table for node {node!r}")
            table = tables[node]
            key = id(table), dims  # a chain's slices share one step matrix
            if key not in made:
                arr = np.asarray(table, dtype=self.dtype)
                n_cols = math.prod(dims[:-1])
                if arr.ndim == 1 and n_cols == 1:
                    arr = arr.reshape(dims[-1], 1)
                if arr.shape != (dims[-1], n_cols):
                    raise ValueError(f"node {node!r}: table shape {arr.shape}, "
                                     f"expected ({dims[-1]}, {n_cols})")
                # column c holds the parent states whose C-order flat index is c
                factor = arr.T.reshape(dims).copy()
                factor.flags.writeable = False
                made[key] = table, factor
            self._factors[node] = made[key][1]
        if space.chron is None and not self.pre_net:
            raise CyclicGraph("net graph has a directed cycle (use a pre-net for diagnostics)")
        ext = set(classify_nodes(graph).external)
        self.external_order = tuple(n for n in space.order if n in ext)
        self._last_opened: tuple[tuple | None, np.ndarray | None] = (None, None)  # Weights._opened
        self._last_read: tuple = (None, None, None)  # Weights._weigh

    # -- construction -------------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks: Iterable[NodeBlock], meta=None, pre_net=False):
        blocks = list(blocks)
        names, with_children = [b.name for b in blocks], {p for b in blocks for p in b.parents}
        arrows = [Arrow(p, b.name) for b in blocks for p in b.parents]
        arrows += [Arrow(n) for n in names if n not in with_children]
        graph = LabelledGraph(names, arrows)
        space = _space_of(tuple(
            (b.name, tuple(b.parents), tuple(b.components),
             b._list if b._list.states is b.states else _state_list(b.name, b.states))
            for b in blocks), _labelling(graph))
        tables = {b.name: cls._tabulate(b, space) if callable(b.table) else b.table for b in blocks}
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
        return self.space.order

    @property
    def chronological(self) -> tuple[str, ...]:
        """The chronological labelling; a cyclic pre-net raises CyclicGraph."""
        return self.space.chron or chronological_labelling(self.graph)

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
        return _Enumeration(self)

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
    en, mask = net.enumeration(), True
    for alpha, allowed in sets.items():
        at = en.node_state_indices(net.space.owner(alpha)[0])
        mask = mask & net.space.indicator(alpha, value_set(allowed), 0, 1)[at]
    return mask


# ---------------------------------------------------------------------------
# Contraction engine
#
# A plan depends on the graph and the state counts alone, never on the table
# values, so nets with the same structure (a quantum net and its parent
# classical net, or two lattice chains of one shape) share it on their space.

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


def _compile(space: StateSpace, open_nodes: tuple[str, ...]) -> _Plan:
    """Greedy elimination plan over the space's nodes, parents and state counts.

    Each round sums out the pending node whose step spans the fewest index
    states (then the one leaving the smallest result, then the earliest), so
    the greedy choice keeps the cap-relevant peak low. Summing a node out of
    a lone intermediate result is folded into the step that made it.
    """
    order = space.order
    size = {node: space.dims[node][-1] for node in order}
    n = len(order)
    axes = [space.parents[node] + (node,) for node in order]
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


def contract(net: BaseNet, open_nodes: Sequence[str] = (), fixed: Mapping | None = None):
    """Sum the joint over every node outside ``open_nodes``.

    Only assignments matching ``fixed`` (component -> value or value set)
    count. The result has one axis per open node in the given order; with no
    open nodes it is a scalar. Raises StateSpaceTooLarge when a step of the
    plan spans more index states than the cap.
    """
    try:
        plan = net.space.view(tuple(open_nodes))[0]
    except KeyError:  # a node the net lacks, worded as graph.node_order_relation words it
        unknown = next(n for n in open_nodes if n not in net.space.slot)
        raise KeyError(f"unknown node {unknown!r}") from None
    cap = max_states()
    if plan.peak > cap:
        raise StateSpaceTooLarge(
            f"contraction step over nodes {', '.join(plan.peak_nodes)} spans "
            f"{plan.peak} index states, over the cap of {cap}"
        )
    ops, space = [net.factor(n) for n in net.node_order()], net.space
    for alpha, allowed in (fixed or {}).items():  # a 1-D indicator: the factor's last axis
        slot = space.slot[space.owner(alpha)[0]]
        ops[slot] = ops[slot] * space.indicator(alpha, value_set(allowed), 0, 1)
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


def value_set(v) -> frozenset[int]:
    """One value or an iterable of values as a frozenset of ints; InvalidState
    for a string or any value that is not a whole number."""
    if type(v) is int:
        return frozenset((v,))
    values = (v,) if isinstance(v, (str, bytes)) or not hasattr(v, "__iter__") else v
    try:
        return frozenset(map(_whole, values))
    except InvalidState:
        raise InvalidState(f"{v!r} is not an integer value or a set of them") from None


def value_blocks(net: BaseNet, components: Iterable[str]) -> list[dict[str, int]]:
    """One {component: value} block per value combo of the components, in
    ``itertools.product`` order (the last fastest); ValueError for a repeat."""
    comps = _named_once(tuple(components))
    return [dict(zip(comps, combo)) for combo in net.space.combos(comps)]


def _named_once(comps: tuple) -> tuple:
    """``comps``; ValueError naming the first component it names twice."""
    for twice in (a for i, a in enumerate(comps) if a in comps[:i]):
        raise ValueError(f"component {twice!r} named twice")
    return comps


def check_query(net: BaseNet, hypothesis: Mapping[str, object], evidence: Mapping) -> tuple:
    """Reject a malformed query before any weight is computed; return the
    hypothesis values as ints (None where unpinned).

    ``hypothesis`` maps components to pinned values; None leaves a component
    unpinned. An empty hypothesis or one overlapping the evidence raises
    ValueError, an unknown component KeyError, and a pinned value that is not
    one of the component's whole-number values InvalidState.
    """
    if not hypothesis:
        raise ValueError("empty hypothesis")
    if not hypothesis.keys().isdisjoint(evidence):
        overlap = sorted(hypothesis.keys() & evidence)
        raise ValueError(f"hypothesis and evidence overlap on {overlap}")
    space, owner, combo = net.space, net.space._owner, []
    for alpha in hypothesis:  # every unknown component first
        if alpha not in owner:
            space.owner(alpha)
    for alpha in evidence:
        if alpha not in owner:
            space.owner(alpha)
    for alpha, v in hypothesis.items():
        if v is not None:
            node, k = owner[alpha]
            allowed = space._lists[node].values[k]
            try:
                w = v if type(v) is int else _whole(v)
            except InvalidState:
                w = None  # in no component's values
            if w not in allowed:
                raise InvalidState(
                    f"{alpha}={v!r} is outside the component's values {list(allowed)}")
            v = w
        combo.append(v)
    return tuple(combo)


def check_conditional(net: BaseNet, hypothesis: Mapping[str, object], evidence: Mapping) -> tuple:
    """``check_query``'s values, all pinned: InvalidState names one left None."""
    combo = check_query(net, hypothesis, evidence)
    if None in combo:
        for unpinned in (alpha for alpha, v in zip(hypothesis, combo) if v is None):
            raise InvalidState(f"hypothesis component {unpinned} is not pinned")
    return combo


def check_block_index(index, n_blocks: int) -> int:
    """``index`` as the int of one of ``n_blocks`` blocks, or InvalidParams."""
    try:
        index = operator.index(index)
    except TypeError:
        raise InvalidParams(f"block index must be an integer, got {index!r}") from None
    if not 0 <= index < n_blocks:
        raise InvalidParams(f"block index {index} out of range for {n_blocks} blocks")
    return index


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
    external nodes on a quantum net; it is opened only if a read misses the
    net's last read. Every read is a spec (``_layout``) that ``_weigh`` sums
    off the tensor with one bincount of each (row, external config) bin and,
    on a quantum net, one einsum of each row's squares; both sum a row on its
    own, so a row has the same bits in any read. Past the cap (the opened
    plan's peak, or rows x tensor entries) a spec is read item by item, and an
    item still past it, or one naming a node not kept open, is one ``chi`` call per block.
    """

    __slots__ = ("net", "square", "cap", "asked", "evidence", "_given", "_ext", "_nodes", "_wide")

    def __init__(self, net: BaseNet, components: Iterable[str], evidence: Mapping,
                 _cap: int | None = None):  # read once by a caller, whose evidence is value sets
        self.net, self.square, self.cap = net, net.kind == "quantum", _cap or max_states()
        self.asked = self.evidence = evidence  # asked: as given, for the refusal text
        if not _cap:  # a loop, as a comprehension's frame costs a warm read ~0.1 us
            self.evidence = {}
            for alpha, v in evidence.items():
                self.evidence[alpha] = value_set(v)
        self._given = frozenset(self.evidence.items())  # keys the last read and the last tensor
        self._ext = net.external_order if self.square else ()
        self._nodes = net.space.query(self._ext, tuple(components))  # the nodes kept open
        self._wide = False  # (open nodes, tensor) once a read misses; None past the cap

    def _opened(self):
        """(open nodes, tensor), at a read miss only; None past the cap. Only
        evidence on a node the contraction sums away filters it and, with the
        open nodes, keys the net's memo of the last tensor (kept read-only).
        Evidence on an open node masks that axis of a copy, at most the cap in
        entries, by the space's indicator, so it never contracts again."""
        nodes, (plan, axis) = self._nodes, self.net.space.view(self._nodes)
        if plan.peak > self.cap:
            return None
        summed = {a: v for a, v in self.evidence.items() if a not in axis}
        key = (nodes, self._given if len(summed) == len(self._given) else frozenset(summed.items()))
        if self.net._last_opened[0] != key:
            tensor = np.asarray(contract(self.net, nodes, summed))
            tensor.flags.writeable = False
            self.net._last_opened = (key, tensor)
        tensor, indicator = self.net._last_opened[1], self.net.space.indicator
        for alpha, allowed in self.evidence.items():
            if alpha in axis:
                tensor = tensor * indicator(alpha, allowed, axis[alpha], len(nodes))
        return nodes, tensor

    def row(self, comps: Iterable[str]) -> tuple[list[float], float]:
        """(P(m | E) for every value combo m of ``comps``, f_qna): the combos over their
        total, and that total over chi(E); ContradictoryEvidence if either is zero.
        ``table``'s one-set case; ValueError for a component named twice."""
        (row,) = self.table([_named_once(tuple(comps))]) or [None]
        if row is None:
            raise ContradictoryEvidence(_ZERO_WEIGHT.format(dict(self.asked)))
        return row

    def table(self, sets) -> list | None:
        """``row`` of each set (None if its combos total zero), or None if chi(E)
        is zero, by one loop over one ``rows`` read whose first set, the empty
        one, is chi(E)'s. A plain loop, as an array call costs more than a
        case's few short sets."""
        (chi_e,), *combos = self.rows(((), *sets))
        if chi_e == 0.0:
            return None
        return [None if (total := sum(w)) == 0.0 else ([x / total for x in w], total / chi_e)
                for w in combos]  # each total left to right, as ``sum`` adds

    def combos(self, comps: Iterable[str]) -> list[float]:
        """chi(m and E) for every value combo m of ``comps``, in ``value_blocks``
        order. One component is read with all of its node's, one set each, so
        the node's others are the net's last read."""
        comps, space = tuple(comps), self.net.space
        if len(comps) == 1:
            node, k = space._owner.get(comps[0]) or space.owner(comps[0])
            return self._weigh(space._components[node], k)
        return self._weigh((comps,), 0)

    def rows(self, sets) -> list[list[float]]:
        """``combos(s)`` for each set s, from one read of them all."""
        return self._weigh(tuple(map(tuple, sets)))

    def blocks(self, blocks) -> list[float]:
        """chi(B and E) for each block B, a {component: value or value set}."""
        spec = tuple(tuple((a, value_set(v)) for a, v in b.items()) for b in blocks)
        return [w for (w,) in self._weigh(spec)]

    def _weigh(self, spec, item=None) -> list:
        """The rows of each item of ``spec``, or of item ``item`` alone; the net
        keeps the last read."""
        key = (self._nodes, spec, self._given, self.cap)
        if self.net._last_read[0] != key:
            if self._wide is False:
                self._wide = self._opened()
            nodes, tensor = self._wide or ((), None)
            layout = spec and tensor is not None and self.net.space.read(
                nodes, len(self._ext), 1 + self.square, spec, self.cap)
            if not layout and len(spec) == 1:  # one chi call per block
                one = (spec[0],) if isinstance(spec[0], str) else spec[0]
                block = one and isinstance(one[0], tuple)
                blocks = [dict(one)] if block else value_blocks(self.net, one)
                rows = distribution(chi, self.net, blocks, self.evidence)
                return rows if item is not None else [rows]
            if not layout:  # item by item
                if item is not None:
                    return self._weigh((spec[item],), 0)
                return [self._weigh((s,), 0) for s in spec]
            picks, bins, n_bins, ends = layout
            amps = np.bincount(bins, tensor.reshape(-1)[picks].view(float), n_bins)
            if self.square:
                amps = np.einsum("ri,ri->r", *[amps.reshape(ends[-1], -1)] * 2)
            self.net._last_read = (key, amps.tolist(), ends)
        _, rows, ends = self.net._last_read
        if item is not None:
            return rows[ends[item]:ends[item + 1]]
        return [rows[a:b] for a, b in zip(ends, ends[1:])]


def _layout(space: StateSpace, nodes, n_ext: int, width: int, spec, cap: int):
    """A read of ``spec`` off a tensor over ``nodes`` (the first ``n_ext``
    external) of ``width`` floats an entry: (picks, bins, bin count, row ends
    from 0), picks indexing the tensor's entries and bins their floats' (row,
    external config, float). An item of ``spec`` is a component, a tuple of
    components (a row per value combo, in ``itertools.product`` order) or a
    tuple of (component, value set) pairs (one row); a row picks the entries
    where its components take its values and its value sets hold. None past
    the cap (rows x entries) or for a node not open."""
    axis = space.view(nodes)[1]
    items = [[(a, None) if isinstance(a, str) else a for a in ((i,) if isinstance(i, str) else i)]
             for i in spec]
    for item in items:  # a set naming a component twice is refused
        _named_once(tuple(a for a, _ in item))
    if any(a not in axis for item in items for a, _ in item):
        return None
    ends = (0, *itertools.accumulate(math.prod(
        1 if v is not None else len(space.component_values(a)) for a, v in item) for item in items))
    dims = [len(space.states(n)) for n in nodes]
    size, n_ext = math.prod(dims), math.prod(dims[:n_ext])
    if ends[-1] * size > cap:
        return None
    picks, bins = [], []
    for start, item in zip(ends, items):
        row, keep = 0, True
        for a, allowed in item:  # the last component fastest
            if allowed is None:
                node, k = space.owner(a)
                values, at = space._lists[node].values[k], space._lists[node].array[:, k]
                at = at.reshape([-1 if j == axis[a] else 1 for j in range(len(dims))])
                row = row * len(values) + np.searchsorted(values, at)
            else:
                keep = keep & space.indicator(a, allowed, axis[a], len(dims))
        at = np.flatnonzero(np.broadcast_to(keep, dims))
        picks.append(at)
        row = np.broadcast_to(row, dims).reshape(-1)[at]
        bins.append((start + row) * n_ext + at // (size // n_ext))
    picks, bins = np.concatenate(picks), np.add.outer(np.concatenate(bins) * width, range(width))
    bins = bins.reshape(-1)
    picks.flags.writeable = bins.flags.writeable = False
    return picks, bins, ends[-1] * n_ext * width, ends


def normalize(weights, total: float, evidence: Mapping) -> list[float]:
    """Each weight over the total; ContradictoryEvidence if the total is zero."""
    if total == 0.0:
        raise ContradictoryEvidence(_ZERO_WEIGHT.format(dict(evidence)))
    return [w / total for w in weights]


def conditional(net: BaseNet, hypothesis: Mapping[str, int], evidence: Mapping) -> float:
    """P(hypothesis | evidence), the hypothesis given as {component: value}.

    The weight of the hypothesis combo over the total of every value combo
    of the hypothesis components, both read from one ``Weights``. On
    classical nets the combos partition the evidence, so the total is chi(E);
    on quantum nets it need not be (see quantum.f_qna). A component left
    unpinned (None) is InvalidState.
    """
    comps, combo = tuple(hypothesis), check_conditional(net, hypothesis, evidence)
    weights = Weights(net, comps, evidence).combos(comps)
    total = sum(weights)
    if total == 0.0:
        raise ContradictoryEvidence(_ZERO_WEIGHT.format(dict(evidence)))
    return weights[net.space._combos(comps).index(combo)] / total
