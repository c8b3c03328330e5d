"""Path sums: the same answers as the state-space route, built the long way.

A path is one full joint assignment whose table factors are all nonzero. The
paths ending in the same external configuration form a class, and summing
the path products within a class gives that configuration's total amplitude
(quantum) or probability (classical). Everything the net engine computes by
tensor contraction can be recomputed here from explicit path lists with
plain Python arithmetic, which is exactly what makes this module useful as a
cross-check: the two routes share the tables and nothing else.

Zero support is decided by exact comparison with zero, entry by entry; a
path is excluded the moment any factor vanishes, never because its product
is merely small.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import BaseNet, Weights, conditional, max_states, value_set
from .errors import StateSpaceTooLarge
from .fuzzy import classical_fuzzy_conditional, quantum_fuzzy_conditional


@dataclass(frozen=True)
class Path:
    """One nonzero-support joint assignment (states follow the node order)."""

    states: tuple[tuple[int, ...], ...]
    value: complex


@dataclass(frozen=True)
class FinalState:
    """External component values in canonical order."""

    values: tuple[int, ...]


@dataclass
class PathClassification:
    order: tuple[str, ...]
    classes: dict[FinalState, list[Path]]


def _space_size(net: BaseNet) -> int:
    n = 1
    for node in net.graph.nodes:
        n *= len(net.space.states(node))
    return n


def enumerate_paths(net: BaseNet) -> list[Path]:
    """All nonzero-support paths, in lexicographic state-index order."""
    cap = max_states()
    if _space_size(net) > cap:
        raise StateSpaceTooLarge(f"{_space_size(net)} joint states exceeds the cap of {cap}")
    order = net.node_order()
    state_lists = [net.space.states(n) for n in order]
    pos = {n: j for j, n in enumerate(order)}
    pure = complex if net.kind == "quantum" else float
    # per node: a reader of its factor as a Python number, and the picker of
    # its cell from a path's state-index tuple
    reads = [
        (net.factor(node).item, operator.itemgetter(*[pos[p] for p in net.parents(node)], j))
        for j, node in enumerate(order)
    ]

    paths = []
    for index in itertools.product(*[range(len(s)) for s in state_lists]):
        value = pure(1)
        for read, cell in reads:
            entry = read(cell(index))
            if entry == 0:
                break
            value *= entry
        else:
            paths.append(Path(tuple(s[i] for s, i in zip(state_lists, index)), value))
    return paths


def _final_state(net: BaseNet, order, states) -> FinalState:
    values: list[int] = []
    for node, state in zip(order, states):
        if node in net.external_nodes:
            values.extend(state)
    return FinalState(tuple(values))


def classify_paths(net: BaseNet) -> PathClassification:
    """Group the nonzero-support paths by final external configuration."""
    order = net.node_order()
    classes: dict[FinalState, list[Path]] = {}
    for path in enumerate_paths(net):
        classes.setdefault(_final_state(net, order, path.states), []).append(path)
    return PathClassification(order=order, classes=classes)


def feynman_integral(net: BaseNet):
    """Per-class path sums: {FinalState: summed value}.

    For quantum nets the values are complex amplitudes whose squared moduli
    are the external configuration weights; for classical nets they are the
    configuration probabilities directly. Only classes with at least one
    nonzero-support path appear (their sum may still cancel to zero).
    """
    out = {}
    for final, paths in classify_paths(net).classes.items():
        total = paths[0].value
        for p in paths[1:]:
            total = total + p.value
        out[final] = total
    return out


# ---------------------------------------------------------------------------
# Query mirrors: identical contracts to the state-space route, summed from
# explicit paths instead.


def _matchers(net: BaseNet, order, fixed):
    pos = {n: j for j, n in enumerate(order)}
    out = []
    for alpha, allowed in fixed.items():
        node, k = net.space.owner(alpha)
        out.append((pos[node], k, value_set(allowed)))
    return out


def path_chi(net: BaseNet, fixed: Mapping[str, object] | None = None) -> float:
    """Path-route version of the filtered weight.

    Classical nets: total probability of matching paths. Quantum nets:
    matching amplitudes are summed within each final-state class before
    squaring.
    """
    order = net.node_order()
    matchers = _matchers(net, order, fixed or {})
    if net.kind == "quantum":
        sums: dict[FinalState, complex] = {}
        for path in enumerate_paths(net):
            if all(path.states[j][k] in vs for j, k, vs in matchers):
                key = _final_state(net, order, path.states)
                sums[key] = sums.get(key, 0j) + path.value
        return sum(abs(v) ** 2 for v in sums.values())
    total = 0.0
    for path in enumerate_paths(net):
        if all(path.states[j][k] in vs for j, k, vs in matchers):
            total += path.value
    return total


class PathWeights(Weights):
    """The reads of ``core.Weights`` with nothing contracted: each block is
    one ``path_chi`` call, through ``core.distribution``."""

    def _opened(self, comps):
        return None

    def _chi(self, net: BaseNet, sets: Mapping) -> float:
        return path_chi(net, sets)


def pathsum_conditional(
    net: BaseNet, hypothesis: Mapping[str, int], evidence: Mapping[str, int]
) -> float:
    """P(hypothesis | evidence) summed from paths; mirrors the state route."""
    return conditional(PathWeights, net, hypothesis, evidence)


def pathsum_fuzzy_classical(net: BaseNet, hypothesis, evidence) -> float:
    """Set-valued conditional from paths; arguments as in the fuzzy module."""
    return classical_fuzzy_conditional(net, hypothesis, evidence, engine=PathWeights)


def pathsum_fuzzy_quantum(net: BaseNet, partition, index: int, evidence) -> float:
    """Probability of one partition block, summed from paths."""
    return quantum_fuzzy_conditional(net, partition, index, evidence, engine=PathWeights)
