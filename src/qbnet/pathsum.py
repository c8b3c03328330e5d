"""Path sums: the same answers as the state-space route, built the long way.

A path is one full joint assignment whose table factors are all nonzero. The
paths ending in the same external configuration form a class, and summing
the path products within a class gives that configuration's total amplitude
(quantum) or probability (classical). Everything the net engine computes by
tensor contraction can be recomputed here from explicit path lists with
plain Python arithmetic, which is exactly what makes this module useful as a
cross-check: the two routes share the tables and nothing else. One pass that
groups the paths matching a filter by final configuration serves every result.

Zero support is decided by exact comparison with zero, entry by entry; a
path is excluded the moment any factor vanishes, never because its product
is merely small.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Mapping

from .core import BaseNet, Weights, conditional, joint_states, value_set
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


def enumerate_paths(net: BaseNet) -> list[Path]:
    """All nonzero-support paths, in lexicographic state-index order."""
    joint_states(net)
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


def _classes(net: BaseNet, fixed: Mapping[str, object]) -> dict[FinalState, list[Path]]:
    """The paths matching ``fixed`` (component -> value or value set), grouped
    by final external configuration: the one walk every result here reads."""
    pos = {n: j for j, n in enumerate(net.node_order())}
    owners = [(net.space.owner(alpha), value_set(v)) for alpha, v in fixed.items()]
    matchers = [(pos[node], k, vs) for (node, k), vs in owners]
    external = [pos[n] for n in net.external_order]
    classes: dict[FinalState, list[Path]] = {}
    for path in enumerate_paths(net):
        if all(path.states[j][k] in vs for j, k, vs in matchers):
            final = FinalState(tuple(v for j in external for v in path.states[j]))
            classes.setdefault(final, []).append(path)
    return classes


def classify_paths(net: BaseNet) -> PathClassification:
    """Group the nonzero-support paths by final external configuration."""
    return PathClassification(order=net.node_order(), classes=_classes(net, {}))


def _class_sums(net: BaseNet, fixed: Mapping[str, object]) -> dict:
    classes = _classes(net, fixed).items()
    return {f: functools.reduce(operator.add, (p.value for p in ps)) for f, ps in classes}


def feynman_integral(net: BaseNet):
    """Per-class path sums: {FinalState: summed value}.

    For quantum nets the values are complex amplitudes whose squared moduli
    are the external configuration weights; for classical nets they are the
    configuration probabilities directly. Only classes with at least one
    nonzero-support path appear (their sum may still cancel to zero).
    """
    return _class_sums(net, {})


# ---------------------------------------------------------------------------
# Query mirrors: identical contracts to the state-space route, summed from
# explicit paths instead.


def path_chi(net: BaseNet, fixed: Mapping[str, object] | None = None) -> float:
    """Path-route version of the filtered weight: the class sums of the
    matching paths, squared before they are added on a quantum net and added
    as they are on a classical one."""
    sums = _class_sums(net, fixed or {}).values()
    if net.kind == "quantum":
        sums = (abs(v) ** 2 for v in sums)
    return sum(sums, 0.0)


class PathWeights(Weights):
    """The reads of ``core.Weights`` with nothing contracted: each block is
    one ``path_chi`` call, through ``core.distribution``."""

    _chi = staticmethod(path_chi)

    def _opened(self, comps):
        return None


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
