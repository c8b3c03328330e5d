"""Path sums: the same answers as the state-space route, built the long way.

A path is one full joint assignment whose table factors are all nonzero. The
paths ending in the same external configuration form a class, and summing
the path products within a class gives that configuration's total amplitude
(quantum) or probability (classical). Everything the net engine computes by
tensor contraction can be recomputed here from explicit path lists with
plain Python arithmetic, which is exactly what makes this module useful as a
cross-check: the two routes share the tables and nothing else. One walk
that groups the paths matching a filter by final configuration serves every
result, each query summed and divided here; only the input checks, the combo
order and the refusal texts are ``core``'s.

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

from .core import _ZERO_WEIGHT, BaseNet, check_block_index, check_conditional, joint_states
from .core import value_blocks, value_set
from .errors import ContradictoryEvidence


@dataclass(frozen=True)
class Path:
    """One nonzero-support joint assignment (states follow the node order)."""

    states: tuple[tuple[int, ...], ...]
    value: complex


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


def _classes(net: BaseNet, fixed: Mapping[str, object], blocks=({},)) -> list[dict]:
    """Per block ({component: value or value set}), the paths matching it and
    ``fixed`` grouped by final external configuration, each keyed as
    ``core.external_map`` keys it: the one walk every result here reads."""
    pos = {n: j for j, n in enumerate(net.node_order())}

    def tests(sets):
        owners = [(net.space.owner(alpha), value_set(v)) for alpha, v in sets.items()]
        return [(pos[node], k, vs) for (node, k), vs in owners]

    matchers, external = tests(fixed), [pos[n] for n in net.external_order]
    per_block = [(tests(block), {}) for block in blocks]
    for path in enumerate_paths(net):
        if all(path.states[j][k] in vs for j, k, vs in matchers):
            final = tuple(v for j in external for v in path.states[j])
            for test, classes in per_block:
                if all(path.states[j][k] in vs for j, k, vs in test):
                    classes.setdefault(final, []).append(path)
    return [classes for _, classes in per_block]


def classify_paths(net: BaseNet) -> dict[tuple, list[Path]]:
    """The nonzero-support paths per final configuration, keyed as ``core.external_map``."""
    return _classes(net, {})[0]


def _class_sums(classes: Mapping[tuple, list[Path]]) -> dict:
    return {f: functools.reduce(operator.add, (p.value for p in ps)) for f, ps in classes.items()}


def feynman_integral(net: BaseNet):
    """Per-class path sums: {external component values: summed value}, each
    key the tuple that ``core.external_map`` gives the same configuration.

    For quantum nets the values are complex amplitudes whose squared moduli
    are the external configuration weights; for classical nets they are the
    configuration probabilities directly. Only classes with at least one
    nonzero-support path appear (their sum may still cancel to zero).
    """
    return _class_sums(classify_paths(net))


# ---------------------------------------------------------------------------
# Query mirrors: the contracts of the state-space route, each answer summed
# and divided from one walk's weights.


def _weights(net: BaseNet, fixed: Mapping[str, object], blocks) -> list[float]:
    """chi(fixed and B) for each block B from one walk: a final configuration's
    paths in B summed, squared on a quantum net, and totalled."""
    weights = []
    for classes in _classes(net, fixed, blocks):
        sums = _class_sums(classes).values()
        if net.kind == "quantum":
            sums = (abs(v) ** 2 for v in sums)
        weights.append(sum(sums, 0.0))
    return weights


def _over(weights: list[float], total: float, evidence: Mapping) -> list[float]:
    """Each weight over ``total``; ContradictoryEvidence if it is zero."""
    if total == 0.0:
        raise ContradictoryEvidence(_ZERO_WEIGHT.format(dict(evidence)))
    return [w / total for w in weights]


def path_chi(net: BaseNet, fixed: Mapping[str, object] | None = None) -> float:
    """Path-route version of the filtered weight, ``core.chi``'s contract."""
    return _weights(net, fixed or {}, [{}])[0]


def path_row(net: BaseNet, comps, evidence: Mapping) -> tuple[list[float], float]:
    """``core.Weights.row`` summed from paths, chi(E) and each combo's weight
    off one walk: (P(m | E) per value combo m of ``comps``, f_qna)."""
    sets = {alpha: value_set(v) for alpha, v in evidence.items()}
    chi_e, *weights = _weights(net, sets, [{}, *value_blocks(net, comps)])
    total = sum(weights)
    return _over(weights, total, evidence), _over([total], chi_e, evidence)[0]


def pathsum_conditional(net: BaseNet, hypothesis: Mapping[str, int], evidence: Mapping) -> float:
    """P(hypothesis | evidence) summed from paths: the combo's weight over the
    total of every value combo of its components, as ``core.conditional``."""
    combo, blocks = check_conditional(net, hypothesis, evidence), value_blocks(net, hypothesis)
    weights = _weights(net, evidence, blocks)
    return _over(weights, sum(weights), evidence)[blocks.index(dict(zip(hypothesis, combo)))]


def pathsum_fuzzy_classical(net: BaseNet, hypothesis, evidence) -> float:
    """Set-valued conditional from paths; arguments as in the fuzzy module."""
    chi_e, weight = _weights(net, evidence.sets, [{}, hypothesis.sets])
    return _over([weight], chi_e, evidence.sets)[0]


def pathsum_fuzzy_quantum(net: BaseNet, partition, index: int, evidence) -> float:
    """Probability of one partition block, summed from paths."""
    index = check_block_index(index, len(partition.blocks))
    weights = _weights(net, evidence.sets, [b.sets for b in partition.blocks])
    return _over(weights, sum(weights), evidence.sets)[index]
