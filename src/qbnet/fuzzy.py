"""Set-valued (fuzzy) queries: direct product sets and partitions.

A sharp query pins components to single values. The fuzzy generalization
constrains each component to a *set* of values, with the whole constraint
being the direct product of the per-component sets; unconstrained components
are implicitly unrestricted. Intersections work componentwise, and two such
sets are disjoint exactly when some commonly constrained component has no
value in both.

Classically a fuzzy conditional is just a ratio of filtered masses and needs
nothing new. Quantum mechanically the hypothesis must come from a declared
partition of the relevant configurations, because the answer depends on
which alternatives are coherently lumped together: each block's weight is a
squared sum over everything inside the block, and the distribution is
normalized across the partition's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .classical import CBNet
from .core import Weights, check_block_index, normalize, value_blocks, value_set
from .quantum import QBNet, chi  # noqa: F401  (perfbench traces fuzzy.chi)


@dataclass(frozen=True)
class DirectProductSet:
    """Componentwise constraint: a sorted tuple of (component, value set).

    Membership of an assignment is the product of per-component indicator
    functions, so intersecting two sets multiplies their indicators.
    """

    constraints: tuple[tuple[str, frozenset], ...]

    @classmethod
    def over(cls, net, constraints: Mapping[str, object]) -> "DirectProductSet":
        """Build from {component: value or values}, clipped to each
        component's realizable values (unknown names raise KeyError)."""
        items = []
        for alpha, vals in constraints.items():
            realizable = frozenset(net.space.component_values(alpha))
            items.append((alpha, value_set(vals) & realizable))
        return cls(tuple(sorted(items)))

    @property
    def sets(self) -> dict[str, frozenset]:
        return dict(self.constraints)

    @property
    def components(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.constraints)

    @property
    def is_empty(self) -> bool:
        return any(not vs for _, vs in self.constraints)

    def intersect(self, other: "DirectProductSet") -> "DirectProductSet":
        merged = self.sets
        for alpha, vs in other.constraints:
            merged[alpha] = merged[alpha] & vs if alpha in merged else vs
        return DirectProductSet(tuple(sorted(merged.items())))

    def disjoint_from(self, other: "DirectProductSet") -> bool:
        mine = self.sets
        return any(alpha in mine and not (mine[alpha] & vs) for alpha, vs in other.constraints)

    def contains(self, assignment: Mapping[str, int]) -> bool:
        return all(assignment[alpha] in vs for alpha, vs in self.constraints)


@dataclass(frozen=True)
class Partition:
    """Named component set plus blocks meant to tile its realizable combos."""

    components: tuple[str, ...]
    blocks: tuple[DirectProductSet, ...]


def validate_partition(net, partition: Partition) -> list[str]:
    """Violations list: empty iff the blocks tile the realizable combos of
    the partition's components exactly once each."""
    problems = []
    comp_set = set(partition.components)
    if not partition.blocks:
        return ["partition has no blocks"]
    for i, b in enumerate(partition.blocks):
        extra = set(b.components) - comp_set
        if extra:
            problems.append(f"block {i} constrains {sorted(extra)} outside the partition")
    if problems:
        return problems
    for i, a in enumerate(partition.blocks):
        for j in range(i + 1, len(partition.blocks)):
            if not a.disjoint_from(partition.blocks[j]):
                problems.append(f"blocks {i} and {j} overlap")
    for assignment in value_blocks(net, partition.components):
        hits = sum(1 for b in partition.blocks if b.contains(assignment))
        if hits == 0:
            problems.append(f"combo {assignment} covered by no block")
    return problems


def singleton_partition(net, components: Iterable[str]) -> Partition:
    """One block per realizable value combo of the given components."""
    comps = tuple(components)
    blocks = tuple(DirectProductSet.over(net, b) for b in value_blocks(net, comps))
    return Partition(comps, blocks)


def classical_fuzzy_conditional(
    net: CBNet, hypothesis: DirectProductSet, evidence: DirectProductSet
) -> float:
    """Mass of hypothesis-and-evidence over mass of evidence."""
    weights = Weights(net, hypothesis.components, evidence.sets)
    total, weight = weights.blocks([{}, hypothesis.sets])  # chi(E) and chi(H and E), one read
    return normalize([weight], total, evidence.sets)[0]


def quantum_fuzzy_distribution(
    net: QBNet, partition: Partition, evidence: DirectProductSet
) -> list[float]:
    """Probability of each partition block given the evidence set.

    The partition is taken at face value here; run validate_partition first
    when it comes from outside.
    """
    blocks = [b.sets for b in partition.blocks]
    weights = Weights(net, partition.components, evidence.sets).blocks(blocks)
    return normalize(weights, sum(weights), evidence.sets)


def quantum_fuzzy_conditional(
    net: QBNet, partition: Partition, index: int, evidence: DirectProductSet
) -> float:
    """Probability of partition block ``index`` given the evidence set."""
    index = check_block_index(index, len(partition.blocks))
    return quantum_fuzzy_distribution(net, partition, evidence)[index]
