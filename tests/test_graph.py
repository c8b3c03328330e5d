import numpy as np
import pytest

from qbnet.errors import CyclicGraph
from qbnet.graph import (
    Arrow,
    LabelledGraph,
    chronological_labelling,
    classify_nodes,
    is_acyclic,
    node_order_relation,
)

from conftest import random_structure


def chain(*names):
    """a -> b -> ... -> z with an external arrow leaving the last node."""
    arrows = [Arrow(names[i], names[i + 1]) for i in range(len(names) - 1)]
    arrows.append(Arrow(names[-1]))
    return LabelledGraph(names, arrows)


def test_arrow_external_flag():
    assert Arrow("a").external
    assert not Arrow("a", "b").external


def test_classification_basic():
    g = chain("x", "y", "z")
    cls = classify_nodes(g)
    assert cls.internal == ("x", "y")
    assert cls.external == ("z",)
    assert cls.invalid == ()


def test_classification_invalid_cases():
    # no out-arrows at all
    g = LabelledGraph(["a", "b"], [Arrow("a", "b")])
    assert "b" in classify_nodes(g).invalid
    # mixing an internal and an external out-arrow
    g = LabelledGraph(["a", "b"], [Arrow("a", "b"), Arrow("a"), Arrow("b")])
    cls = classify_nodes(g)
    assert cls.invalid == ("a",)
    assert cls.external == ("b",)


def test_graph_construction_errors():
    with pytest.raises(ValueError, match="duplicate"):
        LabelledGraph(["a", "a"], [])
    with pytest.raises(ValueError, match="source"):
        LabelledGraph(["a"], [Arrow("ghost", "a")])
    with pytest.raises(ValueError, match="target"):
        LabelledGraph(["a"], [Arrow("a", "ghost")])
    with pytest.raises(ValueError, match="self-loop"):
        LabelledGraph(["a"], [Arrow("a", "a")])
    with pytest.raises(ValueError, match="parallel"):
        LabelledGraph(["a", "b"], [Arrow("a", "b"), Arrow("a", "b")])


def test_acyclicity():
    assert is_acyclic(chain("a", "b", "c"))
    two_cycle = LabelledGraph(["u", "w"], [Arrow("u", "w"), Arrow("w", "u")])
    assert not is_acyclic(two_cycle)
    three = LabelledGraph(
        ["a", "b", "c"], [Arrow("a", "b"), Arrow("b", "c"), Arrow("c", "a")]
    )
    assert not is_acyclic(three)
    diamond = LabelledGraph(
        ["a", "b", "c", "d"],
        [Arrow("a", "b"), Arrow("a", "c"), Arrow("b", "d"), Arrow("c", "d"), Arrow("d")],
    )
    assert is_acyclic(diamond)


def test_chronological_chain():
    assert chronological_labelling(chain("x", "y", "z")) == ("x", "y", "z")


def test_chronological_two_disconnected_pairs():
    g = LabelledGraph(
        ["a", "b", "c", "d"],
        [Arrow("a", "b"), Arrow("c", "d"), Arrow("b"), Arrow("d")],
    )
    assert chronological_labelling(g) == ("a", "b", "c", "d")


def test_chronological_rejects_cycle():
    g = LabelledGraph(["u", "w"], [Arrow("u", "w"), Arrow("w", "u")])
    with pytest.raises(CyclicGraph):
        chronological_labelling(g)


def test_chronological_is_topological_and_deterministic():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        names, parents, _ = random_structure(rng, max_nodes=6)
        arrows = [Arrow(p, n) for n, ps in parents.items() for p in ps]
        with_children = {a.source for a in arrows}
        arrows += [Arrow(n) for n in names if n not in with_children]
        g = LabelledGraph(names, arrows)
        order = chronological_labelling(g)
        assert sorted(order) == sorted(names)
        pos = {n: i for i, n in enumerate(order)}
        for n, ps in parents.items():
            for p in ps:
                assert pos[p] < pos[n]
        assert chronological_labelling(g) == order


def test_chronological_strips_the_greatest_strippable_node_first():
    # z frees a and c at once; b was a candidate before them
    g = LabelledGraph(
        ["a", "b", "c", "z"], [Arrow("a", "z"), Arrow("c", "z"), Arrow("b"), Arrow("z")]
    )
    assert chronological_labelling(g) == ("a", "b", "c", "z")
    for seed in range(60):
        names, parents, _ = random_structure(np.random.default_rng(seed), max_nodes=7)
        arrows = [Arrow(p, n) for n, ps in parents.items() for p in ps]
        with_children = {a.source for a in arrows}
        g = LabelledGraph(names, arrows + [Arrow(n) for n in names if n not in with_children])
        stripped, left = [], set(names)
        while left:
            node = max(n for n in left if left.isdisjoint(g.children(n)))
            stripped.append(node)
            left.discard(node)
        assert chronological_labelling(g) == tuple(reversed(stripped))


def test_chronological_unique_when_every_pair_is_linked():
    import itertools

    def all_topological_orders(names, parents):
        out = []
        for perm in itertools.permutations(names):
            pos = {n: i for i, n in enumerate(perm)}
            if all(pos[p] < pos[n] for n in names for p in parents[n]):
                out.append(list(perm))
        return out

    for seed in range(12):
        rng = np.random.default_rng(seed + 50)
        k = int(rng.integers(2, 7))
        names = [f"n{j}" for j in range(k)]
        hidden = list(names)
        rng.shuffle(hidden)
        parents = {n: [] for n in names}
        arrows = []
        for i, j in itertools.combinations(range(k), 2):
            arrows.append(Arrow(hidden[i], hidden[j]))
            parents[hidden[j]].append(hidden[i])
        arrows.append(Arrow(hidden[-1]))
        g = LabelledGraph(names, arrows)
        orders = all_topological_orders(names, parents)
        assert orders == [hidden]
        assert list(chronological_labelling(g)) == hidden


def test_node_order_relation():
    g = LabelledGraph(
        ["a", "b", "c"], [Arrow("a", "b"), Arrow("a", "c"), Arrow("b"), Arrow("c")]
    )
    assert node_order_relation(g, "a", "b") == "precedes"
    assert node_order_relation(g, "b", "a") == "succeeds"
    assert node_order_relation(g, "b", "c") == "concurrent"
    assert node_order_relation(g, "b", "b") == "equal"
    with pytest.raises(KeyError):
        node_order_relation(g, "a", "nope")
