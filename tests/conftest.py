"""Shared helpers: seeded random nets for property-style loops."""

import numpy as np
import pytest

from qbnet import lattice
from qbnet.core import NodeBlock


@pytest.fixture(autouse=True)
def cold_step_memo():
    """Each test starts and ends with no lattice step matrix or final amplitudes
    kept across builds."""
    lattice._step_matrix.cache_clear()
    lattice._final_amplitudes.cache_clear()
    yield
    lattice._step_matrix.cache_clear()
    lattice._final_amplitudes.cache_clear()


def random_structure(rng, max_nodes=5, max_values=3, edge_prob=0.5):
    """Random DAG skeleton: (names, parents dict, states dict).

    Node names are n0..n{k-1}; the hidden chronological order is a shuffle of
    them, so the declared order exercises arbitrary labelling.
    """
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"n{i}" for i in range(n)]
    order = list(names)
    rng.shuffle(order)
    parents = {name: [] for name in names}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                parents[order[j]].append(order[i])
    states = {name: list(range(int(rng.integers(2, max_values + 1)))) for name in names}
    return names, parents, states


def random_cbnet(seed, max_nodes=5, max_values=3, edge_prob=0.5, zero_frac=0.0):
    """Random classical net with normalized columns.

    zero_frac > 0 plants structural zeros (useful for contradiction paths).
    """
    from qbnet.classical import CBNet

    rng = np.random.default_rng(seed)
    names, parents, states = random_structure(rng, max_nodes, max_values, edge_prob)
    blocks = []
    for name in names:
        k = len(states[name])
        ncols = 1
        for p in parents[name]:
            ncols *= len(states[p])
        arr = rng.random((k, ncols))
        if zero_frac:
            arr[rng.random(arr.shape) < zero_frac] = 0.0
        sums = arr.sum(axis=0)
        for c in range(ncols):
            if sums[c] == 0.0:
                arr[:, c] = 1.0 / k
            else:
                arr[:, c] /= sums[c]
        blocks.append(
            NodeBlock(name=name, states=states[name], table=arr, parents=tuple(parents[name]))
        )
    return CBNet.from_blocks(blocks)


def random_qbnet(seed, max_nodes=5, max_values=3, edge_prob=0.5, zero_frac=0.0):
    """Random quantum net: complex tables with unit-norm columns."""
    from qbnet.quantum import QBNet

    rng = np.random.default_rng(seed)
    names, parents, states = random_structure(rng, max_nodes, max_values, edge_prob)
    blocks = []
    for name in names:
        k = len(states[name])
        ncols = 1
        for p in parents[name]:
            ncols *= len(states[p])
        arr = rng.standard_normal((k, ncols)) + 1j * rng.standard_normal((k, ncols))
        if zero_frac:
            arr[rng.random(arr.shape) < zero_frac] = 0.0
        norms = np.sqrt((np.abs(arr) ** 2).sum(axis=0))
        for c in range(ncols):
            if norms[c] == 0.0:
                arr[0, c] = 1.0
            else:
                arr[:, c] /= norms[c]
        blocks.append(
            NodeBlock(name=name, states=states[name], table=arr, parents=tuple(parents[name]))
        )
    return QBNet.from_blocks(blocks)


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per release criterion, after the normal summary."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance gate")
    for num, status, label in sorted(RESULTS):
        terminalreporter.write_line(f"criterion {num:02d} {status}  {label}")
