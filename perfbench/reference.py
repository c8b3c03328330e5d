"""Reference answers, computed apart from the routes the workloads time.

Net queries are answered from the path-sum route: ``qbnet.pathsum`` lists
every nonzero path once per net, and the filtered weights are then summed
here from that list. Nothing in this module touches the dense joint
enumeration (``core._Enumeration``) or the masks the timed routes build.

Lattice queries are answered by propagating a state vector with step
matrices built here from the box Hamiltonian, projected at the evidence
slice and normalized at the end.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qbnet import pathsum

TOL = 1e-9


def value_set(allowed) -> frozenset:
    if isinstance(allowed, (set, frozenset, tuple, list)):
        return frozenset(int(v) for v in allowed)
    return frozenset([int(allowed)])


class PathTable:
    """Every nonzero path of one net as arrays, for fast filtered sums.

    With ``parent=True`` a quantum net is read as its parent classical net:
    the parent's tables are |A|^2, so its paths are the same assignments
    with values |path amplitude|^2, summed without interference.
    """

    def __init__(self, net, parent: bool = False):
        order = net.node_order()
        paths = pathsum.enumerate_paths(net)
        self.n_paths = len(paths)
        values = np.array([p.value for p in paths])
        if parent:
            values = np.abs(values) ** 2
        self.quantum = net.kind == "quantum" and not parent
        self.values = values
        self.columns = {}
        self.component_values = {}
        for j, node in enumerate(order):
            states = net.space.states(node)
            for k, alpha in enumerate(net.space.components(node)):
                self.columns[alpha] = np.array([p.states[j][k] for p in paths], dtype=np.int64)
                self.component_values[alpha] = tuple(sorted({s[k] for s in states}))
        ext = net.external_components
        keys = list(zip(*(self.columns[a].tolist() for a in ext))) if ext else [()] * len(paths)
        index: dict = {}
        self.final = np.array([index.setdefault(k, len(index)) for k in keys], dtype=np.int64)
        self.final_keys = list(index)

    def chi(self, fixed) -> float:
        """Filtered weight; ``fixed`` maps components to a value or value set."""
        mask = np.ones(self.n_paths, dtype=bool)
        for alpha, allowed in fixed.items():
            mask &= np.isin(self.columns[alpha], sorted(value_set(allowed)))
        if not self.quantum:
            return float(self.values[mask].sum())
        n = len(self.final_keys)
        re = np.bincount(self.final[mask], weights=self.values.real[mask], minlength=n)
        im = np.bincount(self.final[mask], weights=self.values.imag[mask], minlength=n)
        return float((re * re + im * im).sum())

    def final_weights(self) -> dict:
        """Weight (quantum) or probability (classical) of each final class."""
        n = len(self.final_keys)
        if self.quantum:
            re = np.bincount(self.final, weights=self.values.real, minlength=n)
            im = np.bincount(self.final, weights=self.values.imag, minlength=n)
            sums = re * re + im * im
        else:
            sums = np.bincount(self.final, weights=self.values, minlength=n)
        return dict(zip(self.final_keys, sums.tolist()))

    def distribution(self, comps, evidence):
        """(combos, weights, total, base) for hypothesis components under
        evidence, merging a hypothesis value into an evidence set the way a
        conjunction does: a value outside the set has weight zero."""
        combos = list(itertools.product(*(self.component_values[a] for a in comps)))
        weights = []
        for combo in combos:
            merged = {a: value_set(v) for a, v in evidence.items()}
            empty = False
            for alpha, v in zip(comps, combo):
                merged[alpha] = merged.get(alpha, frozenset([v])) & {v}
                empty = empty or not merged[alpha]
            weights.append(0.0 if empty else self.chi(merged))
        return combos, weights, sum(weights), self.chi(evidence)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


# ---------------------------------------------------------------------------
# lattice chains


def box_potential(name: str, length: float, strength: float):
    if name == "free":
        return lambda x: 0.0
    if name == "harmonic":
        return lambda x: 0.5 * strength * (x - length / 2.0) ** 2
    if name == "well":
        return lambda x: 0.0 if length / 3.0 <= x < 2.0 * length / 3.0 else strength
    raise ValueError(name)


def step_matrix(n_x, dx, dt, potential, strength, mass=1.0, hbar=1.0) -> np.ndarray:
    """exp(-i dt H / hbar) for the periodic three-point box Hamiltonian."""
    v = box_potential(potential, n_x * dx, strength)
    hop = hbar * hbar / (2.0 * mass * dx * dx)
    h = np.diag([2.0 * hop + v(s * dx) for s in range(n_x)]).astype(float)
    for s in range(n_x):
        h[s, (s + 1) % n_x] -= hop
        h[s, (s - 1) % n_x] -= hop
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * dt * evals / hbar)) @ vecs.conj().T


def lattice_final_distribution(n_x, n_t, dx, dt, potential, strength, pin=None) -> np.ndarray:
    """P(final site s | evidence) for a particle starting at site 0.

    ``pin`` is (slice, site, value): the site's occupation at that slice is
    fixed to value (1 keeps only that site, 0 removes it).
    """
    u = step_matrix(n_x, dx, dt, potential, strength)
    psi = np.zeros(n_x, dtype=complex)
    psi[0] = 1.0
    for t in range(1, n_t + 1):
        psi = u @ psi
        if pin is not None and pin[0] == t:
            keep = np.zeros(n_x, dtype=bool) if pin[2] else np.ones(n_x, dtype=bool)
            keep[pin[1]] = bool(pin[2])
            psi = np.where(keep, psi, 0)
    probs = np.abs(psi) ** 2
    total = probs.sum()
    if not math.isfinite(total) or total == 0.0:
        raise ValueError("evidence has zero weight")
    return probs / total
