"""lattice-cap: cold, cap-sized lattice chains.

One op builds a fresh exact-kernel lattice net and asks
``quantum_conditional(net, {t<n_t>.x<s>: 1}, E)`` for every final site s.
The shapes run from 2**15 to 2**20 joint states (L2-resident to L3-sized,
deep-narrow to wide-shallow), so the dense joint enumeration and the
full-length mask behind every chi call dominate.

Each block holds every shape once with empty evidence and once with one
mid-chain site pinned, plus one more 4**10 chain and two more pinned 32**4
chains. Op costs fall in well-separated classes, so this balance keeps
every run's median among the 4**10 ops and its p90 among the pinned 32**4
ops, whichever seed is drawn.
"""

from __future__ import annotations

import numpy as np

from common import rng
from reference import TOL, lattice_final_distribution

SHAPES = ((8, 5), (32, 3), (16, 4), (16, 5), (4, 10), (32, 4))
# (n_x, n_t, pinned)
BLOCK = tuple((*shape, pinned) for pinned in (False, True) for shape in SHAPES) + (
    (4, 10, False), (32, 4, True), (32, 4, True)
)
POTENTIALS = ("free", "harmonic", "well")
# two blocks, so a run holds every size class at least twice
MIN_OPS = 2 * len(BLOCK)


class Op:
    __slots__ = ("n_x", "n_t", "dt", "potential", "strength", "pin")

    def __init__(self, n_x, n_t, dt, potential, strength, pin):
        self.n_x, self.n_t, self.dt = n_x, n_t, dt
        self.potential, self.strength, self.pin = potential, strength, pin

    def evidence(self) -> dict:
        if self.pin is None:
            return {}
        t, s, v = self.pin
        return {f"t{t}.x{s}": v}

    def key(self):
        return (self.n_x, self.n_t, self.dt, self.potential, self.strength, self.pin)


class Session:
    name = "lattice-cap"
    min_ops = MIN_OPS

    def __init__(self, seed: int):
        from qbnet import lattice, quantum

        self.seed = seed
        self.lattice = lattice
        self.quantum = quantum
        self._refs: dict = {}

    def block(self, b: int) -> list:
        r = rng(self.seed, self.name, b)
        ops = []
        for n_x, n_t, pinned in BLOCK:
            pin = None
            if pinned:
                pin = (r.randrange(1, n_t), r.randrange(n_x), r.randrange(2))
            ops.append(
                Op(n_x, n_t, r.choice((0.1, 0.2, 0.3)), r.choice(POTENTIALS),
                   r.choice((0.5, 1.0, 2.0)), pin)
            )
        r.shuffle(ops)
        return ops

    def run(self, op: Op) -> list:
        lat = self.lattice
        spec = lat.LatticeSpec.make(
            op.n_x, 1.0, op.n_t, op.dt,
            potential=lat.potential_preset(op.potential, op.n_x * 1.0, op.strength),
        )
        net = lat.build_lattice_net(spec, kernel="exact")
        evidence = op.evidence()
        return [
            self.quantum.quantum_conditional(net, {f"t{op.n_t}.x{s}": 1}, evidence)
            for s in range(op.n_x)
        ]

    run_inprocess = run

    def check(self, op: Op, result) -> str | None:
        ref = self._refs.get(op.key())
        if ref is None:
            ref = lattice_final_distribution(
                op.n_x, op.n_t, 1.0, op.dt, op.potential, op.strength, op.pin
            )
            self._refs[op.key()] = ref
        err = float(np.max(np.abs(np.asarray(result) - ref)))
        if not err <= TOL:
            return f"{op.key()}: off by {err:.3g} from step-matrix propagation"
        return None

    def peak_rss_kb(self) -> int | None:
        return None

    def close(self) -> None:
        pass


def setup(seed: int) -> Session:
    return Session(seed)
