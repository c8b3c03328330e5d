"""One digest of the package's answers: python3 tests/answers.py [--against REV]

Computes a fixed set of answers with the ``qbnet`` package under ``src/``
and prints one sha256 over them as little-endian doubles:

- the evidence-case runner's rows for the nine quantum catalog nets, on
  their default cases and six value-set cases each (per case its number,
  whether it has no output and its error count, then per row the
  combos, both distributions and both f_qna);
- ``Weights.row`` of each query component with no evidence, on every
  catalog net at its default parameters (the probabilities and f_qna);
- ``quantum_conditional`` of every final site of a fixed list of preset
  chains, with and without a pinned mid-chain site;
- ``propagate`` on preset chains of 8 to 48 sites, so a kept and a
  sampled step matrix both count (real, then imaginary parts).

With ``--against REV`` the same answers are computed with the ``src/`` of
a ``git archive`` of REV in a temporary directory and compared value by
value: the script prints "identical", or how many values moved and the
largest move in ulps. It exits 1 when they differ.

Run it by hand from the root of a checkout; pytest does not collect it.
It needs only the standard library and numpy. A change that claims the
same answers as its parent cites ``--against <parent>``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# (n_x, n_t, kernel, preset, strength, dt, pinned (t, s, v) or None)
CHAINS = (
    (8, 5, "exact", "free", 1.0, 0.1, None),
    (8, 5, "exact", "harmonic", 2.0, 0.2, (2, 3, 1)),
    (32, 3, "exact", "well", 0.5, 0.3, None),
    (16, 4, "exact", "harmonic", 1.0, 0.1, (1, 5, 0)),
    (4, 10, "exact", "well", 2.0, 0.2, (5, 1, 1)),
    (32, 4, "exact", "harmonic", 0.5, 0.3, (2, 17, 1)),
    (6, 4, "gaussian", "harmonic", 1.0, 0.2, None),
)
# (n_x, n_t, kernel, preset); past 32 sites the step matrix is not kept
PROPAGATIONS = tuple((n_x, 6, kernel, preset) for n_x in (8, 32, 33, 48)
                     for kernel in ("exact", "gaussian") for preset in ("harmonic", "well"))


def _value_set_cases(net, comps):
    """Six cases of value sets: each of the first three components free
    over all its values, and pinned to its first value with the next one
    free over all of its."""
    from qbnet.netfile import EvidenceCase

    values = {alpha: frozenset(net.space.component_values(alpha)) for alpha in comps}
    cases = []
    for i, alpha in enumerate(comps[:3]):
        after = comps[(i + 1) % len(comps)]
        cases.append(EvidenceCase(101 + 2 * i, ((alpha, values[alpha]),)))
        cases.append(EvidenceCase(102 + 2 * i, ((alpha, frozenset({min(values[alpha])})),
                                                (after, values[after]))))
    return cases


def answers() -> np.ndarray:
    """Every answer, in a fixed order, as one float64 array."""
    from qbnet import catalog, lattice
    from qbnet.core import Weights
    from qbnet.quantum import quantum_conditional

    out: list[float] = []
    entries = catalog.list_entries()
    for entry in entries:
        if entry.kind != "quantum":
            continue
        net = catalog.build(entry.id)
        comps = catalog.query_components(net)
        cases = catalog.default_cases(net) + _value_set_cases(net, comps)
        for result in catalog.run_evidence_cases(net, cases):
            out += [result.case.number, result.no_output, len(result.errors)]
            for row in result.rows:
                out += np.ravel(row.combos).tolist()
                out += [*row.cb, *row.qb, row.cb_fqna, row.qb_fqna]
    for entry in entries:
        net = catalog.build(entry.id)
        for alpha in catalog.query_components(net):
            probabilities, f_qna = Weights(net, (alpha,), {}).row((alpha,))
            out += [*probabilities, f_qna]
    for n_x, n_t, kernel, preset, strength, dt, pin in CHAINS:
        potential = lattice.potential_preset(preset, n_x * 1.0, strength)
        net = lattice.build_lattice_net(lattice.LatticeSpec.make(n_x, 1.0, n_t, dt,
                                                                 potential=potential), kernel)
        evidence = {} if pin is None else {f"t{pin[0]}.x{pin[1]}": pin[2]}
        out += [quantum_conditional(net, {f"t{n_t}.x{s}": 1}, evidence) for s in range(n_x)]
    for n_x, n_t, kernel, preset in PROPAGATIONS:
        potential = lattice.potential_preset(preset, n_x * 0.5, 1.5)
        psi = lattice.propagate(lattice.LatticeSpec.make(n_x, 0.5, n_t, 0.1,
                                                         potential=potential), kernel)
        out += [*psi.real, *psi.imag]
    return np.array(out, dtype="<f8")


def _answers_of(src: Path) -> np.ndarray:
    """``answers()`` computed in a fresh process with the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("QBNET_MAX_STATES", None)
    done = subprocess.run([sys.executable, __file__, "--dump"], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, check=True)
    return np.frombuffer(done.stdout, dtype="<f8")


def _ordered(values: np.ndarray) -> list[int]:
    """Each double as an integer, consecutive for adjacent doubles (both
    zeros are 0), so a difference of two is their distance in ulps."""
    bits = values.view("<i8")
    return [int(b) if b >= 0 else -(int(b) & 0x7FFF_FFFF_FFFF_FFFF) for b in bits]


def compare(here: np.ndarray, there: np.ndarray) -> str:
    if len(here) != len(there):
        return f"{len(there)} values at the other revision, {len(here)} here"
    moved = np.flatnonzero(here.view("<u8") != there.view("<u8"))
    if not len(moved):
        return "identical"
    ulps = max(abs(a - b) for a, b in zip(_ordered(here[moved]), _ordered(there[moved])))
    return f"{len(moved)} of {len(here)} values moved, the largest by {ulps} ulps"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REV", help="compare with the src/ of REV")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        sys.stdout.buffer.write(answers().tobytes())
        return 0
    here = _answers_of(ROOT / "src")
    print(f"{len(here)} values, sha256 {hashlib.sha256(here.tobytes()).hexdigest()}")
    if args.against is None:
        return 0
    archive = subprocess.run(["git", "archive", "--format=tar", args.against, "src"],
                             cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        there = _answers_of(Path(tmp) / "src")
    print(f"{args.against}: sha256 {hashlib.sha256(there.tobytes()).hexdigest()}")
    verdict = compare(here, there)
    print(verdict)
    return 0 if verdict == "identical" else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
