"""Spin-1/2 building blocks: beam directions, overlaps, and node tables.

A magnet splits an incoming beam into a "minus" and a "plus" outgoing mode
along its field direction. The quantum state of each beam is a two-component
spinor in the z basis, and the amplitude for a particle entering in one spin
state to leave through a given output mode is the inner product of the two
spinors. Everything here is built from those inner products:

* ``spin_state`` gives the spinor for "up" or "down" along any direction,
* ``overlap`` takes inner products between such spinors,
* ``stern_gerlach_table`` turns a magnet plus a list of labelled input modes
  into a conditional-amplitude table for a net node,
* ``marginalizer_table`` and ``phase_shifter_table`` build the two little
  bookkeeping nodes (component projection and a constant phase).

Tables are returned as callables ``f(state, parent_states)`` ready to hand
to a ``NodeBlock``. Occupation bookkeeping: a magnet node's state is the
pair (n_minus, n_plus), restricted to {(0,0), (0,1), (1,0)} because a
single-particle experiment never occupies both outputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePhase, InvalidParams

EPS_STATE = 1e-12

MAGNET_STATES = ((0, 0), (0, 1), (1, 0))


def _norm2(*amplitudes) -> float:
    """Sum of squared moduli from the parts: inf where abs(z) ** 2 would raise."""
    try:
        return sum(z.real * z.real + z.imag * z.imag for z in map(complex, amplitudes))
    except OverflowError:  # an int past the float range
        return math.inf


@dataclass(frozen=True)
class SpinDirection:
    """A magnet's field direction: polar angle theta, azimuth phi, label."""

    theta: float
    phi: float = 0.0
    label: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise InvalidParams("angles must be finite")


@dataclass(frozen=True)
class SpinState:
    """Two z-basis components (coefficient of up first, down second)."""

    up: complex
    down: complex

    def __post_init__(self):
        norm = _norm2(self.up, self.down)
        if not abs(norm - 1.0) <= EPS_STATE:
            raise InvalidParams(f"spinor norm^2 is {norm!r}, not 1")

    def inner(self, other: "SpinState") -> complex:
        """<self|other> with the conjugate on self."""
        return self.up.conjugate() * other.up + self.down.conjugate() * other.down


def spin_state(direction: SpinDirection, sign: str) -> SpinState:
    """Spinor pointing along (+) or against (-) the given direction.

    With S = sin(theta/2), C = cos(theta/2) and E = e^{i phi/2} the two
    states are (C E*, S E) for "+" and (-S E*, C E) for "-"; at theta=phi=0
    they reduce to the z-basis vectors (1,0) and (0,1).
    """
    s = math.sin(direction.theta / 2)
    c = math.cos(direction.theta / 2)
    e = cmath.exp(0.5j * direction.phi)
    if sign == "+":
        return SpinState(c * e.conjugate(), s * e)
    if sign == "-":
        return SpinState(-s * e.conjugate(), c * e)
    raise InvalidParams(f"sign must be '+' or '-', got {sign!r}")


def overlap(u2: SpinDirection, s2: str, u1: SpinDirection, s1: str) -> complex:
    """Amplitude <s2 along u2 | s1 along u1>.

    When both azimuths are zero this is real: cos of the half-angle
    difference for equal signs, +-sin for opposite signs.
    """
    return spin_state(u2, s2).inner(spin_state(u1, s1))


@dataclass(frozen=True)
class InitialWavefunction:
    """Root-node amplitudes: psi01 for state (0,1), psi10 for state (1,0).

    The state pair is (n_minus, n_plus) for the source beam, so psi01 is
    the amplitude to start spin-up along z and psi10 spin-down.
    """

    psi01: complex
    psi10: complex

    def __post_init__(self):
        norm = _norm2(self.psi01, self.psi10)
        if not abs(norm - 1.0) <= EPS_STATE:
            raise InvalidParams(f"|psi01|^2+|psi10|^2 is {norm!r}, not 1")

    def amplitude(self, state) -> complex:
        if tuple(state) == (0, 1):
            return self.psi01
        if tuple(state) == (1, 0):
            return self.psi10
        return 0.0


def _flatten(parent_states) -> tuple[int, ...]:
    flat = []
    for ps in parent_states:
        flat.extend(ps)
    return tuple(flat)


def stern_gerlach_table(magnet: SpinDirection, inputs, phases=None):
    """Conditional-amplitude table for a magnet node.

    ``inputs`` labels the incoming modes in flattened parent order; each
    entry is a (SpinDirection, sign) pair naming the spin state a particle
    occupying that mode is in. ``phases`` optionally multiplies the column
    for each occupied mode by a unit phase (default 1), which is how an
    inline phase shift on one incoming beam is expressed.

    Column behavior: the vacuum input passes through to (0,0) with
    amplitude 1; an input with exactly one occupied mode scatters into
    (1,0) and (0,1) with the minus/plus overlap amplitudes; inputs with
    two or more occupied modes cannot occur in a one-particle experiment,
    and map to (0,0) with amplitude 1 only so that every column stays
    normalized.
    """
    modes = [(d, s) for d, s in inputs]
    if phases is None:
        phases = [1.0] * len(modes)
    phases = [complex(p) for p in phases]
    if len(phases) != len(modes):
        raise InvalidParams("one phase per input mode required")
    amp_minus = [overlap(magnet, "-", d, s) for d, s in modes]
    amp_plus = [overlap(magnet, "+", d, s) for d, s in modes]

    def table(state, parent_states):
        occ = _flatten(parent_states)
        if len(occ) != len(modes):
            raise InvalidParams(
                f"{len(modes)} input modes declared but {len(occ)} occupation "
                "numbers arrived"
            )
        out = tuple(state)
        hot = [j for j, n in enumerate(occ) if n]
        if len(hot) != 1:
            return 1.0 if out == (0, 0) else 0.0
        j = hot[0]
        if out == (1, 0):
            return phases[j] * amp_minus[j]
        if out == (0, 1):
            return phases[j] * amp_plus[j]
        return 0.0

    return table


def marginalizer_table(k: int, arity: int):
    """Projection of one occupation number out of a vector of ``arity``.

    ``k`` counts from 1: the node copies the k-th flattened input
    occupation to its single output, deterministically.
    """
    if not 1 <= k <= arity:
        raise InvalidParams(f"k must be in 1..{arity}, got {k}")

    def table(state, parent_states):
        occ = _flatten(parent_states)
        if len(occ) != arity:
            raise InvalidParams(
                f"declared input arity {arity} but {len(occ)} occupation "
                "numbers arrived"
            )
        return 1.0 if state[0] == occ[k - 1] else 0.0

    return table


def phase_shifter_table(xi: float):
    """Identity on the occupation number times a constant phase e^{i xi}."""
    phase = cmath.exp(1j * xi)

    def table(state, parent_states):
        occ = _flatten(parent_states)
        if len(occ) != 1:
            raise InvalidParams("phase shifter takes exactly one occupation number")
        return phase if state[0] == occ[0] else 0.0

    return table


def consistency_phase(psi: InitialWavefunction) -> complex:
    """The unit phase i * psi01 psi10* / |psi01 psi10*|.

    This is the inline phase that restores whole-net normalization for the
    recombining-beam layout where one beam re-enters the final magnet.
    """
    prod = psi.psi01 * psi.psi10.conjugate()
    if prod == 0:
        raise DegeneratePhase("psi01 * conj(psi10) is zero; phase undefined")
    return 1j * prod / abs(prod)


def singlet_overlap_check(u: SpinDirection, u2: SpinDirection) -> float:
    """|inner product| of the two-particle antisymmetric states along u, u2.

    Built by expanding (|+><-| - |-><+|)/sqrt(2) style pair states in the
    z basis with a Kronecker product; the result is 1 for every direction
    pair because the antisymmetric combination is rotation invariant.
    """

    def pair_state(d: SpinDirection) -> np.ndarray:
        plus = spin_state(d, "+")
        minus = spin_state(d, "-")
        vp = np.array([plus.up, plus.down])
        vm = np.array([minus.up, minus.down])
        return (np.kron(vp, vm) - np.kron(vm, vp)) / math.sqrt(2)

    return float(abs(np.vdot(pair_state(u), pair_state(u2))))
