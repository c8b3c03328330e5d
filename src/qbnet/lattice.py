"""Single-particle lattice nets: step kernels, net construction, propagation.

A particle lives on N_x sites of a periodic box of length L and evolves
through N_t time steps of size dt. Each time slice is one node whose states
are the one-hot occupation vectors (exactly one site occupied), and the
table entry from site r to site s is the step amplitude alpha[s, r].

Two kernels are provided. The exact kernel exponentiates the discretized
Hamiltonian (three-point Laplacian plus the potential on the diagonal) and
is unitary to machine precision. The gaussian kernel is the short-time
stationary-phase form sqrt(-i dtheta / pi) * exp(i dt L / hbar) with
dtheta = m dx^2 / (2 hbar dt); it has uniform entry magnitude, is only
approximately unitary, and a net built from it fails column normalization
by design - validation reports that honestly rather than renormalizing.

Both built-in kernels read the time only through V(x, t). A preset potential
(``potential_preset``, an immutable value: name, length and strength) is
time-independent, so on at most 32 sites a built-in kernel runs once per
distinct Hamiltonian per process: ``_step_matrix`` keeps its matrix across
builds, read-only and keyed by value (kernel, n_x, dx, dt, mass, hbar and
the preset itself), the 128 most recently used of them (2 MiB at 32 sites).
``_final_amplitudes`` keeps what that matrix carries site 0 to in n_t steps,
checked finite, per matrix key and n_t (128 of them, 64 KiB at 32 sites), and
a chain's slices after the first share the matrix's one factor.
Any other spec, a function wrapping a preset too, is sampled at every step,
and a built-in kernel runs once per distinct potential vector in each build
or propagation. A user-supplied kernel runs once per time step.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import NodeBlock, _state_list, max_states
from .errors import InvalidParams, StateSpaceTooLarge
from .quantum import QBNet

Potential = Callable[[float, float], float]


class _Preset(NamedTuple):
    """A built-in potential V(x, t) = V(x, 0) as a value, free by default:
    equal arguments give equal presets, so a preset keys its step matrix. A
    named tuple, as a dataclass would cost about 1 ms more at import."""

    name: str = "free"
    length: float = 0.0
    strength: float = 0.0

    def __call__(self, x: float, t: float) -> float:
        if self.name == "harmonic":
            return 0.5 * self.strength * (x - self.length / 2.0) ** 2
        if self.name == "well":
            lo, hi = self.length / 3.0, 2.0 * self.length / 3.0
            return 0.0 if lo <= x < hi else self.strength
        return 0.0


zero_potential = _Preset()


@dataclass(frozen=True)
class LatticeSpec:
    """Box, grid, particle, and potential for a lattice run.

    length = n_x * dx and total_time = n_t * dt must hold; use ``make`` to
    fill the products in automatically. Every float field must be a real
    number, and dx, dt, mass and hbar positive and finite; the kernels also
    need the hop term and dtheta derived from them to be. The potential is
    a callable V(x, t) evaluated at site positions x_s = s * dx.
    """

    length: float
    dx: float
    n_x: int
    total_time: float
    dt: float
    n_t: int
    mass: float = 1.0
    hbar: float = 1.0
    potential: Potential = zero_potential

    def __post_init__(self):
        for name in ("n_x", "n_t"):  # a numpy integer is stored as an int
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if self.n_x < 1 or self.n_t < 1:
            raise InvalidParams("n_x and n_t must be at least 1")
        for name in ("dx", "dt", "mass", "hbar", "length", "total_time"):
            _real(name, getattr(self, name))
        for name in ("dx", "dt", "mass", "hbar"):
            if not getattr(self, name) > 0:
                raise InvalidParams(f"{name} must be positive")
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite")
        # isclose fails a NaN, and an infinity unless the product overflowed to it
        if not math.isclose(self.length, self.n_x * self.dx, rel_tol=1e-9, abs_tol=1e-9):
            raise InvalidParams("length must equal n_x * dx")
        if not math.isclose(self.total_time, self.n_t * self.dt, rel_tol=1e-9, abs_tol=1e-9):
            raise InvalidParams("total_time must equal n_t * dt")
        if not callable(self.potential):
            raise InvalidParams("potential must be callable as V(x, t)")

    @classmethod
    def make(cls, n_x, dx, n_t, dt, mass=1.0, hbar=1.0, potential=None):
        n_x, n_t = _count("n_x", n_x), _count("n_t", n_t)  # checked before they multiply
        dx, dt = _real("dx", dx), _real("dt", dt)
        return cls(length=n_x * dx, dx=dx, n_x=n_x, total_time=n_t * dt, dt=dt, n_t=n_t,
                   mass=mass, hbar=hbar,
                   potential=potential if potential is not None else zero_potential)

    def sites(self) -> np.ndarray:
        return np.arange(self.n_x) * self.dx

    def times(self) -> np.ndarray:
        return np.arange(self.n_t + 1) * self.dt

    def hop(self) -> float:
        """The hopping energy hbar^2 / (2 m dx^2) of the three-point Laplacian."""
        with np.errstate(all="ignore"):
            hop = np.float64(self.hbar) ** 2 / (2.0 * self.mass * np.float64(self.dx) ** 2)
        return _finite_positive("hop term hbar^2/(2 m dx^2)", hop)

    def delta_theta(self) -> float:
        with np.errstate(all="ignore"):
            dtheta = self.mass * np.float64(self.dx) ** 2 / (2.0 * self.hbar * self.dt)
        return _finite_positive("dtheta = m dx^2/(2 hbar dt)", dtheta)


def _count(name: str, value) -> int:
    """``value`` as an int; InvalidParams naming ``name`` unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParams(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value):
    """``value``; InvalidParams naming ``name`` unless it is a real number (a bool is one)."""
    if not isinstance(value, (float, int, numbers.Real)):  # builtins first: the ABC check is slow
        raise InvalidParams(f"{name} must be a real number, got {value!r}")
    return value


def _finite_positive(name: str, value) -> float:
    """``value`` as a float; InvalidParams unless it is finite and positive."""
    if not 0.0 < value < math.inf:
        raise InvalidParams(f"{name} must be finite and positive, got {float(value)!r}")
    return float(value)


def potential_preset(name: str, length: float, strength: float = 1.0) -> Potential:
    """Standard potentials: free, harmonic (centered), square well walls.

    length and strength are read as floats. A preset is a value, equal for equal
    arguments (a free one equals ``zero_potential``), so builds share its step matrices."""
    _real("potential strength", strength)
    if not math.isfinite(strength):
        raise InvalidParams(f"potential strength must be finite, got {strength!r}")
    if not (isinstance(length, numbers.Real) and 0.0 < length < math.inf):
        raise InvalidParams(f"potential length must be finite and positive, got {length!r}")
    if name == "free":
        return _Preset()
    if name not in ("harmonic", "well"):
        raise InvalidParams(f"unknown potential preset {name!r}")
    return _Preset(name, float(length), float(strength))


@dataclass
class StepAmplitude:
    """One-step amplitude matrix alpha[s, r] taking site r to site s."""

    matrix: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.matrix).all():
            raise InvalidParams("step amplitudes must be finite")

    def unitarity_defect(self) -> float:
        a = self.matrix
        return float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max())


def _potential_values(spec: LatticeSpec, t: float) -> np.ndarray:
    """V at every site at time t; InvalidParams if a value is not finite."""
    x = spec.sites()
    v = np.array([spec.potential(float(xs), t) for xs in x])
    bad = ~np.isfinite(v)
    if bad.any():
        raise InvalidParams(f"potential is not finite at x={x[bad][0]:g}, t={t:g}")
    return v


def _hamiltonian(spec: LatticeSpec, t: float) -> np.ndarray:
    """2 hop + V on the diagonal, minus hop on the identity rolled +1, then -1:
    the periodic neighbours (at n_x = 2 both are the other site, at 1 itself)."""
    hop, s = spec.hop(), np.arange(spec.n_x)
    h = np.diag(2.0 * hop + _potential_values(spec, t))
    h[s, (s + 1) % spec.n_x] -= hop
    h[s, (s - 1) % spec.n_x] -= hop
    if not np.isfinite(h).all():
        raise InvalidParams("Hamiltonian entries must be finite")
    return h


def step_amplitudes_exact(spec: LatticeSpec, t: float = 0.0) -> StepAmplitude:
    """exp(-i dt H / hbar) for the discretized Hamiltonian at time t."""
    h = _hamiltonian(spec, t)
    evals, vecs = np.linalg.eigh(h)
    with np.errstate(all="ignore"):  # an overflow fails StepAmplitude's finite check
        phases = np.exp(-1j * spec.dt * evals / spec.hbar)
    return StepAmplitude((vecs * phases) @ vecs.conj().T)


def step_amplitudes_gaussian(spec: LatticeSpec, t: float = 0.0) -> StepAmplitude:
    """Stationary-phase step kernel; uniform magnitude sqrt(dtheta/pi).

    The position difference is the plain coordinate difference, not the
    periodic one, matching the regime where the box dwarfs every other
    length in the problem.
    """
    dtheta = spec.delta_theta()
    x = spec.sites()
    diff = x[:, None] - x[None, :]
    v_row = _potential_values(spec, t)[:, None]
    with np.errstate(all="ignore"):  # an overflow fails StepAmplitude's finite check
        lagrangian = 0.5 * spec.mass * (diff / spec.dt) ** 2 - v_row
        amp = (
            math.sqrt(dtheta / math.pi)
            * np.exp(-0.25j * math.pi)
            * np.exp(1j * spec.dt * lagrangian / spec.hbar)
        )
    return StepAmplitude(amp)


_KERNELS = {"exact": step_amplitudes_exact, "gaussian": step_amplitudes_gaussian}


def _kernel_fn(kernel):
    if callable(kernel):
        return kernel
    try:
        return _KERNELS[kernel]
    except (KeyError, TypeError):  # TypeError: an unhashable kernel
        raise InvalidParams(f"kernel must be one of {sorted(_KERNELS)}, got {kernel!r}")


@functools.lru_cache(maxsize=128)
def _step_matrix(kernel: str, n_x: int, dx, dt, mass, hbar, preset: _Preset) -> np.ndarray:
    """A built-in kernel's read-only step matrix for a preset potential; the
    kernels read no other field of the spec. 128 kept, of at most 32 x 32."""
    matrix = _KERNELS[kernel](LatticeSpec.make(n_x, dx, 1, dt, mass, hbar, preset), 0.0).matrix
    matrix.flags.writeable = False
    return matrix


def _step_matrices(spec: LatticeSpec, kernel) -> tuple[list[np.ndarray], np.ndarray]:
    """The n_t step matrices, and the final-slice amplitudes they carry site
    0 to; InvalidParams when those give non-finite site probabilities.

    With a preset potential on at most 32 sites a built-in kernel runs once
    per distinct Hamiltonian per process, through ``_step_matrix``, and the
    final amplitudes and their check once per matrix and n_t, through
    ``_final_amplitudes`` (read-only). Otherwise the kernel runs once per
    distinct potential vector in the call, keyed by its bytes, and a
    user-supplied kernel once per step."""
    step, user = _kernel_fn(kernel), callable(kernel)
    if not user and isinstance(spec.potential, _Preset) and spec.n_x <= 32:  # <= 16 KiB a matrix
        key = (kernel, spec.n_x, spec.dx, spec.dt, spec.mass, spec.hbar, spec.potential)
        return [_step_matrix(*key)] * spec.n_t, _final_amplitudes(key, spec.n_t)
    matrices = [step(spec, 0.0).matrix]  # before any potential: the kernel's checks come first
    built = {0 if user else _potential_values(spec, 0.0).tobytes(): matrices[0]}
    for i in range(1, spec.n_t):
        t = i * spec.dt
        key = i if user else _potential_values(spec, t).tobytes()
        if key not in built:
            built[key] = step(spec, t).matrix
        matrices.append(built[key])
    return matrices, _carried(matrices)


def _carried(matrices: list[np.ndarray]) -> np.ndarray:
    """Site 0 carried through the matrices in turn; InvalidParams when the
    result gives non-finite site probabilities."""
    psi = np.eye(len(matrices[0]), dtype=complex)[0]
    with np.errstate(all="ignore"):  # an overflow fails the check below
        for alpha in matrices:
            psi = alpha @ psi
        total = (np.abs(psi) ** 2).sum()
    if not np.isfinite(total):
        raise InvalidParams("site probabilities must be finite; the step amplitudes overflow them")
    return psi


@functools.lru_cache(maxsize=128)
def _final_amplitudes(key: tuple, n_t: int) -> np.ndarray:
    """``_carried`` over n_t copies of ``_step_matrix(*key)``, read-only;
    128 kept, of at most 32 entries."""
    psi = _carried([_step_matrix(*key)] * n_t)
    psi.flags.writeable = False
    return psi


@functools.lru_cache(maxsize=16)
def _chain(n_x: int, n_t: int) -> tuple:
    """A chain's root state list, the one-hot list its later slices share and
    every slice's component names t{i}.x{s}, built once per (n_x, n_t)."""
    return (_state_list("t0", [(1,) + (0,) * (n_x - 1)]),
            _state_list("t1", [(0,) * s + (1,) + (0,) * (n_x - s - 1) for s in range(n_x)]),
            tuple(tuple(f"t{i}.x{s}" for s in range(n_x)) for i in range(n_t + 1)))


def build_lattice_net(spec: LatticeSpec, kernel="exact") -> QBNet:
    """Net with one node per time slice, rooted at site 0 with amplitude 1.

    Components are named t{i}.x{s}; only the last slice is external. States
    are restricted to the single-particle sector, so the joint state count
    is n_x ** n_t.
    """
    _kernel_fn(kernel)  # an unknown kernel is refused before the cap
    if spec.n_x**spec.n_t > max_states():
        raise StateSpaceTooLarge(
            f"{spec.n_x}**{spec.n_t} single-particle configurations exceed the cap"
        )
    root, one_hots, names = _chain(spec.n_x, spec.n_t)
    blocks = [NodeBlock("t0", root, [1.0 + 0.0j], components=names[0])]
    matrices, _ = _step_matrices(spec, kernel)
    matrices[0] = matrices[0][:, [0]]  # the root offers a single parent state
    for i, alpha in enumerate(matrices, start=1):
        blocks.append(NodeBlock(f"t{i}", one_hots, alpha, parents=(f"t{i-1}",),
                                components=names[i]))
    meta = {"lattice_kernel": kernel if isinstance(kernel, str) else "custom",
            "n_x": str(spec.n_x), "dx": repr(spec.dx), "n_t": str(spec.n_t), "dt": repr(spec.dt),
            "mass": repr(spec.mass), "hbar": repr(spec.hbar)}
    return QBNet.from_blocks(blocks, meta=meta)


def propagate(spec: LatticeSpec, kernel="exact") -> np.ndarray:
    """Final-slice amplitudes by sequential matrix-vector products, a fresh
    writable array."""
    return _step_matrices(spec, kernel)[1].copy()
