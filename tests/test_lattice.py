"""Lattice kernels and nets against closed forms and each other."""

import functools
import math
import warnings

import numpy as np
import pytest

from qbnet import lattice
from qbnet.errors import InvalidParams, StateSpaceTooLarge
from qbnet.lattice import (
    LatticeSpec,
    StepAmplitude,
    build_lattice_net,
    potential_preset,
    propagate,
    step_amplitudes_exact,
    step_amplitudes_gaussian,
)
from qbnet.pathsum import feynman_integral
from qbnet.quantum import external_amplitude_map, validate_quantum


def test_spec_checks_its_products():
    spec = LatticeSpec.make(n_x=4, dx=0.5, n_t=3, dt=0.1)
    assert spec.length == 2.0
    assert spec.total_time == pytest.approx(0.3)
    assert list(spec.sites()) == [0.0, 0.5, 1.0, 1.5]
    assert list(spec.times()) == [0.0, 0.1, 0.2, 0.30000000000000004]  # arange times dt
    with pytest.raises(InvalidParams):
        LatticeSpec(length=3.0, dx=0.5, n_x=4, total_time=0.3, dt=0.1, n_t=3)
    with pytest.raises(InvalidParams):
        LatticeSpec.make(n_x=0, dx=0.5, n_t=3, dt=0.1)
    with pytest.raises(InvalidParams):
        LatticeSpec.make(n_x=4, dx=-0.5, n_t=3, dt=0.1)


@pytest.mark.parametrize(
    "field, n_x, n_t",
    [("n_x", 2.5, 2), ("n_t", 2, 2.0), ("n_x", np.float64(3.0), 2), ("n_t", 2, 1 + 0j)],
    ids=["fractional-n_x", "float-n_t", "numpy-float-n_x", "complex-n_t"],
)
def test_spec_refuses_a_count_that_is_not_an_integer(field, n_x, n_t):
    value = {"n_x": n_x, "n_t": n_t}[field]
    with pytest.raises(InvalidParams) as err:
        LatticeSpec.make(n_x, 1.0, n_t, 0.1)
    assert str(err.value) == f"{field} must be an integer, got {value!r}"


def test_spec_stores_numpy_integer_counts_as_ints():
    spec = LatticeSpec.make(np.int64(3), 1.0, np.int32(2), 0.1)
    assert type(spec.n_x) is int and type(spec.n_t) is int
    plain = LatticeSpec.make(3, 1.0, 2, 0.1)
    assert spec == plain and build_lattice_net(spec).meta == build_lattice_net(plain).meta
    np.testing.assert_array_equal(propagate(spec), propagate(plain))


def test_exact_kernel_is_unitary():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        spec = LatticeSpec.make(
            n_x=n,
            dx=float(rng.uniform(0.1, 1.0)),
            n_t=1,
            dt=float(rng.uniform(0.05, 1.5)),
            mass=float(rng.uniform(0.5, 2.0)),
            hbar=float(rng.uniform(0.5, 2.0)),
            potential=lambda x, t: math.sin(3 * x) + x * x,
        )
        assert step_amplitudes_exact(spec).unitarity_defect() < 1e-9


def test_exact_kernel_identity_limit():
    spec = LatticeSpec.make(n_x=6, dx=0.5, n_t=1, dt=1e-9,
                            potential=lambda x, t: x)
    alpha = step_amplitudes_exact(spec).matrix
    assert np.abs(alpha - np.eye(6)).max() < 1e-6


def test_two_site_closed_form():
    """One hop on two sites is a rotation by theta = hbar dt / (m dx^2)."""
    m, hbar, dx, dt = 1.3, 0.7, 0.4, 0.9
    spec = LatticeSpec.make(n_x=2, dx=dx, n_t=1, dt=dt, mass=m, hbar=hbar)
    c = hbar**2 / (m * dx**2)
    theta = c * dt / hbar
    eye = np.eye(2)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    want = np.exp(-1j * theta) * (math.cos(theta) * eye + 1j * math.sin(theta) * sigma_x)
    got = step_amplitudes_exact(spec).matrix
    assert np.abs(got - want).max() < 1e-12


def test_gaussian_kernel_entries():
    spec = LatticeSpec.make(n_x=7, dx=0.3, n_t=1, dt=0.25, mass=1.4, hbar=0.9)
    dtheta = spec.delta_theta()
    alpha = step_amplitudes_gaussian(spec).matrix
    assert np.abs(np.abs(alpha) - math.sqrt(dtheta / math.pi)).max() < 1e-12
    # with no potential the phase depends only on the squared site offset
    for s in range(7):
        for r in range(7):
            want = (
                math.sqrt(dtheta / math.pi)
                * np.exp(-0.25j * math.pi)
                * np.exp(1j * dtheta * (s - r) ** 2)
            )
            assert abs(alpha[s, r] - want) < 1e-12
    # a potential multiplies row s by its own extra phase
    vspec = LatticeSpec.make(n_x=7, dx=0.3, n_t=1, dt=0.25, mass=1.4, hbar=0.9,
                             potential=lambda x, t: 2.0 * x)
    valpha = step_amplitudes_gaussian(vspec).matrix
    x = vspec.sites()
    extra = np.exp(-1j * vspec.dt * 2.0 * x / vspec.hbar)[:, None]
    assert np.abs(valpha - alpha * extra).max() < 1e-12


def _fi_vector(net, n_x):
    fi = feynman_integral(net)
    out = np.zeros(n_x, dtype=complex)
    for state, value in fi.items():
        (site,) = [i for i, occ in enumerate(state) if occ == 1]
        out[site] = value
    return out


def test_net_path_sum_equals_matrix_propagation():
    vpot = potential_preset("harmonic", length=5 * 0.4, strength=3.0)
    spec = LatticeSpec.make(n_x=5, dx=0.4, n_t=3, dt=0.2, potential=vpot)
    for kernel in ("exact", "gaussian"):
        net = build_lattice_net(spec, kernel)
        assert np.abs(_fi_vector(net, 5) - propagate(spec, kernel)).max() < 1e-12
    total = np.abs(propagate(spec, "exact")) ** 2
    assert abs(total.sum() - 1.0) < 1e-9


def test_single_step_net_is_the_kernel_column():
    spec = LatticeSpec.make(n_x=4, dx=0.5, n_t=1, dt=0.3)
    net = build_lattice_net(spec, "exact")
    alpha = step_amplitudes_exact(spec, 0.0).matrix
    assert np.abs(_fi_vector(net, 4) - alpha[:, 0]).max() < 1e-12


def test_two_step_net_is_the_matrix_product():
    # time-dependent potential, so the two step matrices genuinely differ
    vpot = lambda x, t: (1.0 + 4.0 * t) * x
    spec = LatticeSpec.make(n_x=3, dx=0.5, n_t=2, dt=0.4, potential=vpot)
    a1 = step_amplitudes_exact(spec, 0.0).matrix
    a2 = step_amplitudes_exact(spec, 0.4).matrix
    assert np.abs(a1 - a2).max() > 1e-3
    net = build_lattice_net(spec, "exact")
    want = (a2 @ a1)[:, 0]
    assert np.abs(_fi_vector(net, 3) - want).max() < 1e-12


def test_gaussian_net_fails_column_checks_honestly():
    spec = LatticeSpec.make(n_x=5, dx=0.4, n_t=2, dt=0.2)
    exact_net = build_lattice_net(spec, "exact")
    assert validate_quantum(exact_net).ok
    gauss_net = build_lattice_net(spec, "gaussian")
    report = validate_quantum(gauss_net)
    assert not report.ok
    assert any("column" in p for p in report.problems)
    # the gaussian drift away from unit norm is real but bounded
    norm = np.linalg.norm(propagate(spec, "gaussian"))
    assert abs(norm - 1.0) > 1e-6


def test_gaussian_error_shrinks_with_dt_at_fixed_dtheta():
    """Halving dt (and dx^2 with it) moves the gaussian kernel toward the
    exact one, entry by entry, in the strong-potential regime."""
    m = hbar = 1.0
    dt0 = 0.1
    dx0 = math.sqrt(2 * hbar * dt0 * 0.1 / m)  # dtheta = 0.1 throughout
    vpot = lambda x, t: 0.5 * 200.0 * x * x
    errors = []
    for halving in range(3):
        dt = dt0 / 2**halving
        dx = dx0 * math.sqrt(dt / dt0)
        spec = LatticeSpec.make(n_x=5, dx=dx, n_t=1, dt=dt, potential=vpot)
        assert abs(spec.delta_theta() - 0.1) < 1e-12
        diff = np.abs(
            step_amplitudes_exact(spec).matrix - step_amplitudes_gaussian(spec).matrix
        ).max()
        errors.append(diff)
    assert errors[0] > errors[1] > errors[2]


def test_build_refuses_oversized_state_spaces():
    spec = LatticeSpec.make(n_x=6, dx=0.5, n_t=9, dt=0.1)
    with pytest.raises(StateSpaceTooLarge):
        build_lattice_net(spec, "exact")
    with pytest.raises(InvalidParams):
        build_lattice_net(LatticeSpec.make(n_x=3, dx=0.5, n_t=2, dt=0.1), "magic")


@pytest.mark.parametrize("entry", [build_lattice_net, propagate])
@pytest.mark.parametrize("kernel", ["magic", None, ["exact"], {"a": 1}, {"exact"}])
def test_an_unknown_or_unhashable_kernel_is_refused(entry, kernel):
    spec = LatticeSpec.make(n_x=3, dx=0.5, n_t=2, dt=0.1)
    want = f"kernel must be one of ['exact', 'gaussian'], got {kernel!r}"
    with pytest.raises(InvalidParams) as err:
        entry(spec, kernel)
    assert str(err.value) == want


def test_potential_presets():
    v = potential_preset("free", length=2.0)
    assert v(0.7, 0.0) == 0.0
    v = potential_preset("harmonic", length=2.0, strength=4.0)
    assert v(1.0, 0.0) == 0.0
    assert v(0.0, 0.0) == pytest.approx(2.0)
    v = potential_preset("well", length=3.0, strength=9.0)
    assert v(1.5, 0.0) == 0.0
    assert v(1.0, 0.0) == 0.0 and v(2.0, 0.0) == 9.0  # the left edge is inside, the right not
    assert v(0.2, 0.0) == 9.0
    assert v(2.9, 0.0) == 9.0
    with pytest.raises(InvalidParams):
        potential_preset("cubic", length=1.0)


@pytest.mark.parametrize("name", ["dx", "dt", "mass", "hbar"])
def test_spec_refuses_a_zero_step_mass_or_hbar(name):
    args = dict(n_x=3, dx=1.0, n_t=1, dt=1.0, mass=1.0, hbar=1.0)
    args[name] = 0.0
    with pytest.raises(InvalidParams) as err:
        LatticeSpec.make(**args)
    assert str(err.value) == f"{name} must be positive"


@pytest.mark.parametrize("name", ["dx", "dt", "mass", "hbar"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_spec_rejects_non_finite_inputs(name, value):
    args = dict(n_x=3, dx=1.0, n_t=1, dt=1.0, mass=1.0, hbar=1.0)
    args[name] = value
    with pytest.raises(InvalidParams, match=f"^{name} must be"):
        LatticeSpec.make(**args)


@pytest.mark.parametrize("value", ["1", None, [1.0]], ids=["str", "none", "list"])
@pytest.mark.parametrize("field", ["dx", "dt", "mass", "hbar", "length", "total_time", "strength"])
def test_a_number_that_is_not_real_is_refused_naming_its_field(field, value):
    spec = dict(length=3.0, dx=1.0, n_x=3, total_time=1.0, dt=1.0, n_t=1)
    with pytest.raises(InvalidParams) as err:
        if field == "strength":
            potential_preset("harmonic", 3.0, value)
        elif field in ("length", "total_time"):
            LatticeSpec(**{**spec, field: value})
        else:  # make checks dx and dt before it multiplies them
            LatticeSpec.make(**{**dict(n_x=3, dx=1.0, n_t=1, dt=1.0), field: value})
    name = "potential strength" if field == "strength" else field
    assert str(err.value) == f"{name} must be a real number, got {value!r}"


def test_a_bool_is_a_real_number():
    assert LatticeSpec.make(1, True, 1, True, mass=True, hbar=True).length == 1
    assert potential_preset("harmonic", True, True) == potential_preset("harmonic", 1.0, 1.0)


@pytest.mark.parametrize("preset", ["free", "harmonic", "well"])
@pytest.mark.parametrize("strength", [math.inf, -math.inf, math.nan])
def test_potential_presets_reject_a_non_finite_strength(preset, strength):
    with pytest.raises(InvalidParams, match="strength must be finite"):
        potential_preset(preset, length=3.0, strength=strength)


@pytest.mark.parametrize("preset", ["free", "harmonic", "well"])
@pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf, -3.0, 0.0, "3.0", [3.0], None])
def test_potential_presets_refuse_a_length_that_is_not_finite_and_positive(preset, length):
    with pytest.raises(InvalidParams) as err:
        potential_preset(preset, length=length, strength=2.0)
    assert str(err.value) == f"potential length must be finite and positive, got {length!r}"


def test_equal_preset_arguments_give_one_function(monkeypatch, kernel_calls):
    a, b = potential_preset("harmonic", 3.0, 2.0), potential_preset("harmonic", 3, 2)
    assert a == b and hash(a) == hash(b)
    assert potential_preset("well", 3.0, 2.0) != potential_preset("well", 3.0, 2.5)
    zero = lattice.zero_potential
    monkeypatch.setattr(lattice, "zero_potential", lambda x, t: zero(x, t))  # as a tracer wraps it
    assert potential_preset("free", 3.0) == potential_preset("free", 4.0) == zero
    for length in (3.0, 4.0):
        build_lattice_net(LatticeSpec.make(3, 1.0, 2, 0.2, potential=potential_preset("free", length)))
    assert kernel_calls == [0.0]  # the second build's free preset keys the first one's matrix


@pytest.mark.parametrize("kernel", [step_amplitudes_exact, step_amplitudes_gaussian])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_step_kernels_reject_a_non_finite_potential(kernel, bad):
    spec = LatticeSpec.make(
        n_x=3, dx=1.0, n_t=1, dt=0.5, potential=lambda x, t: bad if x > 1 else 0.0
    )
    with pytest.raises(InvalidParams, match="potential is not finite at x=2, t=0"):
        kernel(spec)
    with pytest.raises(InvalidParams, match="potential is not finite"):
        propagate(spec, kernel=kernel)


def test_derived_step_quantities_are_checked():
    spec = LatticeSpec.make(n_x=3, dx=0.3, n_t=1, dt=0.7, mass=1.3, hbar=0.9)
    assert spec.hop() == 0.9**2 / (2.0 * 1.3 * 0.3**2)
    assert spec.delta_theta() == 1.3 * 0.3**2 / (2.0 * 0.9 * 0.7)
    # squares that under- or overflow: the hop term or dtheta leaves (0, inf)
    for args, method in (
        (dict(dx=1e-200), "hop"),
        (dict(hbar=1e200), "hop"),
        (dict(mass=1e-320), "hop"),
        (dict(dx=1e200), "delta_theta"),
        (dict(dx=1e-200), "delta_theta"),
        (dict(dt=1e-320), "delta_theta"),
    ):
        spec = LatticeSpec.make(**{**dict(n_x=3, dx=1.0, n_t=1, dt=1.0), **args})
        with pytest.raises(InvalidParams, match="must be finite and positive"):
            getattr(spec, method)()
        kernel = step_amplitudes_exact if method == "hop" else step_amplitudes_gaussian
        with pytest.raises(InvalidParams, match="must be finite and positive"):
            build_lattice_net(spec, kernel=kernel)


def test_step_amplitudes_must_be_finite():
    with pytest.raises(InvalidParams, match="step amplitudes must be finite"):
        StepAmplitude(np.array([[1.0, np.nan], [0.0, 1.0]]))
    spec = LatticeSpec.make(n_x=6, dx=1.0, n_t=2, dt=1e308)
    with pytest.raises(InvalidParams, match="step amplitudes must be finite"):
        propagate(spec)


def test_overflowing_step_products_are_refused():
    # each gaussian step matrix is finite, but three of them overflow the state
    spec = LatticeSpec.make(8, 1e150, 3, 1.0)
    for build in (propagate, build_lattice_net):
        with np.errstate(all="raise"):  # no overflow warning escapes either
            with pytest.raises(InvalidParams, match="the step amplitudes overflow them"):
                build(spec, "gaussian")
    # |psi|^2 overflows while psi stays finite
    with pytest.raises(InvalidParams, match="site probabilities must be finite"):
        propagate(LatticeSpec.make(8, 1e100, 2, 1.0), "gaussian")
    assert np.isfinite(propagate(LatticeSpec.make(8, 1e10, 3, 1.0), "gaussian")).all()


@pytest.mark.parametrize(
    "length, total_time, needle",
    [
        (math.inf, math.inf, "length"),
        (math.nan, 1.0, "length"),
        (-math.inf, 1.0, "length"),
        (3.0, math.inf, "total_time"),
        (3.0, math.nan, "total_time"),
    ],
)
def test_spec_refuses_non_finite_products(length, total_time, needle):
    with pytest.raises(InvalidParams, match=f"{needle} must equal"):
        LatticeSpec(length=length, dx=1.0, n_x=3, total_time=total_time, dt=1.0, n_t=1)


def test_spec_accepts_products_that_overflow_as_computed():
    # make() fills in n_t * dt = inf; the step kernels then refuse the spec
    spec = LatticeSpec.make(n_x=6, dx=1.0, n_t=2, dt=1e308)
    assert spec.total_time == math.inf


@pytest.fixture
def kernel_calls(monkeypatch):
    """The time t of every call to a built-in step kernel."""
    calls = []
    for name, kernel in list(lattice._KERNELS.items()):
        def counted(spec, t=0.0, kernel=kernel):
            calls.append(t)
            return kernel(spec, t)
        monkeypatch.setitem(lattice._KERNELS, name, counted)
    return calls


@pytest.mark.parametrize("kernel", ["exact", "gaussian"])
@pytest.mark.parametrize("preset", ["free", "harmonic", "well"])
def test_a_time_independent_potential_builds_one_step_matrix(kernel_calls, kernel, preset):
    spec = LatticeSpec.make(5, 1.0, 4, 0.2, potential=potential_preset(preset, 5.0, 2.0))
    net = build_lattice_net(spec, kernel)
    assert kernel_calls == [0.0]
    step = {"exact": step_amplitudes_exact, "gaussian": step_amplitudes_gaussian}[kernel]
    for i in range(2, 5):  # bit for bit the per-step kernel output
        assert np.array_equal(net.table(f"t{i}"), step(spec, (i - 1) * spec.dt).matrix)


@pytest.mark.parametrize("kernel", ["exact", "gaussian"])
def test_a_time_dependent_potential_runs_the_kernel_at_every_step(kernel_calls, kernel):
    spec = LatticeSpec.make(5, 1.0, 4, 0.2, potential=lambda x, t: t * x)
    net = build_lattice_net(spec, kernel)
    assert kernel_calls == [i * 0.2 for i in range(4)]
    step = {"exact": step_amplitudes_exact, "gaussian": step_amplitudes_gaussian}[kernel]
    psi = np.eye(5, dtype=complex)[0]
    for i in range(4):
        psi = step(spec, i * spec.dt).matrix @ psi
    np.testing.assert_allclose(list(external_amplitude_map(net).values()), psi, atol=1e-12)
    tables = [net.table(f"t{i}") for i in range(2, 5)]
    assert not any(np.allclose(a, b) for a, b in zip(tables, tables[1:]))


@pytest.fixture
def samples(monkeypatch):
    """(t, number of sites) for every sampling of the potential."""
    calls = []
    def counted(spec, t, sample=lattice._potential_values):
        v = sample(spec, t)
        calls.append((t, len(v)))
        return v
    monkeypatch.setattr(lattice, "_potential_values", counted)
    return calls


@pytest.mark.parametrize("kernel", ["exact", "gaussian"])
@pytest.mark.parametrize("preset", ["free", "harmonic", "well"])
def test_a_preset_potential_is_sampled_once_per_site(samples, kernel, preset):
    spec = LatticeSpec.make(5, 1.0, 4, 0.2, potential=potential_preset(preset, 5.0))
    build_lattice_net(spec, kernel)
    assert samples == [(0.0, 5)]
    samples.clear()
    propagate(spec, kernel)  # the same Hamiltonian: its step matrix is kept
    assert samples == []


@pytest.mark.parametrize("kernel", ["exact", "gaussian"])
@pytest.mark.parametrize("potential", [lambda x, t: t * x, lambda x, t: x],
                         ids=["time-dependent", "unmarked-static"])
def test_a_user_potential_is_sampled_at_every_step(samples, kernel, potential):
    spec = LatticeSpec.make(5, 1.0, 4, 0.2, potential=potential)
    build_lattice_net(spec, kernel)
    assert sorted(set(samples)) == [(i * 0.2, 5) for i in range(4)]


@pytest.mark.parametrize("kernel", ["exact", "gaussian"])
def test_a_wrapped_preset_is_sampled_at_every_step(samples, kernel):
    preset = potential_preset("harmonic", 5.0)

    @functools.wraps(preset)
    def drifting(x, t):
        return preset(x, t) + t

    net = build_lattice_net(LatticeSpec.make(5, 1.0, 4, 0.2, potential=drifting), kernel)
    assert sorted(set(samples)) == [(i * 0.2, 5) for i in range(4)]
    plain = LatticeSpec.make(5, 1.0, 4, 0.2, potential=lambda x, t: preset(x, t) + t)
    want = build_lattice_net(plain, kernel)
    for i in range(1, 5):
        assert np.array_equal(net.table(f"t{i}"), want.table(f"t{i}"))
    assert not np.allclose(net.table("t3"), net.table("t4"))


def test_a_user_kernel_runs_once_per_step():
    times = []

    def kernel(spec, t):
        times.append(t)
        return step_amplitudes_exact(spec, t)

    spec = LatticeSpec.make(3, 1.0, 4, 0.5)
    propagate(spec, "exact")  # a kept built-in matrix of the same Hamiltonian changes nothing
    propagate(spec, kernel)
    assert times == [0.0, 0.5, 1.0, 1.5]


@pytest.mark.parametrize(
    "kernel, dx, message",
    [
        ("exact", 1e-200, "hop term hbar^2/(2 m dx^2) must be finite and positive, got inf"),
        ("gaussian", 1e200, "dtheta = m dx^2/(2 hbar dt) must be finite and positive, got inf"),
    ],
)
def test_the_kernel_checks_speak_before_the_potential(kernel, dx, message):
    preset = potential_preset("harmonic", 3 * dx)
    # the same values from a plain function, sampled at every step: (x - 1.5 dx)**2
    # overflows a Python float at dx = 1e200
    plain = lambda x, t, center=1.5 * dx: 0.5 * (x - center) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for potential in (preset, plain):
            spec = LatticeSpec.make(3, dx, 3, 1.0, potential=potential)
            for build in (build_lattice_net, propagate):
                with pytest.raises(InvalidParams) as err:
                    build(spec, kernel)
                assert str(err.value) == message


def _loop_hamiltonian(spec, t):
    """The three-point Hamiltonian written site by site: the reference form."""
    hop, n = spec.hop(), spec.n_x
    v = lattice._potential_values(spec, t)
    h = np.zeros((n, n))
    for s in range(n):
        h[s, s] += 2.0 * hop + v[s]
        h[s, (s + 1) % n] -= hop
        h[s, (s - 1) % n] -= hop
    return h


# at n_x = 1 with dx 0.45 and strength 2, (2 hop + V - hop) - hop and
# 2 hop + V - 2 hop differ in the last bit, so the subtraction order shows
@pytest.mark.parametrize("n_x", [1, 2, 3, 32])
@pytest.mark.parametrize("preset", ["free", "harmonic", "well"])
@pytest.mark.parametrize("dx, strength", [(0.7, 1.3), (0.45, 2.0)])
def test_the_hamiltonian_is_bitwise_the_site_by_site_form(n_x, preset, dx, strength):
    spec = LatticeSpec.make(n_x, dx, 3, 0.2, potential=potential_preset(preset, n_x * dx, strength))
    for t in spec.times():
        got, want = lattice._hamiltonian(spec, t), _loop_hamiltonian(spec, t)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_x, n_t", [(3, 1), (4, 3), (6, 5)])
def test_a_build_hashes_the_one_hot_list_once(monkeypatch, n_x, n_t):
    from qbnet import core

    spec = LatticeSpec.make(n_x, 1.0, n_t, 0.2, potential=potential_preset("harmonic", n_x, 1.0))
    lattice._chain.cache_clear()
    build_lattice_net(LatticeSpec.make(2, 1.0, 2, 0.2))  # another list was looked up last
    lookups, shared = [], core._shared
    monkeypatch.setattr(core, "_shared", lambda states: lookups.append(states) or shared(states))
    net = build_lattice_net(spec)
    assert len(lookups) == 2  # the root's one state, then the slices' one-hot list
    assert {id(net.space._lists[f"t{i}"]) for i in range(1, n_t + 1)} == {id(shared(lookups[1]))}
    again = build_lattice_net(spec)  # a seen n_x looks nothing up
    assert len(lookups) == 2 and again.space is net.space
    matrices, _ = lattice._step_matrices(spec, "exact")
    for i, alpha in enumerate(matrices, start=1):  # bit for bit the step matrices
        want = alpha[:, [0]] if i == 1 else alpha
        assert net.table(f"t{i}").tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("kernel", ["exact", "gaussian"])
def test_a_built_in_kernel_runs_once_per_hamiltonian(kernel_calls, kernel):
    step = {"exact": step_amplitudes_exact, "gaussian": step_amplitudes_gaussian}[kernel]
    rng = np.random.default_rng(18)
    for _ in range(12):
        n_x, n_t = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        dx, dt = float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.05, 0.5))
        mass, hbar = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        preset, strength = str(rng.choice(["free", "harmonic", "well"])), float(rng.uniform(0, 3))

        def make(n_t, plain=False):
            potential = potential_preset(preset, n_x * dx, strength)
            if plain:  # equal values from a function that is not a preset
                potential = lambda x, t, v=potential: v(x, t)
            return LatticeSpec.make(n_x, dx, n_t, dt, mass, hbar, potential)

        want = step(make(1), 0.0).matrix  # the public kernel, cold
        kernel_calls.clear()
        nets = [build_lattice_net(make(n_t), kernel)]
        assert kernel_calls == [0.0]
        nets += [build_lattice_net(make(n_t), kernel), build_lattice_net(make(n_t + 2), kernel)]
        np.testing.assert_array_equal(propagate(make(n_t + 3), kernel),
                                      propagate(make(n_t + 3), step))
        assert kernel_calls == [0.0]  # an equal spec, and other n_t, run no kernel
        nets.append(build_lattice_net(make(n_t + 1, plain=True), kernel))
        nets.append(build_lattice_net(make(n_t + 1, plain=True), kernel))
        assert kernel_calls == [0.0] * 3  # another potential: one run per build, not kept
        for net in nets:
            assert net.table("t1").tobytes() == np.ascontiguousarray(want[:, [0]]).tobytes()
            for i in range(2, int(net.meta["n_t"]) + 1):
                assert net.table(f"t{i}").tobytes() == want.tobytes()
        for matrix in lattice._step_matrices(make(n_t + 1), kernel)[0]:  # the kept matrix
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 0.0
    assert kernel_calls == [0.0] * 3 and lattice._step_matrix.cache_info().currsize == 12


def test_a_chains_later_slices_share_one_read_only_factor():
    net = build_lattice_net(LatticeSpec.make(4, 1.0, 10, 0.2,
                                             potential=potential_preset("well", 4.0, 1.0)))
    assert len({id(net.factor(f"t{i}")) for i in range(2, 11)}) == 1
    assert net.factor("t1") is not net.factor("t2")  # the root offers one parent state
    for node in net.graph.nodes:
        with pytest.raises(ValueError, match="read-only"):
            net.factor(node)[...] = 0.0


def test_the_final_amplitudes_are_kept_per_step_matrix_and_n_t(kernel_calls):
    preset = potential_preset("harmonic", 5.0, 1.5)

    def make(n_t):
        return LatticeSpec.make(5, 1.0, n_t, 0.2, potential=preset)

    def user(spec, t):  # a user-supplied kernel: nothing is kept
        return step_amplitudes_exact(spec, t)

    for n_t in (1, 2, 3, 2, 1):
        assert propagate(make(n_t)).tobytes() == propagate(make(n_t), user).tobytes()
    info = lattice._final_amplitudes.cache_info()
    assert (info.currsize, info.hits) == (3, 2) and kernel_calls == [0.0]


def test_a_mutated_propagation_changes_no_later_propagation_or_build():
    spec = LatticeSpec.make(6, 1.0, 3, 0.2, potential=potential_preset("well", 6.0, 2.0))
    first = propagate(spec)
    want = first.copy()
    first[:] = np.nan  # the caller's array is its own
    again = propagate(spec)
    assert again.tobytes() == want.tobytes() and again.flags.writeable
    net = build_lattice_net(spec)
    amps = external_amplitude_map(net)
    got = [abs(amps[tuple(int(s == r) for r in range(6))]) ** 2 for s in range(6)]
    np.testing.assert_allclose(got, np.abs(want) ** 2, atol=1e-12)


def test_each_part_of_the_hamiltonian_keys_its_step_matrix():
    base = dict(n_x=4, dx=0.5, n_t=2, dt=0.2, mass=1.0, hbar=1.0, strength=1.0)
    changes = [{}, {"n_x": 5}, {"dx": 0.6}, {"dt": 0.3}, {"mass": 1.5}, {"hbar": 0.8}, {"strength": 2.0}]
    for kernel, step in (("exact", step_amplitudes_exact), ("gaussian", step_amplitudes_gaussian)):
        for change in changes:  # one memo, warm from the specs before
            args = {**base, **change}
            potential = potential_preset("harmonic", 2.0, args.pop("strength"))
            spec = LatticeSpec.make(**args, potential=potential)
            assert propagate(spec, kernel).tobytes() == propagate(spec, step).tobytes()
    assert lattice._step_matrix.cache_info().currsize == 2 * len(changes)


def test_the_step_memo_keeps_its_128_most_recently_used_matrices(kernel_calls):
    memo = lattice._step_matrix
    specs = [LatticeSpec.make(2, 0.1 + i / 256, 1, 0.2) for i in range(129)]
    assert memo.cache_parameters()["maxsize"] == 128
    for spec in specs[:128]:
        propagate(spec, "exact")
    propagate(specs[0], "exact")  # the first is now the most recently used
    propagate(specs[128], "exact")  # one past the bound: the second goes
    assert len(kernel_calls) == 129 and memo.cache_info().currsize == 128
    propagate(specs[0], "exact")
    assert len(kernel_calls) == 129
    propagate(specs[1], "exact")
    assert len(kernel_calls) == 130 and memo.cache_info().currsize == 128


@pytest.mark.parametrize("kernel", ["exact", "gaussian"])
def test_a_preset_chain_past_32_sites_is_not_kept(kernel_calls, kernel):
    step = {"exact": step_amplitudes_exact, "gaussian": step_amplitudes_gaussian}[kernel]
    potential = potential_preset("harmonic", 33 * 0.5, 2.0)
    spec = LatticeSpec.make(33, 0.5, 3, 0.2, potential=potential)
    nets = [build_lattice_net(spec, kernel) for _ in range(2)]
    assert kernel_calls == [0.0, 0.0]  # once per build, not across them
    assert lattice._step_matrix.cache_info().currsize == 0
    want = step(spec, 0.0).matrix
    for net in nets:
        assert net.table("t1").tobytes() == np.ascontiguousarray(want[:, [0]]).tobytes()
        for i in range(2, 4):
            assert net.table(f"t{i}").tobytes() == step(spec, (i - 1) * spec.dt).matrix.tobytes()
    assert propagate(spec, kernel).tobytes() == propagate(spec, step).tobytes()
    kernel_calls.clear()
    for _ in range(2):  # at 32 sites it is kept
        build_lattice_net(LatticeSpec.make(32, 0.5, 3, 0.2, potential=potential), kernel)
    assert kernel_calls == [0.0] and lattice._step_matrix.cache_info().currsize == 1


def test_a_kept_step_matrix_still_checks_the_site_probabilities(kernel_calls):
    # |psi|^2 is finite after one step and overflows after two
    assert np.isfinite(propagate(LatticeSpec.make(8, 1e100, 1, 1.0), "gaussian")).all()
    for build in (propagate, build_lattice_net):
        with pytest.raises(InvalidParams, match="site probabilities must be finite"):
            build(LatticeSpec.make(8, 1e100, 2, 1.0), "gaussian")
    assert kernel_calls == [0.0]
