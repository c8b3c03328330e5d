import cmath
import itertools
import math

import numpy as np
import pytest

from qbnet.errors import DegeneratePhase, InvalidParams
from qbnet.spin import (
    MAGNET_STATES,
    InitialWavefunction,
    SpinDirection,
    SpinState,
    consistency_phase,
    marginalizer_table,
    overlap,
    phase_shifter_table,
    singlet_overlap_check,
    spin_state,
    stern_gerlach_table,
)

Z = SpinDirection(0.0, label="z")
U = SpinDirection(math.pi / 5, label="u")


def test_z_basis_states():
    plus = spin_state(Z, "+")
    minus = spin_state(Z, "-")
    assert (plus.up, plus.down) == (1.0, 0.0)
    assert (minus.up, minus.down) == (0.0, 1.0)
    with pytest.raises(InvalidParams):
        spin_state(Z, "x")


def test_overlap_hand_values():
    assert overlap(U, "+", Z, "+") == pytest.approx(0.9510565162951535, abs=1e-15)
    assert overlap(U, "+", Z, "-") == pytest.approx(0.30901699437494745, abs=1e-15)
    assert overlap(U, "-", Z, "+") == pytest.approx(-0.30901699437494745, abs=1e-15)
    assert overlap(U, "-", Z, "-") == pytest.approx(0.9510565162951535, abs=1e-15)
    # same direction: orthonormal pair
    assert overlap(U, "+", U, "+") == pytest.approx(1.0, abs=1e-15)
    assert overlap(U, "+", U, "-") == pytest.approx(0.0, abs=1e-15)


def test_overlap_half_angle_formulas():
    rng = np.random.default_rng(7)
    for _ in range(30):
        t1, t2 = rng.uniform(-6, 6, size=2)
        d1, d2 = SpinDirection(t1), SpinDirection(t2)
        half = (t2 - t1) / 2
        assert overlap(d2, "+", d1, "+") == pytest.approx(math.cos(half), abs=1e-12)
        assert overlap(d2, "-", d1, "-") == pytest.approx(math.cos(half), abs=1e-12)
        assert overlap(d2, "+", d1, "-") == pytest.approx(math.sin(half), abs=1e-12)
        assert overlap(d2, "-", d1, "+") == pytest.approx(-math.sin(half), abs=1e-12)


def test_overlap_matrix_unitary_with_azimuth():
    rng = np.random.default_rng(8)
    for _ in range(20):
        t1, p1, t2, p2 = rng.uniform(-6, 6, size=4)
        d1 = SpinDirection(t1, p1)
        d2 = SpinDirection(t2, p2)
        m = np.array(
            [
                [overlap(d2, "+", d1, "+"), overlap(d2, "+", d1, "-")],
                [overlap(d2, "-", d1, "+"), overlap(d2, "-", d1, "-")],
            ]
        )
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_change_of_basis_matrix_entries():
    # the operator change-of-basis matrix [[C, S], [-S, C]] (azimuth 0)
    # must reappear as the magnet table's scattering amplitudes
    for theta in (0.0, math.pi / 5, math.pi / 3, 1.234):
        d = SpinDirection(theta)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        want = np.array([[c, s], [-s, c]])
        got = np.array(
            [
                [overlap(d, "+", Z, "+"), overlap(d, "+", Z, "-")],
                [overlap(d, "-", Z, "+"), overlap(d, "-", Z, "-")],
            ]
        )
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_stern_gerlach_single_input():
    table = stern_gerlach_table(U, [(Z, "+")])
    assert table((0, 0), ((0,),)) == 1.0
    assert table((0, 1), ((0,),)) == 0.0
    assert table((0, 1), ((1,),)) == pytest.approx(math.cos(math.pi / 10))
    assert table((1, 0), ((1,),)) == pytest.approx(-math.sin(math.pi / 10))
    assert table((0, 0), ((1,),)) == 0.0
    with pytest.raises(InvalidParams):
        table((0, 0), ((0,), (1,)))


def test_stern_gerlach_two_inputs_and_column_norms():
    v = SpinDirection(math.pi / 3, label="v")
    table = stern_gerlach_table(v, [(Z, "-"), (Z, "+")])
    # second mode occupied: amplitudes come from that mode's direction
    assert table((0, 1), ((0,), (1,))) == pytest.approx(overlap(v, "+", Z, "+"))
    assert table((1, 0), ((0,), (1,))) == pytest.approx(overlap(v, "-", Z, "+"))
    # double occupation is unreachable; passthrough keeps the column normalized
    assert table((0, 0), ((1,), (1,))) == 1.0
    for combo in itertools.product(((0,), (1,)), repeat=2):
        norm = sum(abs(table(st, combo)) ** 2 for st in MAGNET_STATES)
        assert norm == pytest.approx(1.0, abs=1e-12)


def test_stern_gerlach_vector_parent_and_phases():
    # one parent whose state is a full (n_minus, n_plus) pair: two modes
    u = SpinDirection(math.pi / 5)
    v = SpinDirection(math.pi / 3)
    phase = cmath.exp(0.4j)
    table = stern_gerlach_table(u, [(v, "-"), (v, "+")], phases=[1.0, phase])
    assert table((0, 1), ((0, 1),)) == pytest.approx(phase * overlap(u, "+", v, "+"))
    assert table((0, 1), ((1, 0),)) == pytest.approx(overlap(u, "+", v, "-"))
    for parent_state in MAGNET_STATES:
        norm = sum(abs(table(st, (parent_state,))) ** 2 for st in MAGNET_STATES)
        assert norm == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidParams):
        stern_gerlach_table(u, [(v, "-")], phases=[1.0, 1.0])


def test_marginalizer_table():
    m = marginalizer_table(1, 2)
    assert m((1,), ((1, 0),)) == 1.0
    assert m((0,), ((1, 0),)) == 0.0
    assert m((0,), ((0, 1),)) == 1.0
    m2 = marginalizer_table(2, 2)
    assert m2((1,), ((0, 1),)) == 1.0
    ident = marginalizer_table(1, 1)
    assert ident((0,), ((0,),)) == 1.0 and ident((1,), ((0,),)) == 0.0
    with pytest.raises(InvalidParams):
        marginalizer_table(0, 2)
    with pytest.raises(InvalidParams):
        marginalizer_table(3, 2)
    with pytest.raises(InvalidParams):
        m((0,), ((0, 1, 0),))


def test_phase_shifter_table():
    ident = phase_shifter_table(0.0)
    assert ident((1,), ((1,),)) == 1.0
    assert ident((0,), ((1,),)) == 0.0
    shift = phase_shifter_table(3 * math.pi / 4)
    val = shift((1,), ((1,),))
    assert val == pytest.approx(cmath.exp(0.75j * math.pi))
    assert abs(val) == pytest.approx(1.0, abs=1e-15)
    assert abs(shift((0,), ((0,),))) == 1.0


def test_consistency_phase():
    psi = InitialWavefunction((1 + 1j) / 2, 2**-0.5)
    got = consistency_phase(psi)
    assert got == pytest.approx(cmath.exp(0.75j * math.pi), abs=1e-15)
    both_real = InitialWavefunction(0.6, 0.8)
    assert consistency_phase(both_real) == pytest.approx(1j)
    with pytest.raises(DegeneratePhase):
        consistency_phase(InitialWavefunction(0.0, 1.0))


def test_consistency_phase_at_a_complex_psi10():
    # i psi01 conj(psi10) / |psi01 psi10|: psi01 / psi10 would turn psi10's phase the other way
    for theta in (math.pi / 2, math.pi / 3, -2.0):
        psi = InitialWavefunction(0.6, 0.8 * cmath.exp(1j * theta))
        assert consistency_phase(psi) == pytest.approx(1j * cmath.exp(-1j * theta), abs=1e-15)


def test_wavefunction_validation_and_amplitudes():
    psi = InitialWavefunction((1 + 1j) / 2, 2**-0.5)
    assert psi.amplitude((0, 1)) == (1 + 1j) / 2
    assert psi.amplitude((1, 0)) == 2**-0.5
    assert psi.amplitude((0, 0)) == 0.0
    with pytest.raises(InvalidParams):
        InitialWavefunction(1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, complex(math.nan, 0.0), math.inf])
def test_non_finite_amplitudes_fail_the_norm_checks(bad):
    with pytest.raises(InvalidParams):
        InitialWavefunction(bad, 2**-0.5)
    with pytest.raises(InvalidParams):
        InitialWavefunction(2**-0.5, bad)
    with pytest.raises(InvalidParams):
        SpinState(bad, 0.0)
    with pytest.raises(InvalidParams):
        SpinState(0.0, bad)


def test_singlet_rotation_invariance():
    assert singlet_overlap_check(Z, U) == pytest.approx(1.0, abs=1e-12)
    assert singlet_overlap_check(U, U) == pytest.approx(1.0, abs=1e-12)
    assert singlet_overlap_check(SpinDirection(math.pi / 3), Z) == pytest.approx(
        1.0, abs=1e-12
    )
    rng = np.random.default_rng(9)
    for _ in range(20):
        t1, p1, t2, p2 = rng.uniform(-6, 6, size=4)
        got = singlet_overlap_check(SpinDirection(t1, p1), SpinDirection(t2, p2))
        assert got == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("huge", [1e200, complex(1.7e308, 1.7e308), 1e308, 10**400])
def test_huge_amplitudes_fail_the_norm_checks_without_overflow(huge):
    # abs(x) ** 2, and abs itself for the complex value, raise OverflowError
    with pytest.raises(InvalidParams, match="is inf, not 1"):
        SpinState(huge, 0)
    with pytest.raises(InvalidParams, match="is inf, not 1"):
        SpinState(0.0, huge)
    with pytest.raises(InvalidParams, match="is inf, not 1"):
        InitialWavefunction(huge, 0.0)
    # the tolerance is unchanged
    SpinState(0.6, 0.8 + 1e-13)
    with pytest.raises(InvalidParams):
        SpinState(0.6, 0.8 + 1e-11)
