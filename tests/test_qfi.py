from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_sylvester

from conftest import random_mixed_bloch_vector
from qldp import bloch, channels
from qldp.exceptions import InvalidInputError, NotAStateError
from qldp.qfi import (
    StateFamily,
    family_by_name,
    family_derivative,
    qfi_family,
    qfi_qubit,
    qfi_qudit,
    qfi_sld_oracle,
    qubit_qfi_kernel,
    radial_family,
    rotation_family,
    scaled_rotation_family,
    table_family,
)


def drho_from(dw, d=2):
    return 0.5 * np.tensordot(dw, bloch.generators(d), axes=(0, 0))


def test_rotation_family_unit_fisher():
    fam = rotation_family()
    for lam in (0.0, 0.7, 2.1):
        res = qfi_qubit(fam.omega_of(lam), fam.d_omega_of(lam))
        assert res.branch == "boundary"
        assert abs(res.value - 1.0) < 1e-12


def test_radial_family_value():
    fam = radial_family()
    res = qfi_qubit(fam.omega_of(0.6), fam.d_omega_of(0.6))
    assert res.branch == "interior"
    assert abs(res.value - 1.5625) < 1e-12


def test_center_state_drops_inner_term(rng):
    dw = rng.standard_normal(3)
    res = qfi_qubit(np.zeros(3), dw)
    assert abs(res.value - dw @ dw) < 1e-12


def test_qubit_rejects_outside_ball():
    with pytest.raises(NotAStateError):
        qfi_qubit(np.array([0.0, 0.0, 1.1]), np.zeros(3))


@pytest.mark.parametrize("w, dw", [
    ([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([0.1, 0.0, 0.0], [np.nan, 0.0, 0.0]),
    ([0.1, 0.0, 0.0], [np.inf, 0.0, 0.0]),
], ids=["w-nan", "w-inf", "dw-nan", "dw-inf"])
def test_qubit_rejects_non_finite_input(w, dw):
    with pytest.raises(InvalidInputError):
        qfi_qubit(np.array(w), np.array(dw))


def test_qudit_matches_qubit_closed_form(rng):
    for _ in range(1000):
        w = random_mixed_bloch_vector(2, rng) * 0.999
        dw = rng.standard_normal(3)
        f1 = qfi_qubit(w, dw).value
        f2 = qfi_qudit(2, w, dw).value
        assert abs(f1 - f2) <= 1e-10 * max(1.0, f1)


def test_qudit_mixed_point_factor():
    for d in (2, 3, 4):
        n = d * d - 1
        dw = np.zeros(n)
        dw[0] = 1.0
        res = qfi_qudit(d, np.zeros(n), dw)
        assert abs(res.value - d / 2.0) < 1e-12


def test_qudit_agrees_with_sld_oracle(rng):
    for d in (3, 4):
        for _ in range(100):
            w = random_mixed_bloch_vector(d, rng) * 0.9
            dw = 0.5 * rng.standard_normal(d * d - 1)
            f = qfi_qudit(d, w, dw).value
            oracle = qfi_sld_oracle(bloch.to_density(w, d), drho_from(dw, d))
            assert abs(f - oracle) <= 1e-8 * max(1.0, f)


def test_sld_oracle_radial_value():
    fam = radial_family()
    rho = bloch.to_density(fam.omega_of(0.6))
    assert abs(qfi_sld_oracle(rho, drho_from(fam.d_omega_of(0.6))) - 1.5625) \
        < 1e-10


def test_sld_oracle_zero_derivative():
    rho = bloch.to_density(np.array([0.0, 0.0, 0.4]))
    assert qfi_sld_oracle(rho, np.zeros((2, 2))) == 0.0


def test_sld_oracle_rejects_traceful_derivative():
    rho = np.eye(2) / 2
    with pytest.raises(InvalidInputError):
        qfi_sld_oracle(rho, np.eye(2))


@pytest.mark.parametrize("rho, drho", [
    ([[np.nan, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, -0.5]]),
    ([[0.5, 0.0], [0.0, 0.5]], [[np.nan, 0.0], [0.0, 0.0]]),
], ids=["rho-nan", "drho-nan"])
def test_sld_oracle_rejects_non_finite_input(rho, drho):
    with pytest.raises(InvalidInputError):
        qfi_sld_oracle(np.array(rho), np.array(drho))


def test_rank_deficient_qutrit_gets_the_support_value():
    # rank-2 qutrit state strictly inside the outer sphere, moving inside
    # its support: the embedded qubit closed form
    rho = np.diag([0.7, 0.3, 0.0]).astype(complex)
    w = bloch.from_density(rho)
    assert np.linalg.norm(w) < bloch.max_radius(3) - 1e-3
    dw = np.zeros(8)
    dw[0] = 1.0  # the (0, 1) symmetric generator
    res = qfi_qudit(3, w, dw)
    assert res.branch == "interior"
    expected = qfi_qubit(np.array([0.0, 0.0, 0.4]), np.array([1.0, 0.0, 0.0]))
    assert abs(expected.value - 1.0) < 1e-15
    assert abs(res.value - expected.value) < 1e-12


def test_qudit_rejects_non_states_and_bad_shapes():
    with pytest.raises(NotAStateError):  # inside the outer sphere
        qfi_qudit(3, np.r_[np.zeros(7), 0.9], np.ones(8))
    with np.errstate(invalid="ignore"), pytest.raises(NotAStateError):
        qfi_qudit(3, np.full(8, np.nan), np.ones(8))
    for w, dw in ((np.zeros(3), np.ones(8)),
                  (np.zeros(8), np.r_[np.inf, np.zeros(7)])):
        with pytest.raises(InvalidInputError):
            qfi_qudit(3, w, dw)


def test_qudit_boundary_branch_checks_the_state(rng):
    # on or past the outer sphere but not states: ||w|| = 1.2 > r_3, and
    # r_3 e_8 (rho = diag(2/3, 2/3, -1/3))
    for w in (np.r_[1.2, np.zeros(7)], bloch.max_radius(3) * np.eye(8)[7]):
        with pytest.raises(NotAStateError):
            qfi_qudit(3, w, np.ones(8))
    for d in (3, 4):
        w = bloch.random_bloch_vector(d, rng)
        dw = rng.standard_normal(d * d - 1)
        res = qfi_qudit(d, w, dw)
        assert res.branch == "boundary"
        assert res.value == float(dw @ dw)


def _sylvester_qfi(rho, drho):
    """Tr(rho L^2) with the SLD L solved from rho L + L rho = 2 drho."""
    L = solve_sylvester(rho, rho, 2.0 * drho)
    return float(np.trace(rho @ L @ L).real)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_qudit_agrees_with_sylvester_sld(rng, d):
    for _ in range(50):
        w = random_mixed_bloch_vector(d, rng)
        dw = rng.standard_normal(d * d - 1)
        f = qfi_qudit(d, w, dw).value
        oracle = _sylvester_qfi(bloch.to_density(w, d), drho_from(dw, d))
        assert abs(f - oracle) <= 1e-10 * oracle


def test_qudit_at_max_dim_is_commuting_closed_form_and_small():
    # axis-1 moves along a generator that commutes with the state:
    # F = sum (mu/2)^2 / (1/d + lam mu/2) over its spectrum mu
    d, lam = bloch.MAX_DIM, 0.1
    mu = np.linalg.eigvalsh(bloch.generators(d)[0])
    expected = float(np.sum((mu / 2) ** 2 / (1 / d + lam * mu / 2)))
    assert abs(expected - 200 / 9) < 1e-12
    tracemalloc.start()
    try:
        res = qfi_family(family_by_name("axis-1", d=d), lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(res.value - expected) < 1e-12 * expected
    assert peak < 50e6


def test_family_derivative_linear_family_exact():
    fam = radial_family()
    for lam in (-0.4, 0.0, 0.8):
        assert np.allclose(family_derivative(fam, lam),
                           np.array([0.0, 0.0, 1.0]), atol=1e-10)


def test_family_derivative_rotation_at_zero():
    fam = StateFamily(d=2,
                      omega_of=lambda lam: np.array([np.sin(lam), 0.0,
                                                     np.cos(lam)]),
                      label="rotation-numeric")
    assert np.max(np.abs(fam.point(0.0)[1] - np.array([1.0, 0.0, 0.0]))) \
        < 1e-9


def test_family_derivative_taylor_remainder():
    fam = scaled_rotation_family(0.8)
    h = 1e-3
    for lam in (0.2, 1.0):
        num = family_derivative(fam, lam, h)
        ana = fam.d_omega_of(lam)
        assert np.max(np.abs(num - ana)) < 10.0 * h * h


def test_family_derivative_domain_violation():
    fam = radial_family()
    with pytest.raises(InvalidInputError):
        family_derivative(fam, 0.9999999, 1e-5)


def test_qfi_zero_iff_zero_derivative(rng):
    w = 0.5 * random_mixed_bloch_vector(2, rng)
    assert qfi_qubit(w, np.zeros(3)).value == 0.0
    dw = rng.standard_normal(3)
    assert qfi_qubit(w, dw).value > 0.0


def test_interior_values_diverge_toward_pure_boundary():
    # no silent clamping below the boundary threshold
    fam = radial_family()
    dw = np.array([0.0, 0.0, 1.0])
    prev = 0.0
    for r in (0.9, 0.99, 0.999, 1.0 - 1e-6):
        res = qfi_qubit(np.array([0.0, 0.0, r]), dw)
        assert res.branch == "interior"
        assert res.value > prev
        prev = res.value
    assert prev > 1e5
    on_boundary = qfi_qubit(np.array([0.0, 0.0, 1.0]), dw)
    assert on_boundary.branch == "boundary"
    assert abs(on_boundary.value - 1.0) < 1e-12


def test_qubit_kernel_is_exact_near_the_pure_boundary():
    # 1 - ||w|| from 1e-9 to 1e-6: forming 1 - r r from r = sqrt(ww) instead
    # of 1 - ww put the value 1.3e-8 relative off at 1 - ww ~ 9e-9
    rng = np.random.default_rng(44)
    for gap in np.geomspace(1.1e-9, 1e-6, 60):
        u = rng.standard_normal(3)
        w = (1.0 - gap) * u / np.linalg.norm(u)
        dw = rng.standard_normal(3)
        ww, dd, wd = float(w @ w), float(dw @ dw), float(w @ dw)
        value, branch = qubit_qfi_kernel(ww, dd, wd)
        assert branch == "interior"
        exact = Fraction(dd) + Fraction(wd) ** 2 / (1 - Fraction(ww))
        assert abs(Fraction(value) - exact) <= Fraction(1e-14) * exact, gap


def test_depolarizing_monotonicity_and_floor(rng):
    # F(E(rho)) <= F(rho) and F(E(rho)) >= (1-p)^2 ||dw||^2
    fam = radial_family()
    lam = 0.6
    w, dw = fam.omega_of(lam), fam.d_omega_of(lam)
    base = qfi_qubit(w, dw).value
    for eps in (0.2, 0.8, 1.5):
        ch = channels.depolarizing(2, eps)
        shrink = ch.A[0, 0]
        out = qfi_qubit(ch.A @ w + ch.c, ch.A @ dw).value
        assert out <= base + 1e-12
        assert out >= shrink ** 2 * float(dw @ dw) - 1e-12


def test_axis_family_qutrit_cross_oracle():
    fam = family_by_name("axis-1", d=3)
    lam = 0.3
    w, dw = fam.omega_of(lam), fam.d_omega_of(lam)
    f = qfi_qudit(3, w, dw).value
    oracle = qfi_sld_oracle(bloch.to_density(w, 3), drho_from(dw, 3))
    assert abs(f - oracle) < 1e-8


def test_qfi_family_dispatch():
    assert abs(qfi_family(radial_family(), 0.6).value - 1.5625) < 1e-12
    assert qfi_family(family_by_name("axis-1", d=3), 0.2).value > 0.0


def test_table_family_interpolation(tmp_path):
    lam = np.linspace(-0.9, 0.9, 25)
    rows = np.column_stack([lam, np.zeros_like(lam), np.zeros_like(lam), lam])
    path = tmp_path / "radial.csv"
    np.savetxt(path, rows, delimiter=",")
    fam = table_family(path, d=2)
    assert np.max(np.abs(fam.omega_of(0.6) - np.array([0.0, 0.0, 0.6]))) < 1e-9
    assert np.max(np.abs(fam.point(0.3)[1] - np.array([0.0, 0.0, 1.0]))) \
        < 1e-6


def test_point_is_the_family_input_boundary():
    fam = radial_family()
    for lam in (float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            qfi_family(fam, lam)
    with pytest.raises(NotAStateError):
        qfi_family(fam, 1.5)
    with pytest.raises(NotAStateError):
        qfi_family(family_by_name("axis-8", d=3), 0.9)
    w, dw = fam.point(1.0)  # the pure boundary is a state
    assert np.array_equal(w, [0.0, 0.0, 1.0]) and np.array_equal(dw, [0, 0, 1])
    assert qfi_family(fam, 1.0).branch == "boundary"
