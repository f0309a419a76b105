import math

import numpy as np
import pytest

from qldp import bounds, channels
from qldp.bounds import (
    biased_factor,
    bounds_cor1,
    bounds_thm1,
    bounds_thm2,
    constants_thm1,
    fisher_cap_thm1,
    fisher_cap_thm2,
    qudit_upper_bound,
)
from qldp.exceptions import (
    InvalidBiasError,
    InvalidInputError,
    NotAStateError,
    OutOfRegimeError,
)
from qldp.qfi import (
    StateFamily,
    family_by_name,
    qfi_qubit,
    radial_family,
    rotation_family,
)


def test_constants_radial_06():
    C1, C2 = constants_thm1(radial_family(), 0.6)
    assert C2 == 1.0
    assert abs(C1 - 1.0 / (4.0 + 0.25 / 0.36)) < 1e-15
    assert abs(C1 - 0.21301775147928992) < 1e-12


def test_constants_radial_09():
    C1, _ = constants_thm1(radial_family(), 0.9)
    assert abs(C1 - 1.0 / (4.0 + 0.25 / 0.81)) < 1e-15


def test_constants_pure_rotation_undefined():
    C1, C2 = constants_thm1(rotation_family(), 0.3)
    assert C1 is None
    assert abs(C2 - 1.0) < 1e-12


def test_thm1_report_radial():
    rep = bounds_thm1(radial_family(), 0.6, 0.01, 1.0)
    g = math.e
    expected_upper = (g + 1.0) ** 2 / (0.01 * (g - 1.0) ** 2)
    assert abs(rep.N_upper_real - expected_upper) < 1e-9
    assert rep.N_upper == math.ceil(expected_upper)
    assert rep.N_lower <= rep.N_upper
    assert "thm1_ok" in rep.regime_flags


def test_thm1_alpha_homogeneous():
    fam = radial_family()
    a = bounds_thm1(fam, 0.6, 0.01, 0.7)
    b = bounds_thm1(fam, 0.6, 0.02, 0.7)
    assert abs(a.N_lower_real - 2.0 * b.N_lower_real) < 1e-9
    assert abs(a.N_upper_real - 2.0 * b.N_upper_real) < 1e-9


def test_thm1_large_budget_loosens():
    rep = bounds_thm1(radial_family(), 0.6, 0.01, 8.0)
    # lower bound collapses, upper saturates near C2/alpha
    assert rep.N_lower_real < 1e-3
    assert abs(rep.N_upper_real - rep.C2 / 0.01) / (rep.C2 / 0.01) < 0.01
    assert "loosens" in rep.notes


def test_thm1_rejects_eps_zero():
    with pytest.raises(OutOfRegimeError):
        bounds_thm1(radial_family(), 0.6, 0.01, 0.0)


def test_cor1_values():
    fam = radial_family()
    C1, C2 = constants_thm1(fam, 0.6)
    lower, upper = bounds_cor1(fam, 0.6, 0.1, 0.5)
    assert abs(lower - C1 / (9.0 * 0.1 * 0.25)) < 1e-12
    assert abs(upper - C2 * (math.e + 1.0) ** 2 / (0.1 * 0.25)) < 1e-9


def test_cor1_envelops_thm1(rng):
    fam = radial_family()
    for _ in range(1000):
        eps = rng.uniform(0.01, 0.999)
        alpha = rng.uniform(0.001, 0.5)
        rep = bounds_thm1(fam, 0.6, alpha, eps)
        lower, upper = bounds_cor1(fam, 0.6, alpha, eps)
        assert lower <= rep.N_lower_real + 1e-12
        assert upper >= rep.N_upper_real - 1e-12


def test_cor1_rejects_out_of_regime():
    for eps in (0.0, 1.0, 1.5):
        with pytest.raises(OutOfRegimeError):
            bounds_cor1(radial_family(), 0.6, 0.01, eps)


def test_cor1_finite_at_eps_near_one():
    lower, upper = bounds_cor1(radial_family(), 0.6, 0.01, 1.0 - 1e-9)
    assert np.isfinite(lower) and np.isfinite(upper)


def test_exponential_inequalities(rng):
    # e^eps >= 1 + eps and e^eps <= (1 + eps)^2 on (0, 1)
    eps = rng.uniform(1e-12, 1.0, size=10000)
    assert np.all(np.exp(eps) >= 1.0 + eps)
    assert np.all(np.exp(eps) <= (1.0 + eps) ** 2)


def test_thm2_rotation_constant():
    lower, upper = bounds_thm2(rotation_family(), 0.3, 0.05, 0.25)
    c1_bar = 1.0 / (1.0 + 1.0 / (math.sqrt(math.e) * (2.0 - math.sqrt(math.e))))
    g = math.exp(0.25)
    assert abs(lower - c1_bar / (0.05 * (g - 1.0) ** 2)) < 1e-9
    expected_upper = (math.sqrt(math.e) + 1.0) ** 2 / (0.05 * 0.25 ** 2)
    assert abs(upper - expected_upper) < 1e-9
    assert lower > 0.0 and upper > 0.0
    # C1_bar < C2 for unit-speed families
    assert c1_bar < 1.0


def test_thm2_rejects_out_of_regime():
    with pytest.raises(OutOfRegimeError):
        bounds_thm2(rotation_family(), 0.3, 0.05, 0.5)


def test_fisher_cap_thm1_value():
    cap = fisher_cap_thm1(radial_family(), 0.6, 1.0)
    expected = 4.0 * (math.e - 1.0) ** 2 * (1.0 + (1.0 / 16.0) / 0.36)
    assert abs(cap - expected) < 1e-12


def test_fisher_cap_thm1_scaling_identity():
    fam = radial_family()
    for eps in (0.2, 0.5, 1.0):
        r = fisher_cap_thm1(fam, 0.6, 2 * eps) / fisher_cap_thm1(fam, 0.6, eps)
        expected = ((math.exp(2 * eps) - 1.0) / (math.exp(eps) - 1.0)) ** 2
        assert abs(r - expected) < 1e-12


@pytest.mark.parametrize("eps", [1e-8, 1e-6])
def test_thm1_counts_exact_at_small_budget(eps):
    # np.exp(eps) - 1 is 2.2e-8 relative off at eps = 1e-8; expm1 keeps its digits
    rep = bounds_thm1(radial_family(), 0.6, 0.01, eps)
    x = math.expm1(eps)
    lower = rep.C1 / (0.01 * x * x)
    upper = (x + 2.0) ** 2 / (0.01 * x * x)
    assert abs(rep.N_lower_real - lower) <= 1e-15 * lower
    assert abs(rep.N_upper_real - upper) <= 1e-15 * upper
    assert rep.N_lower == math.ceil(rep.N_lower_real)
    assert rep.N_upper == math.ceil(rep.N_upper_real)


def test_lower_count_is_the_cramer_rao_count_of_the_cap(rng):
    fam = radial_family()
    for _ in range(500):
        lam = rng.uniform(0.05, 0.95)
        eps = 10.0 ** rng.uniform(-8.0, 1.0)
        alpha = 10.0 ** rng.uniform(-4.0, -0.3)
        b = rng.uniform(0.0, 0.95)
        rep = bounds_thm1(fam, lam, alpha, eps, bias=b)
        one = (1.0 - b) ** 2
        assert (abs(rep.N_lower_real * alpha * rep.fisher_cap - one)
                <= 4 * np.spacing(one))


def test_fisher_cap_rule():
    radial, rot = radial_family(), rotation_family()
    for c_zero in (False, True):
        # Theorem 1's cap applies whenever <dw, w> != 0
        assert (bounds.fisher_cap(radial, 0.6, 0.3, c_zero)
                == fisher_cap_thm1(radial, 0.6, 0.3))
    assert (bounds.fisher_cap(rot, 0.3, 0.25, c_zero=True)
            == fisher_cap_thm2(rot, 0.3, 0.25))
    for eps, c_zero in ((0.25, False), (0.5, True), (1.0, True)):
        assert bounds.fisher_cap(rot, 0.3, eps, c_zero) is None


def test_vanishing_derivative_is_out_of_regime():
    flat = StateFamily(d=2, omega_of=lambda lam: np.array([0.0, 0.0, 0.5]),
                       d_omega_of=lambda lam: np.zeros(3))
    for call in (lambda: constants_thm1(flat, 0.0),
                 lambda: bounds.fisher_cap(flat, 0.0, 0.25, c_zero=True),
                 lambda: fisher_cap_thm2(flat, 0.0, 0.25),
                 lambda: bounds_thm1(flat, 0.0, 0.01, 0.25),
                 lambda: bounds_thm2(flat, 0.0, 0.01, 0.25)):
        with pytest.raises(OutOfRegimeError):
            call()


def test_fisher_cap_thm1_undefined_for_pure_rotation():
    with pytest.raises(OutOfRegimeError):
        fisher_cap_thm1(rotation_family(), 0.3, 1.0)


def test_depolarizing_respects_caps():
    fam = radial_family()
    w, dw = fam.omega_of(0.6), fam.d_omega_of(0.6)
    for eps in np.linspace(0.1, 2.0, 8):
        ch = channels.depolarizing(2, eps)
        achieved = qfi_qubit(ch.A @ w, ch.A @ dw).value
        assert achieved <= fisher_cap_thm1(fam, 0.6, eps) + 1e-12
    rot = rotation_family()
    wr, dwr = rot.omega_of(0.3), rot.d_omega_of(0.3)
    for eps in np.linspace(0.05, 0.45, 6):
        ch = channels.depolarizing(2, eps)
        achieved = qfi_qubit(ch.A @ wr, ch.A @ dwr).value
        assert achieved <= fisher_cap_thm2(rot, 0.3, eps) + 1e-12


def test_fisher_cap_thm2_value_and_limit():
    g = math.exp(0.25)
    expected = (g - 1.0) ** 2 * (1.0 + 1.0 / (math.sqrt(math.e)
                                              * (2.0 - math.sqrt(math.e))))
    assert abs(fisher_cap_thm2(rotation_family(), 0.3, 0.25) - expected) < 1e-12
    assert fisher_cap_thm2(rotation_family(), 0.3, 1e-9) < 1e-15


def test_qudit_bound_matches_thm1_at_d2():
    fam = radial_family()
    for eps in (0.5, 0.05, 1e-6):
        n_asym, _ = qudit_upper_bound(fam, 0.6, 0.01, eps)
        assert n_asym == bounds_thm1(fam, 0.6, 0.01, eps).N_upper


def test_qudit_bound_shrink_factor():
    fam = family_by_name("axis-1", d=3)
    eps = 0.05
    n_asym, n_exact = qudit_upper_bound(fam, 0.3, 0.01, eps)
    shrink = (math.exp(eps) - 1.0) / (2.0 + math.exp(eps))
    expected = math.ceil(1.0 / (0.01 * shrink ** 2 * 1.5))
    assert n_asym == expected
    assert n_exact <= n_asym  # exact QFI at least the mixed-point floor


def test_qudit_bound_linear_in_dimension():
    alpha, eps = 0.01, 0.01
    counts = []
    for d in (2, 3, 4, 5):
        fam = family_by_name("axis-1", d=d)
        n_asym, _ = qudit_upper_bound(fam, 0.0, alpha, eps)
        # strip the (1-p)^2 budget factor; what remains scales like d
        shrink = (math.exp(eps) - 1.0) / (d - 1.0 + math.exp(eps))
        counts.append(n_asym * shrink ** 2 * alpha)
    ratios = [counts[i + 1] / counts[i] for i in range(3)]
    expected = [2 / 3, 3 / 4, 4 / 5]
    for r, e in zip(ratios, expected):
        assert abs(r - e) < 1e-6


def test_biased_factor():
    assert biased_factor(0.0) == 1.0
    assert biased_factor(0.5) == 0.25
    with pytest.raises(InvalidBiasError):
        biased_factor(1.0)
    with pytest.raises(InvalidBiasError):
        biased_factor(-0.1)


def test_bias_scales_lower_bound_exactly(rng):
    fam = radial_family()
    for _ in range(100):
        eps = rng.uniform(0.05, 2.0)
        alpha = rng.uniform(0.001, 0.2)
        lam = rng.uniform(0.1, 0.9)
        plain = bounds_thm1(fam, lam, alpha, eps)
        biased = bounds_thm1(fam, lam, alpha, eps, bias=0.5)
        assert biased.N_lower_real == 0.25 * plain.N_lower_real
        assert biased.N_upper_real == plain.N_upper_real


def test_sandwich_property(rng):
    fam = radial_family()
    for _ in range(200):
        eps = rng.uniform(0.01, 3.0)
        alpha = rng.uniform(0.001, 0.5)
        lam = rng.uniform(0.05, 0.95)
        rep = bounds_thm1(fam, lam, alpha, eps)
        assert rep.N_lower_real <= rep.N_upper_real


def test_upper_bound_loglog_slope():
    fam = radial_family()
    eps = np.geomspace(0.01, 0.5, 20)
    uppers = [bounds_thm1(fam, 0.6, 0.01, float(e)).N_upper_real for e in eps]
    slope = np.polyfit(np.log(eps), np.log(uppers), 1)[0]
    assert abs(slope + 2.0) < 0.05


def test_lower_bound_loglog_slope_documented_value():
    # (e^eps - 1)^2 deviates from eps^2 enough over [0.01, 0.5] that the
    # fitted slope sits near -2.11 rather than -2; pinned here so any
    # solver change that moves it is caught
    fam = radial_family()
    eps = np.geomspace(0.01, 0.5, 20)
    lowers = [bounds_thm1(fam, 0.6, 0.01, float(e)).N_lower_real for e in eps]
    slope = np.polyfit(np.log(eps), np.log(lowers), 1)[0]
    assert abs(slope + 2.1087) < 0.01


def test_achievability_cross_check(rng):
    # exact depolarized CRB count never exceeds the pre-ceiling upper bound
    fam = radial_family()
    for _ in range(50):
        eps = rng.uniform(0.05, 2.0)
        alpha = rng.uniform(0.005, 0.1)
        rep = bounds_thm1(fam, 0.6, alpha, eps)
        ch = channels.depolarizing(2, eps)
        w, dw = fam.omega_of(0.6), fam.d_omega_of(0.6)
        f = qfi_qubit(ch.A @ w, ch.A @ dw).value
        assert 1.0 / (alpha * f) <= rep.N_upper_real * (1.0 + 1e-9)


COUNTS = {
    "thm1": lambda alpha, eps: bounds_thm1(radial_family(), 0.6, alpha, eps),
    "cor1": lambda alpha, eps: bounds_cor1(radial_family(), 0.6, alpha, eps),
    "thm2": lambda alpha, eps: bounds_thm2(radial_family(), 0.6, alpha, eps),
    "qudit": lambda alpha, eps: bounds.qudit_upper_bound(
        family_by_name("axis-1", d=3), 0.2, alpha, eps),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_alpha_checked_once(name):
    for alpha in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidInputError):
            COUNTS[name](alpha, 0.3)
    for alpha in (0.0, -0.01):
        with pytest.raises(OutOfRegimeError):
            COUNTS[name](alpha, 0.3)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_non_finite_count_is_out_of_regime(name):
    # e^eps - 1 and eps^2 underflow to 0 at eps = 1e-300, and a tiny alpha
    # drives the count past the largest double
    for alpha, eps in ((0.01, 1e-300), (1e-300, 1e-8)):
        with pytest.raises(OutOfRegimeError):
            COUNTS[name](alpha, eps)


def test_lambda_outside_the_state_body_rejected():
    with pytest.raises(NotAStateError):
        bounds_thm1(radial_family(), 1.5, 0.01, 0.3)
    with pytest.raises(InvalidInputError):
        bounds_thm1(radial_family(), float("nan"), 0.01, 0.3)
