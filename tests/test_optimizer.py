import numpy as np
import pytest

from qldp import channels, ldp, optimizer
from qldp.bounds import fisher_cap_thm1, fisher_cap_thm2
from qldp.exceptions import (
    InvalidBudgetError,
    InvalidInputError,
    NotAStateError,
    OutOfRegimeError,
    UnsupportedDimensionError,
)
from qldp.optimizer import maximize_qfi, sweep
from qldp.qfi import (
    StateFamily,
    family_by_name,
    qfi_qubit,
    radial_family,
    rotation_family,
)


def _dep_qfi(fam, lam, eps):
    ch = channels.depolarizing(2, eps)
    w, dw = fam.omega_of(lam), fam.d_omega_of(lam)
    return qfi_qubit(ch.A @ w, ch.A @ dw).value


def test_beats_or_matches_depolarizing():
    fam = radial_family()
    res = maximize_qfi(fam, 0.6, 1.0, starts=8, seed=0)
    assert res.best_qfi >= _dep_qfi(fam, 0.6, 1.0) - 1e-12


def test_result_is_feasible_and_capped():
    fam = radial_family()
    res = maximize_qfi(fam, 0.6, 1.0, starts=8, seed=0)
    cert = ldp.certify(res.best_channel, 1.0)
    assert cert.margin <= 1e-9
    cap = fisher_cap_thm1(fam, 0.6, 1.0)
    assert res.fisher_cap == cap
    assert res.best_qfi <= cap + 1e-8
    assert 0.0 < res.cap_ratio <= 1.0 + 1e-8


def test_reported_margin_matches_recertification():
    fam = radial_family()
    res = maximize_qfi(fam, 0.6, 0.5, starts=4, seed=3)
    cert = ldp.certify(res.best_channel, 0.5)
    assert abs(res.feasibility_margin - cert.margin) < 1e-12


def test_deterministic_given_seed():
    fam = radial_family()
    a = maximize_qfi(fam, 0.6, 0.8, starts=6, seed=5)
    b = maximize_qfi(fam, 0.6, 0.8, starts=6, seed=5)
    assert np.array_equal(a.best_channel.A, b.best_channel.A)
    assert np.array_equal(a.best_channel.c, b.best_channel.c)
    assert a.best_qfi == b.best_qfi
    assert a.evaluations == b.evaluations


def test_c_zero_mode():
    fam = rotation_family()
    res = maximize_qfi(fam, 0.3, 0.25, starts=8, seed=1, c_zero=True)
    assert np.all(res.best_channel.c == 0.0)
    cap = fisher_cap_thm2(fam, 0.3, 0.25)
    assert res.fisher_cap == cap
    assert res.best_qfi <= cap + 1e-8
    cert = ldp.certify(res.best_channel, 0.25)
    assert cert.margin <= 1e-9


def test_vanishing_derivative_is_out_of_regime():
    flat = StateFamily(d=2, omega_of=lambda lam: np.array([0.0, 0.0, 0.5]),
                       d_omega_of=lambda lam: np.zeros(3))
    for c_zero in (False, True):
        with pytest.raises(OutOfRegimeError):
            maximize_qfi(flat, 0.0, 0.25, starts=2, c_zero=c_zero)


def test_rotation_family_general_mode_has_no_cap():
    res = maximize_qfi(rotation_family(), 0.3, 1.0, starts=4, seed=0)
    assert res.fisher_cap is None
    assert res.cap_ratio is None


def test_more_starts_never_worse():
    fam = radial_family()
    few = maximize_qfi(fam, 0.6, 1.0, starts=2, seed=9)
    many = maximize_qfi(fam, 0.6, 1.0, starts=10, seed=9)
    assert many.best_qfi >= few.best_qfi - 1e-9


def test_rejects_bad_inputs():
    for eps in (0.0, float("nan"), float("inf"), 1e3):
        with pytest.raises(InvalidBudgetError):
            maximize_qfi(radial_family(), 0.6, eps, starts=2)
    with pytest.raises(InvalidInputError):
        maximize_qfi(radial_family(), float("nan"), 0.5, starts=2)
    with pytest.raises(NotAStateError):
        maximize_qfi(radial_family(), 1.5, 0.5, starts=2)
    with pytest.raises(UnsupportedDimensionError):
        maximize_qfi(family_by_name("axis-1", d=3), 0.3, 1.0, starts=2)


def test_sweep_monotone_in_budget():
    fam = radial_family()
    grid = [0.25, 0.5, 1.0, 2.0]
    results = sweep(fam, 0.6, grid, starts=4, seed=0)
    values = [r.best_qfi for r in results]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
    for r, eps in zip(results, grid):
        assert r.eps == eps
        assert r.feasibility_margin <= 1e-9


# -- c = 0 is the depolarizing channel ------------------------------------


def test_c_zero_returns_depolarizing_on_criterion_7_grid():
    fam = rotation_family()
    for eps in np.linspace(0.05, 0.45, 9):
        eps = float(eps)
        res = maximize_qfi(fam, 0.3, eps, starts=8, seed=1, c_zero=True)
        dep = channels.depolarizing(2, eps)
        assert np.array_equal(res.best_channel.A, dep.A)
        assert not np.any(res.best_channel.c)
        assert res.best_qfi == _dep_qfi(fam, 0.3, eps)
        assert res.evaluations == 0
        assert (res.starts, res.seed) == (8, 1)
        assert res.feasibility_margin == ldp.certify(dep, eps).margin


def test_no_c_zero_map_beats_depolarizing():
    """sigma_1(A) <= kappa is conv(kappa O(3)) and the QFI is convex and
    invariant under A -> QA, so no feasible c = 0 map beats kappa I."""
    rng = np.random.default_rng(7)
    families = [radial_family(), rotation_family(),
                family_by_name("scaled-rotation")]
    for k in range(2000):
        fam = families[k % 3]
        lam = float(rng.uniform(-0.95, 0.95))
        eps = float(rng.uniform(0.01, 5.0))
        kappa = np.expm1(eps) / (np.exp(eps) + 1.0)
        U, _, Vt = np.linalg.svd(rng.standard_normal((3, 3)))
        s = np.full(3, kappa) if k % 2 else kappa * rng.uniform(0, 1, 3)
        A = U @ np.diag(s) @ Vt
        w, dw = fam.point(lam)
        value = qfi_qubit(A @ w, A @ dw).value
        assert value <= _dep_qfi(fam, lam, eps) * (1.0 + 1e-12) + 1e-300


# -- the search on span{w, dw} ---------------------------------------------


def test_radial_search_does_not_creep_along_a_ridge():
    fam = radial_family()
    res = maximize_qfi(fam, 0.6, 2.0, starts=8, seed=0)
    assert res.evaluations < 8000
    assert res.best_qfi >= _dep_qfi(fam, 0.6, 2.0)


def _circle_max(B, c, g, n=200_000):
    """max over unit z in R^2 of ||(1 + g) B z - (g - 1) c|| on a dense grid
    of angles, the best grid angles polished by Newton steps."""
    a, b = (1.0 + g) * B, (g - 1.0) * c
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    f = np.linalg.norm(np.outer(np.cos(t), a[:, 0])
                       + np.outer(np.sin(t), a[:, 1]) - b, axis=1)
    best = float(f.max())
    for s in t[np.argsort(f)[-4:]]:
        for _ in range(20):
            z, dz = np.array([np.cos(s), np.sin(s)]), np.array([-np.sin(s), np.cos(s)])
            r = a @ z - b
            slope, curve = (a @ dz) @ r, (a @ dz) @ (a @ dz) - (a @ z) @ r
            if curve >= 0.0:
                break
            s -= slope / curve
        best = max(best, float(np.linalg.norm(a @ [np.cos(s), np.sin(s)] - b)))
    return best


def test_span_sup_matches_dense_grid_and_ldp_sup():
    rng = np.random.default_rng(11)
    for _ in range(200):
        eps = float(rng.uniform(0.01, 5.0))
        a = rng.standard_normal(3) * rng.uniform(0.0, 0.5)
        c = rng.standard_normal(3) * rng.uniform(0.0, 0.3)
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        closed = optimizer._span_sup(a[:, None], c, np.exp(eps))
        ch = channels.AffineChannel(d=2, A=np.outer(a, p), c=c)
        sup, _ = ldp.ldp_sup(ch, eps)
        assert abs(closed - sup) <= 1e-12 * sup
    # rank 2, hard cases included: c orthogonal to the span, c = 0, equal
    # and nearly equal singular values
    for k in range(60):
        eps = float(rng.uniform(0.01, 5.0))
        g = np.exp(eps)
        U, _, Vt = np.linalg.svd(rng.standard_normal((3, 2)),
                                 full_matrices=False)
        s1 = rng.uniform(0.01, 0.5)
        kind = k % 6
        s2 = {0: s1 * (1.0 - rng.uniform(0.0, 1e-6)), 1: s1}.get(
            kind, rng.uniform(0.0, s1))
        B = U @ np.diag([s1, s2]) @ Vt
        c = rng.standard_normal(3) * rng.uniform(0.01, 0.3)
        if kind in (1, 2):
            c = np.cross(U[:, 0], U[:, 1]) * rng.uniform(0.01, 0.3)
        if kind == 3:
            c = np.zeros(3)
        exact = optimizer._span_sup(B, c, g)
        assert abs(exact - _circle_max(B, c, g)) <= 1e-12 * exact
        P, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        sup, _ = ldp.ldp_sup(channels.AffineChannel(d=2, A=B @ P.T, c=c), eps)
        assert sup <= exact * (1.0 + 1e-12)
        if kind != 0:  # Frank-Wolfe may stall at sigma_2 ~ sigma_1 with c
            assert exact <= sup * (1.0 + 1e-12)


def test_rank2_winners_tie_depolarizing_after_exact_projection():
    """Scored with the exact supremum, the rank-2 search never climbs
    toward an underestimate of it: its winner keeps its QFI under
    ldp_sup's projection."""
    for fam in (rotation_family(), family_by_name("scaled-rotation")):
        w, dw = fam.point(0.3)
        for eps in (0.1, 0.5, 1.0, 2.0):
            g = float(np.exp(eps))
            shrink = float(channels.depolarizing(2, eps).A[0, 0])
            A, c, _ = optimizer._pattern_search(w, dw, g, shrink, 8, 0, 20000)
            sup, _ = ldp.ldp_sup(channels.AffineChannel(d=2, A=A, c=c), eps)
            A, c = optimizer._project(A, c, sup, g)
            value = qfi_qubit(A @ w + c, A @ dw).value
            assert value >= (1.0 - 1e-9) * _dep_qfi(fam, 0.3, eps), (fam.label, eps)


@pytest.mark.parametrize("family, lam, eps", [
    ("radial", 0.6, 0.1), ("radial", 0.6, 0.5), ("radial", 0.6, 1.0),
    ("radial", 0.6, 2.0), ("rotation", 0.3, 0.1), ("rotation", 0.3, 1.0),
])
def test_tied_winner_reports_the_depolarizing_channel(family, lam, eps):
    """Here the search winner leads the depolarizing QFI by 4e-16 to 1.2e-15
    relative, which is rounding: the depolarizing channel is reported."""
    fam = family_by_name(family)
    res = maximize_qfi(fam, lam, eps, starts=8, seed=0)
    dep = channels.depolarizing(2, eps)
    assert np.array_equal(res.best_channel.A, dep.A)
    assert np.array_equal(res.best_channel.c, dep.c)
    assert res.best_qfi == _dep_qfi(fam, lam, eps)


def test_restriction_to_span_keeps_qfi_and_never_raises_sup():
    rng = np.random.default_rng(12)
    for k in range(200):
        fam = radial_family() if k % 2 else rotation_family()
        lam = float(rng.uniform(-0.9, 0.9))
        eps = float(rng.uniform(0.05, 3.0))
        w, dw = fam.point(lam)
        P = optimizer._span_basis(w, dw)
        assert P.shape == (3, 1 if k % 2 else 2)
        U, _, Vt = np.linalg.svd(rng.standard_normal((3, 3)))
        A = U @ np.diag(rng.uniform(0.0, 0.5, 3)) @ Vt
        c = rng.standard_normal(3) * rng.uniform(0.0, 0.4) / np.sqrt(3.0)
        AP = A @ P @ P.T
        full = qfi_qubit(A @ w + c, A @ dw).value
        reduced = qfi_qubit(AP @ w + c, AP @ dw).value
        assert abs(reduced - full) <= 1e-12 * full
        sup, _ = ldp.ldp_sup(channels.AffineChannel(d=2, A=A, c=c), eps)
        sup_p, _ = ldp.ldp_sup(channels.AffineChannel(d=2, A=AP, c=c), eps)
        assert sup_p <= sup * (1.0 + 1e-12)


def test_outputs_are_completely_positive(monkeypatch):
    verdicts = []
    real_check = channels.cp_check

    def check(ch):
        out = real_check(ch)
        verdicts.append(out[0])
        return out

    monkeypatch.setattr(channels, "cp_check", check)
    for fam, lam in ((radial_family(), 0.6), (rotation_family(), 0.3),
                     (family_by_name("scaled-rotation"), 0.3)):
        for eps in (0.1, 1.0, 2.0):
            res = maximize_qfi(fam, lam, eps, starts=4, seed=0)
            assert real_check(res.best_channel)[0]
            assert res.best_qfi >= _dep_qfi(fam, lam, eps)
    # every search winner was checked; the rank-1 (radial) winners are
    # measure-and-prepare channels, so completely positive
    assert len(verdicts) == 9 and all(verdicts[:3])


def test_each_search_certifies_once(monkeypatch):
    """The winner is certified only after it passes cp_check and the
    depolarizing comparison, so a fallback does not certify twice."""
    calls = []
    real_certify = ldp.certify

    def certify(ch, eps):
        calls.append(eps)
        return real_certify(ch, eps)

    monkeypatch.setattr(ldp, "certify", certify)
    for fam, lam in ((radial_family(), 0.6), (rotation_family(), 0.3),
                     (family_by_name("scaled-rotation"), 0.3)):
        for eps in (0.1, 0.5, 1.0, 2.0):
            calls.clear()
            maximize_qfi(fam, lam, eps, starts=8, seed=0)
            assert calls == [eps], (fam.label, eps)


def test_falls_back_to_depolarizing_when_not_completely_positive(monkeypatch):
    # this radial winner ties the depolarizing channel within TIE_RTOL; let
    # any winner lead, so that cp_check alone decides
    monkeypatch.setattr(optimizer, "TIE_RTOL", -1.0)
    fam = radial_family()
    dep = channels.depolarizing(2, 2.0)
    found = maximize_qfi(fam, 0.6, 2.0, starts=2, seed=0)
    assert not np.array_equal(found.best_channel.A, dep.A)
    checked = []

    def fail(ch):
        checked.append(ch)
        return False, -1.0

    monkeypatch.setattr(channels, "cp_check", fail)
    res = maximize_qfi(fam, 0.6, 2.0, starts=2, seed=0)
    assert len(checked) == 1
    assert np.array_equal(checked[0].A, found.best_channel.A)
    assert np.array_equal(res.best_channel.A, dep.A)
    assert not np.any(res.best_channel.c)
    assert res.best_qfi == _dep_qfi(fam, 0.6, 2.0)
    assert res.feasibility_margin == ldp.certify(dep, 2.0).margin
