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
    BOUNDARY_TOL,
    StateFamily,
    family_by_name,
    qfi_qubit,
    qubit_qfi_kernel,
    radial_family,
    rotation_family,
)
from qldp.sphere import max_norm_on_sphere


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
    for eps in (float("nan"), float("inf"), 1e3):
        with pytest.raises(InvalidBudgetError):
            maximize_qfi(radial_family(), 0.6, eps, starts=2)
    with pytest.raises(OutOfRegimeError):  # as for the bounds at eps = 0
        maximize_qfi(radial_family(), 0.6, 0.0, starts=2)
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


@pytest.mark.parametrize("eps", [0.05, 0.3, 1.0, 2.5])
@pytest.mark.parametrize("name, lam", [("radial", 0.6), ("rotation", 0.3),
                                       ("scaled-rotation", 0.3)])
def test_no_ldp_measurement_beats_the_depolarizing_qfi(name, lam, eps):
    """With c free: the measurement along unit n pulls back to the effect
    ((1 + b) I + a.sigma) / 2, a = A^T n, b = c^T n, and eps-LDP puts (a, b)
    in the double cone |a| <= kappa (1 - |b|). Its Fisher information
    F(a, b) = (a.dw)^2 / (1 - (b + a.w)^2) is never above the depolarizing
    QFI(kappa w, kappa dw) there: 20,000 points, a third on the rim b = 0,
    |a| = kappa, a third on the cone's surface, a third inside."""
    rng = np.random.default_rng([19, int(100 * eps), int(100 * lam)])
    w, dw = family_by_name(name).point(lam)
    kappa = np.expm1(eps) / (np.exp(eps) + 1.0)
    n = 20_000
    a = rng.standard_normal((n, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = rng.uniform(-1.0, 1.0, n)
    b[: n // 3] = 0.0
    radius = kappa * (1.0 - np.abs(b))
    radius[2 * n // 3:] *= rng.uniform(0.0, 1.0, n - 2 * n // 3)
    a *= radius[:, None]
    fisher = (a @ dw) ** 2 / (1.0 - (b + a @ w) ** 2)
    depolarizing = qfi_qubit(kappa * w, kappa * dw).value
    assert fisher.max() <= depolarizing * (1.0 + 1e-12)
    assert fisher[: n // 3].max() >= 0.99 * depolarizing  # the rim attains it


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
        assert abs(sup - exact) <= 1e-12 * exact


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
            t = optimizer._project(sup, g)
            A, c = t * A, t * c
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


def _vector_score(B, c, P, w, dw, g):
    """The oracle for optimizer._score, by arrays: the rank-1 supremum by
    two norms, (A, c) = (B P^T, c) scaled onto the eps-LDP set, then
    qfi_qubit of the output, -inf outside the open ball."""
    a, b = (1.0 + g) * B, (g - 1.0) * c
    if B.shape[1] == 1:
        sup = max(np.linalg.norm(a[:, 0] - b), np.linalg.norm(a[:, 0] + b))
    else:
        sup = max_norm_on_sphere(a, b)[0]
    A = B @ P.T
    if sup > g - 1.0:
        t = (g - 1.0) / sup
        A, c = t * A, t * c
    wbar = A @ w + c
    if float(wbar @ wbar) >= 1.0:
        return -np.inf
    return qfi_qubit(wbar, A @ dw).value


def test_inner_product_score_matches_vector_path():
    """Rank 1 and 2: c = 0, outputs near the pure boundary and on its
    BOUNDARY_TOL band, and projections that leave the Bloch ball. Between
    1e-9 and 1e-4 of the boundary 1 - ||wbar||^2 is too ill-conditioned for
    two roundings of ||wbar||^2 to agree to 1e-12, so no case lands there.
    An eps-LDP map keeps a state in the closed ball, so an output leaves it
    only for a w outside it: kind 6 draws ||w|| in (1.5, 3)."""
    rng = np.random.default_rng(31)
    seen = {"outside": 0, "projected": 0, "c = 0": 0, "near": 0, "band": 0}
    for k in range(1200):
        rank = 1 + k % 2
        kind = k % 10
        dw = rng.standard_normal(3)
        w = rng.standard_normal(3) if rank == 2 else dw.copy()
        w *= (rng.uniform(1.5, 3.0) if kind == 6 else rng.uniform(-1.0, 1.0)
              ) / np.linalg.norm(w)
        P = optimizer._span_basis(w, dw)
        assert P.shape == (3, rank)
        g = float(np.exp(rng.uniform(0.01, 5.0)))
        B = rng.standard_normal((3, rank)) * rng.uniform(0.0, 0.6)
        c = rng.standard_normal(3) * rng.uniform(0.0, 0.6)
        if kind in (0, 1):
            c = np.zeros(3)
        elif kind in (2, 3, 4, 5):
            # a feasible point (t = 1) whose output sits 1e-3, 1e-4, 1e-10
            # or 1e-13 inside the pure boundary
            gap = 10.0 ** -rng.choice([3.0, 4.0, 10.0, 13.0])
            B *= 1e-3 * gap * (g - 1.0) / (g + 1.0) / np.linalg.norm(B)
            out = B @ (P.T @ w)
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            # ||out + c|| = 1 - gap along the direction e
            s = -(out @ e) + np.sqrt((out @ e) ** 2 - out @ out
                                     + (1.0 - gap) ** 2)
            c = s * e
        pq = np.column_stack([P.T @ w, P.T @ dw])
        new = optimizer._score(B, c, pq, g)
        old = _vector_score(B, c, P, w, dw, g)
        assert (new == -np.inf) == (old == -np.inf), k
        if old == -np.inf:
            seen["outside"] += 1
            continue
        assert abs(new - old) <= 1e-12 * abs(old), (k, new, old)
        if optimizer._span_sup(B, c, g) > g - 1.0:
            seen["projected"] += 1
        if not np.any(c):
            seen["c = 0"] += 1
        wbar = B @ (P.T @ w) + c
        r = float(np.linalg.norm(wbar))
        if r > 1.0 - 1e-9:
            seen["band"] += 1
        elif r > 1.0 - 2e-3:
            seen["near"] += 1
    assert min(seen.values()) >= 20, seen


def test_qfi_qubit_is_the_kernel():
    rng = np.random.default_rng(32)
    for k in range(300):
        w = rng.standard_normal(3)
        w *= (1.0 - 10.0 ** -rng.uniform(0.0, 14.0)) / np.linalg.norm(w)
        if k % 3 == 0:
            w *= rng.uniform(0.0, 1.0)
        dw = rng.standard_normal(3)
        res = qfi_qubit(w, dw)
        value, branch = qubit_qfi_kernel(float(w @ w), float(dw @ dw),
                                         float(w @ dw))
        assert (res.value, res.branch) == (value, branch)
        on_boundary = np.linalg.norm(w) >= 1.0 - BOUNDARY_TOL
        assert branch == ("boundary" if on_boundary else "interior")
        if on_boundary:
            assert value == dw @ dw


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
