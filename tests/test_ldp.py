import statistics

import numpy as np
import pytest

from conftest import random_qubit_channel, stratified_channels
from qldp import channels, ldp
from qldp.bounds import bounds_cor1, bounds_thm1, bounds_thm2, qudit_upper_bound
from qldp.channels import AffineChannel, depolarizing
from qldp.exceptions import (
    MAX_CHANNEL_BUDGET,
    DivergedError,
    InvalidBudgetError,
    InvalidInputError,
    NotAStateError,
    OutOfRegimeError,
    UnsupportedDimensionError,
)
from qldp.qfi import family_by_name, radial_family
from qldp.ldp import (
    TIGHT_EPS_TOL,
    audit_by_sampling,
    certify,
    ldp_sup,
    tight_epsilon,
)


def test_sup_identity_channel():
    for eps in (0.3, 1.0, 2.0):
        sup, _ = ldp_sup(channels.identity_channel(2), eps)
        assert abs(sup - (1.0 + np.exp(eps))) < 1e-12
        # never eps-LDP: 1 + e^eps > e^eps - 1
        assert not certify(channels.identity_channel(2), eps).verdict


def test_sup_constant_channel():
    ch = AffineChannel(2, np.zeros((3, 3)), np.zeros(3))
    for eps in (0.0, 1.0, 5.0):
        sup, _ = ldp_sup(ch, eps)
        assert sup == 0.0
        assert certify(ch, eps).verdict


def test_sup_is_positively_homogeneous(rng):
    # S(tA, tc) = t S(A, c): the premise of the optimizer's projection
    for _ in range(10):
        ch = random_qubit_channel(rng)
        eps = rng.uniform(0.1, 2.0)
        sup, _ = ldp_sup(ch, eps)
        for t in (0.25, 0.5, 2.0):
            scaled, _ = ldp_sup(AffineChannel(2, t * ch.A, t * ch.c), eps)
            assert abs(scaled - t * sup) <= 1e-12 * t * sup


def test_sup_depolarizing_is_boundary_tight():
    for eps in np.linspace(0.1, 2.0, 8):
        sup, _ = ldp_sup(depolarizing(2, eps), eps)
        assert abs(sup - (np.exp(eps) - 1.0)) < 1e-12


def test_sup_matches_two_ball_brute_force(rng):
    # direct maximization over many boundary state pairs never exceeds
    # the dual value, and comes close to it
    for _ in range(5):
        ch = random_qubit_channel(rng)
        eps = rng.uniform(0.1, 1.5)
        g = np.exp(eps)
        sup, _ = ldp_sup(ch, eps)
        W = rng.standard_normal((4000, 3))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        V = rng.standard_normal((4000, 3))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        vals = np.linalg.norm(
            W @ ch.A.T - g * (V @ ch.A.T) + (1.0 - g) * ch.c, axis=1
        )
        assert np.max(vals) <= sup + 1e-9
        assert np.max(vals) >= sup - 0.05 * max(sup, 1.0)


def _objective(A, c, g, U):
    """(1 + g) ||A^T u|| - (g - 1) c.u on unit rows U."""
    return (1.0 + g) * np.linalg.norm(U @ A, axis=1) - (g - 1.0) * (U @ c)


def _polish(A, c, g, u, steps=30):
    """The largest objective met along Riemannian Newton steps on the unit
    sphere from u (the tangent system solved by least squares, so a flat
    direction is left alone), until a step moves u by less than 1e-13."""
    best = float(_objective(A, c, g, u[None, :])[0])
    for _ in range(steps):
        atu = A.T @ u
        r = np.linalg.norm(atu)
        if r == 0.0:
            break
        K = A @ A.T
        grad = (1.0 + g) * K @ u / r - (g - 1.0) * c
        hess = (1.0 + g) * (K - np.outer(K @ u, K @ u) / r**2) / r
        T = np.linalg.svd(u[None, :])[2][1:].T  # tangent basis at u
        H = T.T @ hess @ T - (u @ grad) * np.eye(2)
        step = np.linalg.lstsq(H, -T.T @ grad, rcond=1e-14)[0]
        u = u + T @ step
        u /= np.linalg.norm(u)
        best = max(best, float(_objective(A, c, g, u[None, :])[0]))
        if np.linalg.norm(step) < 1e-13:
            break
    return best


def _fibonacci_directions(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(1.0 - z * z)
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _oracle_sup(A, c, g, directions):
    """A dense direction grid, its 8 best points and the signed left
    singular vectors of A Newton-polished. Newton stops at any stationary
    point, and at sigma_2 ~ sigma_1 with c = 0 half the grid's great circle
    runs to the saddle u_2; the singular seeds hold the maximizer then."""
    f = _objective(A, c, g, directions)
    U = np.linalg.svd(A)[0].T
    seeds = np.vstack([directions[np.argsort(f)[-8:]], U, -U])
    return max(float(f.max()), *(_polish(A, c, g, u) for u in seeds))


def test_sup_matches_newton_polished_direction_grid():
    """200 channels: equal and nearly equal (1 - 1e-9) top singular values,
    c orthogonal to the top left singular vector (the hard case of the
    trust-region solve), c = 0, A = 0 and generic (A, c). The value agrees
    with the oracle to 1e-12 relative, is never below it but for rounding,
    and the returned u attains it."""
    rng = np.random.default_rng(2026)
    directions = _fibonacci_directions(20_000)
    for k in range(200):
        eps = float(rng.uniform(0.01, 5.0))
        g = np.exp(eps)
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        s = np.sort(rng.uniform(0.0, 0.5, 3))[::-1]
        if k % 4 == 1:
            s[1] = s[0]
        elif k % 4 == 2:
            s[1] = s[0] * (1.0 - 1e-9)
        c = rng.standard_normal(3) * rng.uniform(0.01, 0.3)
        kind = k // 4 % 5
        if kind in (1, 2):
            c -= (U[:, 0] @ c) * U[:, 0]
        elif kind == 3:
            c = np.zeros(3)
        if k == 199:
            s, c = np.zeros(3), np.zeros(3)
        A = U @ np.diag(s) @ V.T
        value, u = ldp_sup(AffineChannel(2, A, c), eps)
        if k == 199:
            assert value == 0.0
            continue
        oracle = _oracle_sup(A, c, g, directions)
        scale = (1.0 + g) * s[0] + (g - 1.0) * np.linalg.norm(c)
        assert value >= oracle - 1e-15 * scale, (k, value, oracle)
        assert value <= oracle * (1.0 + 1e-12), (k, value, oracle)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-15, k
        at_u = float(_objective(A, c, g, u[None, :])[0])
        assert at_u >= value * (1.0 - 1e-12), (k, at_u, value)


def test_certify_refutes_the_frank_wolfe_stall():
    """sigma_2 / sigma_1 = 0.998 with c in their plane: multi-start
    Frank-Wolfe ascent stalled here and accepted the channel at margin
    -1.98e-8; the exact margin is +1.05e-8, ten times MARGIN_TOL."""
    t = 0.0998548138
    A = t * np.diag([0.5, 0.499, 0.3])
    c = t * 0.02 * np.array([np.cos(1.5), np.sin(1.5), 0.0])
    cert = certify(AffineChannel(2, A, c), 0.1)
    assert cert.verdict is False
    assert 1.04e-8 <= cert.margin <= 1.06e-8


def test_certify_depolarizing_at_half_budget_fails():
    cert = certify(depolarizing(2, 1.0), 0.5)
    assert not cert.verdict
    assert cert.margin > 0.0


def test_certify_constant_shift_at_eps_zero():
    ch = AffineChannel(2, np.zeros((3, 3)), np.array([0.5, 0.0, 0.0]))
    cert = certify(ch, 0.0)
    assert cert.verdict
    assert abs(cert.sup_value) < 1e-12


def test_witness_consistency(rng):
    for _ in range(30):
        ch = random_qubit_channel(rng)
        eps = rng.uniform(0.05, 2.0)
        cert = certify(ch, eps)
        w, v = cert.witness_pair
        assert np.linalg.norm(w) <= 1.0 + 1e-12
        assert np.linalg.norm(v) <= 1.0 + 1e-12
        # ||A w - e^eps A v + (1 - e^eps) c|| at the witness pair
        g = np.exp(eps)
        lhs = np.linalg.norm(ch.A @ w - g * (ch.A @ v) + (1.0 - g) * ch.c)
        assert abs(lhs - cert.sup_value) < 1e-9


def test_sup_unsupported_for_qudits():
    with pytest.raises(UnsupportedDimensionError):
        ldp_sup(depolarizing(3, 1.0), 1.0)


def test_tight_epsilon_analytic():
    for p in (0.3, 0.5, 0.8):
        ch = AffineChannel(2, (1.0 - p) * np.eye(3), np.zeros(3))
        expected = np.log((2.0 - p) / p)
        assert abs(tight_epsilon(ch) - expected) < 1e-7


def test_tight_epsilon_half_depolarizing_is_ln3():
    ch = AffineChannel(2, 0.5 * np.eye(3), np.zeros(3))
    assert abs(tight_epsilon(ch) - np.log(3.0)) < 1e-7


def test_tight_epsilon_constant_channel_is_zero():
    ch = AffineChannel(2, np.zeros((3, 3)), np.array([0.2, 0.1, 0.0]))
    assert tight_epsilon(ch) == 0.0


def test_tight_epsilon_diverges_for_identity():
    with pytest.raises(DivergedError):
        tight_epsilon(channels.identity_channel(2))


def test_tight_epsilon_closed_form_for_c_zero(rng):
    # margin (1 + g) s1 - (g - 1) crosses zero at g = (1 + s1) / (1 - s1)
    for s1 in (0.0, 0.05, 0.3, 0.5, 0.8, 0.99):
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A = U @ np.diag([s1, 0.7 * s1, 0.2 * s1]) @ V.T
        expected = np.log((1.0 + s1) / (1.0 - s1))
        assert abs(tight_epsilon(AffineChannel(2, A, np.zeros(3)))
                   - expected) < 1e-12
    with pytest.raises(DivergedError):  # ln(1 + 2 / 1e-5) > 10
        tight_epsilon(AffineChannel(2, (1.0 - 1e-5) * np.eye(3), np.zeros(3)))
    with pytest.raises(UnsupportedDimensionError):
        tight_epsilon(depolarizing(3, 1.0))


def _bisection_tight_epsilon(ch):
    """The reference: bisection of [0, MAX_CHANNEL_BUDGET] on the sign of
    `certify`'s margin down to a bracket of TIGHT_EPS_TOL, 32 solves."""
    assert certify(ch, MAX_CHANNEL_BUDGET).verdict
    assert not certify(ch, 0.0).verdict
    lo, hi = 0.0, MAX_CHANNEL_BUDGET
    while hi - lo > TIGHT_EPS_TOL:
        mid = 0.5 * (lo + hi)
        if certify(ch, mid).margin > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def stratified():
    chs = stratified_channels(40, seed=601)
    return [(ch, _bisection_tight_epsilon(ch)) for ch in chs]


def _count_solves(monkeypatch):
    """Record the budget of every `ldp_sup` solve in the returned list."""
    calls = []
    real = ldp.ldp_sup

    def counting(ch, eps):
        calls.append(eps)
        return real(ch, eps)

    monkeypatch.setattr(ldp, "ldp_sup", counting)
    return calls


def test_tight_epsilon_matches_bisection_in_few_solves(stratified,
                                                      monkeypatch):
    calls = _count_solves(monkeypatch)
    counts = []
    for ch, ref in stratified:
        calls.clear()
        t = tight_epsilon(ch)
        counts.append(len(calls))
        assert abs(t - ref) < 1e-7
        assert certify(ch, t).verdict
    assert statistics.median(counts) <= 8
    assert max(counts) <= 12


def test_certify_accepts_tight_epsilon_on_400_channels(monkeypatch):
    # the affine-bound margin test and the bracket midpoint it replaced
    # returned budgets that certify refused, by up to 7.2e-9 of margin
    calls = _count_solves(monkeypatch)
    counts = []
    for ch in stratified_channels(400, seed=7):
        calls.clear()
        t = tight_epsilon(ch)
        counts.append(len(calls))
        cert = certify(ch, t)
        assert cert.verdict, (t, cert.margin)
    assert statistics.median(counts) <= 8
    assert max(counts) <= 12


def _poor_direction_at(k, monkeypatch):
    """Make the k-th `ldp_sup` solve (from 0) return the weakest left
    singular vector of A as its direction, its value left exact; returns
    the list of solved budgets."""
    calls = []
    real = ldp.ldp_sup

    def poor(ch, eps):
        value, u = real(ch, eps)
        if len(calls) == k:
            u = np.linalg.svd(ch.A)[0][:, 2]
        calls.append(eps)
        return value, u

    monkeypatch.setattr(ldp, "ldp_sup", poor)
    return calls


def test_tight_epsilon_survives_a_poor_direction(stratified, monkeypatch):
    # at the test of 0 (after the one at the ceiling) a poor direction
    # still needs no more than the answer: its step falls short, or makes
    # no progress, and the next refused budget's direction steps on
    for ch, ref in stratified[::5]:
        calls = _poor_direction_at(1, monkeypatch)
        t = tight_epsilon(ch)
        assert calls[1] == 0.0
        assert abs(t - ref) < 1e-7
        assert certify(ch, t).verdict


def test_tight_epsilon_falls_back_to_midpoints(stratified, monkeypatch):
    # a poor direction at the fourth test, refused, needs less than the
    # refused budget: the step makes no progress, the bracket takes
    # midpoints, and a certified budget comes within the bisection's 32
    # solves and the two end tests
    fallbacks = 0
    for ch, ref in stratified[::5]:
        calls = _poor_direction_at(3, monkeypatch)
        t = tight_epsilon(ch)
        assert len(calls) <= 32 + 2
        assert abs(t - ref) <= 2.0 * TIGHT_EPS_TOL
        assert certify(ch, t).verdict
        if not certify(ch, calls[3]).verdict:
            # the fifth test is the midpoint of [fourth test, ceiling]
            assert calls[4] == 0.5 * (calls[3] + MAX_CHANNEL_BUDGET)
            fallbacks += 1
    assert fallbacks >= 4


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 1e3])
@pytest.mark.parametrize("call", [
    lambda eps: certify(AffineChannel(2, 0.3 * np.eye(3), np.full(3, 0.1)), eps),
    lambda eps: audit_by_sampling(depolarizing(3, 1.0), eps, 5, seed=0),
    lambda eps: bounds_thm1(radial_family(), 0.6, 0.01, eps),
    lambda eps: bounds_cor1(radial_family(), 0.6, 0.01, eps),
    lambda eps: bounds_thm2(radial_family(), 0.6, 0.01, eps),
    lambda eps: qudit_upper_bound(family_by_name("axis-1", d=3), 0.2, 0.01, eps),
], ids=["certify", "audit_by_sampling", "bounds_thm1", "bounds_cor1",
        "bounds_thm2", "qudit_upper_bound"])
def test_non_finite_budget_rejected(call, eps):
    # 1e3 is finite, but e^(2 eps) overflows: past MAX_BUDGET
    with pytest.raises(InvalidBudgetError):
        call(eps)


def test_channel_checks_stop_at_the_budget_ceiling():
    # the calibrated channel passes its own checks up to the ceiling ...
    for eps in (5.0, 8.0, MAX_CHANNEL_BUDGET):
        assert certify(depolarizing(2, eps), eps).verdict
        for d in (3, 4, 5):
            assert audit_by_sampling(depolarizing(d, eps), eps, 50,
                                     seed=0).consistent
    # ... and past it double precision cannot resolve them: at eps ~ 17
    # the qubit certificate fails, and at eps ~ 37 1 - p rounds to 1
    eps = MAX_CHANNEL_BUDGET * (1.0 + 1e-12)
    for call in (lambda: depolarizing(2, eps),
                 lambda: ldp_sup(channels.identity_channel(2), eps),
                 lambda: certify(channels.identity_channel(2), eps),
                 lambda: audit_by_sampling(channels.identity_channel(3), eps,
                                           5, seed=0)):
        with pytest.raises(OutOfRegimeError):
            call()


def test_audit_rejects_empty_sample():
    with pytest.raises(InvalidInputError, match="n >= 1"):
        audit_by_sampling(depolarizing(2, 1.0), 1.0, 0, seed=0)


def test_audit_refutes_identity_channel():
    res = audit_by_sampling(channels.identity_channel(2), 1.0, 10000, seed=3)
    assert not res.consistent
    assert res.max_divergence > 0.01


def test_audit_consistent_for_depolarizing_qubit():
    res = audit_by_sampling(depolarizing(2, 1.0), 1.0, 10000, seed=4)
    assert res.consistent


@pytest.mark.parametrize("d", [3, 4])
def test_audit_consistent_for_depolarizing_qudit(d):
    res = audit_by_sampling(depolarizing(d, 1.0), 1.0, 1000, seed=5)
    assert res.consistent


def test_audit_extra_pairs_drive_refutation(rng):
    # a channel slightly over budget is refuted at its witness pair
    eps = 0.5
    ch = depolarizing(2, eps)
    bigger = AffineChannel(2, 1.05 * ch.A, ch.c)
    cert = certify(bigger, eps)
    assert cert.margin > 1e-3
    res = audit_by_sampling(bigger, eps, 10, seed=6,
                            extra_pairs=[cert.witness_pair])
    assert not res.consistent
    assert abs(res.max_divergence - cert.margin / 2.0) < 1e-9


def test_audit_rejects_extra_pairs_outside_the_state_body():
    # pushed through the channel, (+-3, 0, 0) give a divergence of 1.718
    # that would refute a calibrated channel
    with pytest.raises(NotAStateError):
        audit_by_sampling(depolarizing(2, 1.0), 1.0, 5, 0,
                          extra_pairs=[([3, 0, 0], [-3, 0, 0])])


@pytest.mark.parametrize("pair", [([1, 0], [0, 1]), ([0, 0, 1],), (1, 2)])
def test_audit_rejects_malformed_extra_pairs(pair):
    with pytest.raises(InvalidInputError):
        audit_by_sampling(depolarizing(2, 1.0), 1.0, 5, 0, extra_pairs=[pair])


def _depolarizing_audit_sup(d, budget, eps):
    """Supremum over state pairs of E_{e^eps} for depolarizing(d, budget):
    (1 - p) - (e^eps - 1) p / d, p = d / (d - 1 + e^budget), attained on
    orthogonal pure pairs."""
    p = d / (d - 1 + np.exp(budget))
    return (1.0 - p) - np.expm1(eps) * p / d


def test_audit_refutes_the_d5_depolarizing_counterexample():
    # interior (mixed) draws read 6.7e-16 here; pure ones find the violation
    res = audit_by_sampling(depolarizing(5, 1.3), 1.0, 1000, seed=0)
    assert not res.consistent
    assert res.max_divergence >= 0.9 * _depolarizing_audit_sup(5, 1.3, 1.0)


# (d, audited eps, channel budget): the benchmark's planted violators
VIOLATORS = [(3, 0.5, 0.8), (3, 0.5, 1.0), (4, 0.5, 0.8), (4, 2.0, 2.3),
             (5, 0.5, 1.0), (5, 1.0, 1.3)]


@pytest.mark.parametrize("d, eps, budget", VIOLATORS)
def test_audit_refutes_planted_violators_below_their_supremum(d, eps, budget):
    sup = _depolarizing_audit_sup(d, budget, eps)
    for seed in range(10):
        res = audit_by_sampling(depolarizing(d, budget), eps, 200, seed=seed)
        assert not res.consistent, seed
        assert res.max_divergence <= sup + 1e-12, seed


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_audit_never_refutes_calibrated_channels(d):
    for eps in (0.3, 1.0, 2.5):
        for seed in range(10):
            res = audit_by_sampling(depolarizing(d, eps), eps, 200, seed=seed)
            assert res.consistent, (eps, seed)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_audit_repeats_for_a_seed(d):
    # a channel over its audited budget, so the worst pair is not a tie
    ch = depolarizing(d, 1.0)
    a, b = (audit_by_sampling(ch, 0.5, 60, seed=23) for _ in range(2))
    assert a.max_divergence > 0.0
    assert a.max_divergence == b.max_divergence
    assert a.consistent == b.consistent
    assert all(np.array_equal(x, y) for x, y in zip(a.worst_pair, b.worst_pair))


def test_audit_worst_pair_does_not_hold_the_batch():
    res = audit_by_sampling(depolarizing(16, 1.0), 1.0, 50, seed=0)
    assert all(x.base is None and x.shape == (255,) for x in res.worst_pair)


def test_margin_monotone_in_budget_for_depolarizing_family():
    ch = depolarizing(2, 1.0)
    eps_grid = np.linspace(0.2, 2.0, 10)
    margins = []
    for eps in eps_grid:
        sup, _ = ldp_sup(ch, eps)
        margins.append(sup - (np.exp(eps) - 1.0))
    assert all(m2 <= m1 + 1e-12 for m1, m2 in zip(margins, margins[1:]))
