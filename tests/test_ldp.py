import statistics

import numpy as np
import pytest

from conftest import random_qubit_channel
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
    MARGIN_TOL,
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
    """The reference: bisection of [0, MAX_CHANNEL_BUDGET] on the margin
    test down to a bracket of TIGHT_EPS_TOL, 32 `ldp_sup` solves."""
    def margin(eps):
        _, u = ldp_sup(ch, eps)
        return ldp._margin(ch, eps, u)

    assert margin(MAX_CHANNEL_BUDGET) <= MARGIN_TOL < margin(0.0)
    lo, hi = 0.0, MAX_CHANNEL_BUDGET
    while hi - lo > TIGHT_EPS_TOL:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _stratified_channels(n, seed):
    """Qubit channels with c != 0 as the request benchmark writes them: top
    singular value of A in [0.3, 0.8], the second one a ratio spread over
    [0.05, 0.95] times it, and ||A|| + ||c|| <= 0.9."""
    rng = np.random.default_rng(seed)
    out = []
    for ratio in 0.05 + 0.9 * (np.arange(n) + 0.5) / n:
        top = rng.uniform(0.3, 0.8)
        sv = np.array([top, ratio * top, rng.uniform(0.0, ratio * top)])
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        c = rng.standard_normal(3)
        c *= rng.uniform(0.02, 0.9 - top) / np.linalg.norm(c)
        out.append(AffineChannel(2, U @ np.diag(sv) @ V.T, c))
    return out


@pytest.fixture(scope="module")
def stratified():
    chs = _stratified_channels(40, seed=601)
    return [(ch, _bisection_tight_epsilon(ch)) for ch in chs]


def test_tight_epsilon_matches_bisection_in_few_solves(stratified,
                                                      monkeypatch):
    calls = []
    real = ldp.ldp_sup

    def counting(ch, eps):
        calls.append(eps)
        return real(ch, eps)

    monkeypatch.setattr(ldp, "ldp_sup", counting)
    counts = []
    for ch, ref in stratified:
        calls.clear()
        t = tight_epsilon(ch)
        counts.append(len(calls))
        assert abs(t - ref) < 1e-7
        assert certify(ch, t + TIGHT_EPS_TOL).verdict
    assert statistics.median(counts) <= 8
    assert max(counts) <= 12


def test_tight_epsilon_survives_a_poor_direction(stratified, monkeypatch):
    # a poor direction's affine bound still lies below the margin: its
    # Newton step falls short of the crossing and the bracket holds
    real = ldp.ldp_sup
    for ch, ref in stratified[::5]:
        poor = []

        def once_poor(ch, eps):
            value, u = real(ch, eps)
            if eps == 0.0 and not poor:
                u = np.linalg.svd(ch.A)[0][:, 2]  # the weakest direction
                poor.append(u)
            return value, u

        monkeypatch.setattr(ldp, "ldp_sup", once_poor)
        assert abs(tight_epsilon(ch) - ref) < 1e-7
        assert poor


def test_tight_epsilon_bisects_below_an_understated_hi(stratified,
                                                       monkeypatch):
    # a poor direction at the second Newton point, below the crossing,
    # fails the margin test there: that point becomes hi, the Newton point
    # of lo's direction is hi itself, and the loop must bisect [lo, hi]
    real = ldp.ldp_sup
    for ch, _ in stratified[::5]:
        tests = []

        def poor_at_fourth(ch, eps):
            value, u = real(ch, eps)
            if len(tests) == 3:
                u = np.linalg.svd(ch.A)[0][:, 2]  # the weakest direction
            tests.append((eps, ldp._margin(ch, eps, u)))
            return value, u

        monkeypatch.setattr(ldp, "ldp_sup", poor_at_fourth)
        t = tight_epsilon(ch)
        poor_eps, poor_margin = tests[3]
        assert poor_margin <= 0.0
        # replay the bracket from the tests after the two end checks
        lo, hi, midpoints = 0.0, MAX_CHANNEL_BUDGET, 0
        for eps, m in tests[2:]:
            midpoints += eps == 0.5 * (lo + hi)
            if m > 0.0:
                lo = eps
            else:
                hi = eps
        assert midpoints > 0
        assert hi - lo <= TIGHT_EPS_TOL and t == 0.5 * (lo + hi)
        assert poor_eps - TIGHT_EPS_TOL <= t <= poor_eps
        assert len(tests) <= 32 + 2  # the bisection's solves, two end tests


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
