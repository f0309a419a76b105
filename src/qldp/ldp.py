"""Epsilon-LDP certification of qubit affine channels.

A qubit channel (A, c) is eps-LDP iff
    sup_{||w||<=1, ||v||<=1} ||A w - e^eps A v + (1 - e^eps) c|| <= e^eps - 1.
For a fixed direction u both inner maximizations are linear over unit
balls, so the supremum equals
    max_{||u||=1} (1 + e^eps) ||A^T u|| + (1 - e^eps) c^T u,
a convex maximization over S^2 solved by multi-start ascent (and exactly
by the largest singular value when c = 0).

In g = e^eps the certification margin sup - (g - 1) is
    m(g) = max_{||u||=1} g (a_u - b_u - 1) + (a_u + b_u + 1),
with a_u = ||A^T u|| and b_u = c^T u: a maximum of functions affine in g,
hence convex. Every direction u, maximizing or not, gives an affine lower
bound of m that is exact at the budget where u was found. `tight_epsilon`
takes Newton steps on these bounds, which never pass the crossing of m.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bloch, channels, divergence
from .exceptions import (
    DivergedError,
    InvalidInputError,
    MAX_CHANNEL_BUDGET,
    UnsupportedDimensionError,
    check_channel_budget,
)
from .sphere import maximize_convex_on_sphere, seed_directions

MARGIN_TOL = 1e-9
TIGHT_EPS_TOL = 1e-8
AUDIT_TOL = 1e-9
# the 2n states are drawn in one batch: at MAX_DIM = 16 it peaks at ~8.5 KB
# a state (Re and Im of the stacked |psi><psi| and their contraction with
# the generators), ~0.9 GB at the bound
MAX_AUDIT_PAIRS = 50_000


@dataclass(frozen=True)
class LdpCertificate:
    eps: float
    sup_value: float
    margin: float
    verdict: bool
    witness_u: np.ndarray
    witness_pair: tuple

    def to_dict(self):
        w, v = self.witness_pair
        return {
            "eps": self.eps,
            "sup_value": self.sup_value,
            "margin": self.margin,
            "verdict": self.verdict,
            "witness_u": self.witness_u.tolist(),
            "witness_omega": w.tolist(),
            "witness_nu": v.tolist(),
        }


def _require_qubit(ch):
    if ch.d != 2:
        raise UnsupportedDimensionError(
            "exact LDP certification is only available for qubits; "
            "use audit_by_sampling for d > 2"
        )


def ldp_sup(ch, eps):
    """Supremum of the certification norm and a maximizing direction u."""
    _require_qubit(ch)
    check_channel_budget(eps)
    g = float(np.exp(eps))
    A, c = ch.A, ch.c

    u_mat, s, _ = np.linalg.svd(A)
    if np.linalg.norm(c) == 0.0:
        return (1.0 + g) * float(s[0]), u_mat[:, 0]

    extra = [u_mat[:, 0], -u_mat[:, 0], -c, c]
    seeds = seed_directions(128, extra=extra)

    # the objective (1 + g) ||A^T u|| + (1 - g) c^T u on a (k, 3) batch of
    # unit rows U, and its gradient
    def value(U):
        return (1.0 + g) * np.linalg.norm(U @ A, axis=1) + (1.0 - g) * (U @ c)

    def gradient(U):
        atu = U @ A
        norms = np.linalg.norm(atu, axis=1, keepdims=True)
        atu = atu / np.where(norms > 0, norms, 1.0)
        return (1.0 + g) * atu @ A.T + (1.0 - g) * c

    return maximize_convex_on_sphere(value, gradient, seeds)


def _slope_intercept(ch, u):
    """The margin's affine lower bound at direction u, as the slope and the
    intercept (a - b - 1, a + b + 1) in g = e^eps, with a = ||A^T u|| and
    b = c^T u."""
    a = float(np.linalg.norm(ch.A.T @ u))
    b = float(ch.c @ u)
    return a - b - 1.0, a + b + 1.0


def _margin(ch, eps, u):
    """Certification margin sup - (e^eps - 1) at maximizer u, grouped as
    e^eps (a - b - 1) + (a + b + 1) to avoid the catastrophic cancellation
    of two huge exponentials at large eps."""
    slope, intercept = _slope_intercept(ch, u)
    return float(np.exp(eps)) * slope + intercept


def certify(ch, eps):
    """Exact certification result with a witness state pair."""
    sup_value, u = ldp_sup(ch, eps)
    atu = ch.A.T @ u
    norm_atu = np.linalg.norm(atu)
    # at a degenerate direction the norm term vanishes: any unit pair works
    w = atu / norm_atu if norm_atu > 0 else u.copy()
    v = -w
    margin = _margin(ch, eps, u)
    return LdpCertificate(
        eps=float(eps),
        sup_value=sup_value,
        margin=float(margin),
        verdict=bool(margin <= MARGIN_TOL),
        witness_u=u,
        witness_pair=(w, v),
    )


def tight_epsilon(ch):
    """Smallest eps at which the channel certifies, to within TIGHT_EPS_TOL.
    Raises DivergedError if the channel is not LDP even at
    eps = MAX_CHANNEL_BUDGET.

    A bracket [lo, hi] is kept on the margin test: the margin is positive
    at lo and not at hi, and hi starts at the ceiling. The margin is convex
    in g = e^eps, so it crosses zero once in the bracket, and the affine
    lower bound of the direction found at lo, whose slope is then
    negative, crosses zero at or before it: its Newton point never passes
    the answer. Each step tests that point, aimed TIGHT_EPS_TOL / 2 short
    so that a step landing on the crossing still raises lo, or the midpoint
    when there is no Newton point below hi (a test at hi understated the
    margin, so the bracket holds no crossing of the bounds). A test is
    kept TIGHT_EPS_TOL inside both ends, so every step narrows the bracket
    by at least that much. Once the bracket is at most 2 TIGHT_EPS_TOL
    wide, lo + TIGHT_EPS_TOL closes it and its midpoint is returned. This
    takes about 6 `ldp_sup` solves where bisection takes 32. With c = 0,
    `ldp_sup` returns the top singular direction, whose bound is the margin
    (1 + g) s_1 - (g - 1) itself, so the answer is ln((1 + s_1)/(1 - s_1))
    to rounding after four solves.
    """
    cap = MAX_CHANNEL_BUDGET

    def margin(eps):
        _, u = ldp_sup(ch, eps)
        return _margin(ch, eps, u), u

    if margin(cap)[0] > MARGIN_TOL:
        raise DivergedError(
            f"channel is not eps-LDP for any eps <= {cap}; effectively non-private"
        )
    m, u = margin(0.0)
    if m <= MARGIN_TOL:
        return 0.0
    lo, hi = 0.0, cap
    while hi - lo > 2.0 * TIGHT_EPS_TOL:
        slope, intercept = _slope_intercept(ch, u)
        x = 0.5 * (lo + hi)
        if slope < 0.0 < intercept:
            newton = math.log(-intercept / slope) - 0.5 * TIGHT_EPS_TOL
            if newton < hi:
                x = newton
        x = min(max(x, lo + TIGHT_EPS_TOL), hi - TIGHT_EPS_TOL)
        m, u_x = margin(x)
        if m > 0.0:
            lo, u = x, u_x
        else:
            hi = x
    x = lo + TIGHT_EPS_TOL
    if x < hi:
        if margin(x)[0] > 0.0:
            lo = x
        else:
            hi = x
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class AuditResult:
    eps: float
    n: int
    seed: int
    max_divergence: float
    consistent: bool
    worst_pair: tuple

    def to_dict(self):
        w, v = self.worst_pair
        return {
            "eps": self.eps,
            "n": self.n,
            "seed": self.seed,
            "max_divergence": self.max_divergence,
            "consistent": self.consistent,
            "worst_omega": w.tolist(),
            "worst_nu": v.tolist(),
        }


def audit_by_sampling(ch, eps, n, seed, extra_pairs=None):
    """Hockey-stick sampling audit (the only qudit-capable check).

    E_gamma is jointly convex in (rho, sigma) and the channel is linear, so
    E_gamma(N(rho) || N(sigma)) is jointly convex in the input pair and its
    supremum over state pairs sits on pure pairs (Hirche, Rouze and Franca,
    IEEE Trans. Inf. Theory 2023). The audit therefore draws all 2n states
    as Haar-random pure states, in one `bloch.random_bloch_vector` batch,
    and pairs them as (draw 2i, draw 2i + 1). Pushes the pairs through the
    channel and evaluates E_{e^eps} on the outputs, pair by pair. Can
    refute LDP (max divergence > 1e-9) but never prove it. `extra_pairs`
    lets a caller drive the audit toward suspected witnesses: each is two
    Bloch vectors of length d^2 - 1 inside the state body, checked like
    any state, and they are evaluated ahead of the sampled pairs.
    """
    check_channel_budget(eps)
    if not 1 <= n <= MAX_AUDIT_PAIRS:
        raise InvalidInputError(
            f"the audit needs n >= 1 pairs and at most {MAX_AUDIT_PAIRS}, "
            f"got {n}")
    extra = [_state_pair(pair, ch.d) for pair in extra_pairs or ()]
    rng = np.random.default_rng(seed)
    gamma = float(np.exp(eps))
    X = bloch.random_bloch_vector(ch.d, rng, size=2 * n)
    W = np.array([w for w, _ in extra] + list(X[0::2]))
    V = np.array([v for _, v in extra] + list(X[1::2]))
    out_w = channels.apply(ch, W)
    out_v = channels.apply(ch, V)
    if ch.d == 2:
        vals = divergence.hockey_stick_qubit(out_w, out_v, gamma)
    else:
        vals = np.array([
            divergence.hockey_stick_unchecked(bloch.to_density(ww, ch.d),
                                              bloch.to_density(vv, ch.d), gamma)
            for ww, vv in zip(out_w, out_v)
        ])
    worst = int(np.argmax(vals))
    max_div = float(vals[worst])
    return AuditResult(
        eps=float(eps),
        n=int(n),
        seed=int(seed),
        max_divergence=max_div,
        consistent=bool(max_div <= AUDIT_TOL),
        # copies: row views would keep the whole batch alive
        worst_pair=(W[worst].copy(), V[worst].copy()),
    )


def _state_pair(pair, d):
    """Two Bloch vectors of states of dimension d, or InvalidInputError /
    NotAStateError."""
    try:
        w, v = (np.asarray(x, dtype=float) for x in pair)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(
            f"an extra pair must be two Bloch vectors, got {pair!r}") from exc
    for x in (w, v):
        bloch.to_density(x, d)
    return w, v
