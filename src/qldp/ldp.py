"""Epsilon-LDP certification of qubit affine channels.

A qubit channel (A, c) is eps-LDP iff
    sup_{||w||<=1, ||v||<=1} ||A w - e^eps A v + (1 - e^eps) c|| <= e^eps - 1.
For a fixed direction u both inner maximizations are linear over unit
balls, so the supremum equals
    max_{||u||=1} (1 + e^eps) ||A^T u|| + (1 - e^eps) c^T u,
a convex maximization over S^2 solved by multi-start ascent (and exactly
by the largest singular value when c = 0).
"""

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


def sup_objective(A, c, g):
    """The certification objective (1 + g) ||A^T u|| + (1 - g) c^T u with
    g = e^eps, as the pair (value, gradient) of functions on a (k, 3) batch
    of unit rows U, returning shape (k,) and (k, 3)."""

    def value(U):
        return (1.0 + g) * np.linalg.norm(U @ A, axis=1) + (1.0 - g) * (U @ c)

    def gradient(U):
        atu = U @ A
        norms = np.linalg.norm(atu, axis=1, keepdims=True)
        atu = atu / np.where(norms > 0, norms, 1.0)
        return (1.0 + g) * atu @ A.T + (1.0 - g) * c

    return value, gradient


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
    seeds = seed_directions(3, 128, extra=extra)
    value, gradient = sup_objective(A, c, g)
    return maximize_convex_on_sphere(value, gradient, seeds)


def _margin(ch, eps, u):
    """Certification margin sup - (e^eps - 1) at maximizer u, grouped as
    e^eps (a - b - 1) + (a + b + 1) with a = ||A^T u||, b = c^T u to avoid
    the catastrophic cancellation of two huge exponentials at large eps."""
    g = float(np.exp(eps))
    a = float(np.linalg.norm(ch.A.T @ u))
    b = float(ch.c @ u)
    return g * (a - b - 1.0) + (a + b + 1.0)


def certify(ch, eps):
    """Exact certification result with a witness state pair."""
    sup_value, u = ldp_sup(ch, eps)
    atu = ch.A.T @ u
    norm_atu = np.linalg.norm(atu)
    if norm_atu > 0:
        w = atu / norm_atu
        v = -atu / norm_atu
    else:
        # degenerate direction: the norm term vanishes, any unit pair works
        w = u.copy()
        v = -u.copy()
    margin = _margin(ch, eps, u)
    return LdpCertificate(
        eps=float(eps),
        sup_value=sup_value,
        margin=float(margin),
        verdict=bool(margin <= MARGIN_TOL),
        witness_u=u,
        witness_pair=(w, v),
    )


def witness_norm(ch, eps, w, v):
    """Left-hand side ||A w - e^eps A v + (1 - e^eps) c|| at a state pair."""
    g = np.exp(eps)
    return float(np.linalg.norm(ch.A @ w - g * (ch.A @ v) + (1.0 - g) * ch.c))


def tight_epsilon(ch):
    """Smallest eps at which the channel certifies, by bisection on the
    (monotone for calibrated families) margin. Raises DivergedError if the
    channel is not LDP even at eps = MAX_CHANNEL_BUDGET."""
    cap = MAX_CHANNEL_BUDGET

    def margin(eps):
        _, u = ldp_sup(ch, eps)
        return _margin(ch, eps, u)

    if margin(cap) > MARGIN_TOL:
        raise DivergedError(
            f"channel is not eps-LDP for any eps <= {cap}; effectively non-private"
        )
    if margin(0.0) <= MARGIN_TOL:
        return 0.0
    lo, hi = 0.0, cap
    while hi - lo > TIGHT_EPS_TOL:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
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

    Draws n state pairs with `bloch.random_bloch_vector` (uniform over the
    valid set for d <= 3, the Hilbert-Schmidt ensemble for d >= 4), pushes
    them through the channel, and evaluates E_{e^eps} on the outputs. Can
    refute LDP (max divergence > 1e-9) but never prove it. `extra_pairs`
    lets a caller drive the audit toward suspected witnesses.
    """
    check_channel_budget(eps)
    if n < 1:
        raise InvalidInputError(f"the audit needs n >= 1 pairs, got {n}")
    rng = np.random.default_rng(seed)
    gamma = float(np.exp(eps))
    pairs_w = []
    pairs_v = []
    if extra_pairs:
        for (w, v) in extra_pairs:
            pairs_w.append(np.asarray(w, dtype=float))
            pairs_v.append(np.asarray(v, dtype=float))
    for _ in range(n):
        pairs_w.append(bloch.random_bloch_vector(ch.d, rng))
        pairs_v.append(bloch.random_bloch_vector(ch.d, rng))
    W = np.array(pairs_w)
    V = np.array(pairs_v)
    out_w = channels.apply(ch, W)
    out_v = channels.apply(ch, V)
    if ch.d == 2:
        vals = divergence.hockey_stick_qubit(out_w, out_v, gamma)
    else:
        vals = np.array([
            divergence.hockey_stick(bloch.to_density(ww, ch.d),
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
        worst_pair=(W[worst], V[worst]),
    )
