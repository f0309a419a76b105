"""Epsilon-LDP certification of qubit affine channels.

A qubit channel (A, c) is eps-LDP iff
    sup_{||w||<=1, ||v||<=1} ||A w - e^eps A v + (1 - e^eps) c|| <= e^eps - 1.
For a fixed direction u both inner maximizations are linear over unit
balls, so the supremum equals
    max_{||u||=1} (1 + e^eps) ||A^T u|| + (1 - e^eps) c^T u
  = max_{||z||=1} ||(1 + e^eps) A z - (e^eps - 1) c||
(swap the maximizations in ||A^T u|| = max_{||z||<=1} z^T A^T u), attained
at u = ((1 + e^eps) A z - (e^eps - 1) c) / ||.||: one trust-region
subproblem, solved exactly by `sphere.max_norm_on_sphere` (no multi-start
ascent, no c = 0 special case); every qubit supremum here is its value.

In g = e^eps the certification margin sup - (g - 1) is
    max_{||u||=1} N(u) - g D(u),  N = 1 + a_u + b_u,  D = 1 - a_u + b_u,
with a_u = ||A^T u|| and b_u = c^T u. So direction u needs e^eps >= N/D
(no budget will do when D <= 0), and the tight budget is the fractional
program
    e^eps* = max_{||u||=1} (1 + a_u + b_u) / (1 - a_u + b_u).
`tight_epsilon` solves it by Dinkelbach's iteration (W. Dinkelbach, "On
nonlinear fractional programming", Management Science 13(7), 1967): the
direction that `certify` refuses at one budget sets the next, the budget
that direction needs, which is above the refused one and never above eps*.
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
    check_count,
)
# maximize_convex_on_sphere is uncalled; the benchmark's tracer pins it here
from .sphere import max_norm_on_sphere, maximize_convex_on_sphere  # noqa: F401

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
    """(sup, u): the exact `max_norm_on_sphere` value, never below the
    supremum but for rounding, and the direction u of its maximizer z (any
    unit u attains a supremum of 0)."""
    _require_qubit(ch)
    check_channel_budget(eps)
    em1 = math.expm1(eps)
    M, b = (2.0 + em1) * ch.A, em1 * ch.c
    value, z = max_norm_on_sphere(M, b)
    u = M @ z - b
    norm = np.linalg.norm(u)
    return value, (u / norm if norm > 0 else z)


def certify(ch, eps):
    """Exact certification result with a witness state pair. The margin and
    the verdict come from the `ldp_sup` value, never below the supremum."""
    sup_value, u = ldp_sup(ch, eps)
    atu = ch.A.T @ u
    norm_atu = np.linalg.norm(atu)
    # at a degenerate direction the norm term vanishes: any unit pair works
    w = atu / norm_atu if norm_atu > 0 else u.copy()
    v = -w
    margin = sup_value - math.expm1(eps)
    return LdpCertificate(
        eps=float(eps),
        sup_value=sup_value,
        margin=float(margin),
        verdict=bool(margin <= MARGIN_TOL),
        witness_u=u,
        witness_pair=(w, v),
    )


def tight_epsilon(ch):
    """The smallest eps at which `certify` accepts the channel, up to the
    convergence of Dinkelbach's iteration on the fractional program in the
    module docstring. Raises DivergedError if the channel is not LDP even
    at eps = MAX_CHANNEL_BUDGET.

    The test at each budget is `certify`'s verdict. A refused budget's
    witness direction u gives the step to eps(u) = log1p(2 a_u / D(u)),
    the budget u needs: above the refused budget and never above the
    answer, so the first step that certifies is returned, and `certify`
    accepts what this returns by construction. With c = 0, u is the top
    left singular vector of A and the first step from 0 lands on
    ln((1 + s_1)/(1 - s_1)). A bracket [lo, hi] of the refused and the
    certified budgets is the fallback for a step that makes no progress
    (it leaves the bracket, as from a poor direction): it then takes
    midpoints, and once hi - lo <= TIGHT_EPS_TOL returns the certified hi.
    """
    cap = MAX_CHANNEL_BUDGET
    if not certify(ch, cap).verdict:
        raise DivergedError(
            f"channel is not eps-LDP for any eps <= {cap}; effectively non-private"
        )
    lo, hi, x, stepped = 0.0, cap, 0.0, True
    while True:
        cert = certify(ch, x)
        if cert.verdict and stepped:  # 0.0, or the first certified step
            return x
        if cert.verdict:
            hi = x
        else:
            lo, u = x, cert.witness_u
            a = float(np.linalg.norm(ch.A.T @ u))
            den = 1.0 - a + float(ch.c @ u)
            step = math.log1p(2.0 * a / den) if den > 0.0 else math.inf
        if hi - lo <= TIGHT_EPS_TOL:
            return hi
        stepped = lo < step < hi
        x = step if stepped else 0.5 * (lo + hi)


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
    check_count("n", n, 1, MAX_AUDIT_PAIRS)
    check_count("seed", seed)
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
