"""Search over eps-LDP qubit channels (A, c) maximizing the output QFI.

Feasibility is a radial projection: the certification supremum S(A, c) is
positively homogeneous, S(tA, tc) = t S(A, c), and the output QFI grows
along every ray from the origin, so the best eps-LDP point on a ray is
(A, c) scaled by min(1, (e^eps - 1) / S).

Reduction to span{w, dw}. The output state and its derivative are A w + c
and A dw, so the QFI sees A only on span{w, dw}. Let P be an orthonormal
basis (3 x r) of that span, r = 1 when w is parallel to dw (radial-type
families) and r = 2 otherwise. Replacing A by A P P^T keeps the QFI and
never raises ||A^T u|| (P P^T is an orthogonal projection), hence never
raises S. The search therefore moves over A = B P^T, i.e. over B (3 r
numbers) and c, instead of all 12 entries of (A, c); ||A^T u|| = ||B^T u||
and A w = B (P^T w), so every score is computed from B directly.

Exact supremum on the span. As ||B^T u|| = max_{||z||<=1} z^T B^T u,
swapping the two maximizations gives, with g = e^eps,
    S = max_{||u||=1} (1 + g) ||B^T u|| - (g - 1) c^T u
      = max_{||z||=1, z in R^r} ||(1 + g) B z - (g - 1) c||
(convex in z, so the maximum over the ball is on the sphere). For r = 1,
z = +-1. For r = 2 it is the trust-region subproblem on the circle,
solved exactly, hard cases included, by `sphere.max_norm_on_sphere`. So
every candidate of either rank is scored exactly; no Frank-Wolfe runs here.

c = 0 is solved. The feasible set sigma_1(A) <= kappa, with
kappa = (e^eps - 1) / (e^eps + 1), is the convex hull of kappa O(3). The QFI
is convex in A: it is the maximum over measurements of classical Fisher
informations (Braunstein and Caves, PRL 72, 3439, 1994), each jointly
convex in (p, dp), and the output is affine in A. It is also invariant
under A -> Q A for orthogonal Q. So its maximum sits at an extreme point
kappa Q, whose QFI is that of kappa I: the depolarizing channel.

With c free the search is evidence, not proof: the best feasible channel
found by multi-start coordinate pattern search, with the depolarizing
channel among the starts. The winner is projected with the exact
supremum and checked for complete positivity; if it passes and beats the
depolarizing channel by more than rounding it is certified, once. The
depolarizing channel is reported instead if any check fails.
"""

from dataclasses import dataclass

import numpy as np

from . import bounds, channels, ldp, qfi as qfi_mod
from .exceptions import (
    InvalidBudgetError,
    InvalidInputError,
    UnsupportedDimensionError,
    check_budget,
)
from .sphere import max_norm_on_sphere

# the start streams are spawned as a list, ~1.1 KB each: ~1 MB at the bound
# (the search is qubit-only, so MAX_DIM does not enter)
MAX_STARTS = 1000
# a search winner within this relative QFI of the depolarizing channel ties
# with it, and the depolarizing channel is reported
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class ChannelSearchResult:
    best_channel: channels.AffineChannel
    best_qfi: float
    fisher_cap: float  # None when no cap applies
    cap_ratio: float  # None when no nonzero cap applies
    starts: int
    seed: int
    eps: float
    feasibility_margin: float
    evaluations: int

    def to_dict(self):
        return dict(vars(self), best_channel=self.best_channel.to_dict())


def _span_basis(w, dw):
    """Orthonormal basis (3 x r) of span{w, dw}; r = 1 when w is parallel
    to dw (up to rounding), 2 otherwise."""
    u, s, _ = np.linalg.svd(np.column_stack([dw, w]))
    return u[:, :1] if s[1] <= 1e-12 * s[0] else u[:, :2]


def _span_sup(B, c, g):
    """The exact certification supremum of A = B P^T at g = e^eps:
    max over unit z in R^r of ||(1 + g) B z - (g - 1) c||, r = 1 or 2."""
    b = (g - 1.0) * c
    if B.shape[1] == 1:
        a = (1.0 + g) * B[:, 0]
        return max(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))
    return max_norm_on_sphere((1.0 + g) * B, b)


def _project(A, c, sup, g):
    """Scale (A, c), whose certification supremum is `sup`, by
    t = min(1, (g - 1) / sup) onto the set of eps-LDP channels."""
    if sup <= g - 1.0:
        return A, c
    t = (g - 1.0) / sup
    return t * A, t * c


def _qfi_of(A, c, w, dw):
    """Output QFI of the channel (A, c), or -inf when the output state
    leaves the open Bloch ball."""
    wbar = A @ w + c
    if float(wbar @ wbar) >= 1.0:
        return -np.inf
    return qfi_mod.qfi_qubit(wbar, A @ dw).value


def _pattern_search(w, dw, g, shrink, starts, seed, max_evals):
    """Multi-start coordinate pattern search over (B, c), A = B P^T, at
    g = e^eps. Starts are the depolarizing point shrink * P, random
    perturbations of it and c = 0 rotations of it; candidates are scored at
    their projection. Returns the best (A, c) found, projected, and the
    number of evaluations."""
    P = _span_basis(w, dw)
    n, r = P.shape
    k = n * r
    dim = k + n
    pw, pdw = P.T @ w, P.T @ dw
    dep = np.zeros(dim)
    dep[:k] = (shrink * P).ravel()

    def start_point(i, rng):
        if i == 0:
            return dep.copy()
        if i % 3 == 1:
            x = dep.copy()
            x[:k] += 0.3 * shrink * rng.standard_normal(k)
            x[k:] = 0.1 * shrink * rng.standard_normal(n)
            return x
        # random rotation of the depolarizing point (c = 0, same sup)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        x = np.zeros(dim)
        x[:k] = (shrink * q @ P).ravel()
        return x

    def split(x):
        return x[:k].reshape(n, r), x[k:]

    def project(x):
        B, c = split(x)
        return _project(B, c, _span_sup(B, c, g), g)

    def objective(x):
        return _qfi_of(*project(x), pw, pdw)

    best_x = dep.copy()
    best_f = -np.inf
    total_evals = 0
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(starts)):
        rng = np.random.default_rng(stream)
        x = start_point(i, rng)
        f = objective(x)
        evals = 1
        step = 0.1
        while step > 1e-7 and evals < max_evals:
            improved = False
            for j in range(dim):
                for s in (1.0, -1.0):
                    cand = x.copy()
                    cand[j] += s * step
                    fc = objective(cand)
                    evals += 1
                    if fc > f + 1e-12:
                        x, f = cand, fc
                        improved = True
                        break
                if evals >= max_evals:
                    break
            if not improved:
                step *= 0.5
        total_evals += evals
        if f > best_f:
            best_f, best_x = f, x

    B, c = project(best_x)
    return B @ P.T, c, total_evals


def maximize_qfi(fam, lam, eps, starts=32, seed=0, c_zero=False,
                 max_evals=20000):
    """The highest-QFI eps-LDP qubit channel for the family at lam.

    With c_zero the answer is the depolarizing channel, by the convexity
    argument in the module docstring, and no search runs (`evaluations`
    is 0; `starts` and `seed` are echoed). Otherwise a multi-start pattern
    search over A = B P^T restricted to span{w, dw} (6 numbers when w is
    parallel to dw, 9 otherwise), every candidate scored at its projection
    with the exact supremum on the span, not a Frank-Wolfe estimate. The
    projected winner must lead the depolarizing QFI by more than TIE_RTOL
    relative and pass complete positivity, and only then is certified; the
    depolarizing channel is reported instead if the winner fails any of
    the three.
    """
    if fam.d != 2:
        raise UnsupportedDimensionError("channel search is qubit-only")
    check_budget(eps)
    if eps <= 0:
        raise InvalidBudgetError(f"eps must be > 0, got {eps}")
    if starts > MAX_STARTS:
        raise InvalidInputError(f"at most {MAX_STARTS} starts, got {starts}")
    cap = bounds.fisher_cap(fam, lam, eps, c_zero)  # dw = 0 raises, unsearched
    w, dw = fam.point(lam)
    dep_ch = channels.depolarizing(2, eps)
    dep_qfi = _qfi_of(dep_ch.A, dep_ch.c, w, dw)
    g = float(np.exp(eps))
    shrink = float(dep_ch.A[0, 0])  # depolarizing 1 - p at this budget

    ch, best_qfi, evaluations = dep_ch, dep_qfi, 0
    if not c_zero:
        A, c, evaluations = _pattern_search(w, dw, g, shrink, starts, seed,
                                            max_evals)
        found = channels.AffineChannel(d=2, A=A, c=c)
        found_qfi = _qfi_of(A, c, w, dw)
        # the depolarizing start is always feasible: report a winner only
        # when it leads by more than rounding (TIE_RTOL), and certify only
        # one that passes the cheaper checks
        if (channels.cp_check(found)[0]
                and found_qfi - dep_qfi > TIE_RTOL * dep_qfi):
            cert = ldp.certify(found, eps)
            if cert.verdict:
                ch, best_qfi = found, found_qfi
    if ch is dep_ch:
        cert = ldp.certify(dep_ch, eps)

    return ChannelSearchResult(
        best_channel=ch,
        best_qfi=float(best_qfi),
        fisher_cap=cap,
        cap_ratio=float(best_qfi / cap) if cap else None,
        starts=int(starts),
        seed=int(seed),
        eps=float(eps),
        feasibility_margin=float(cert.margin),
        evaluations=int(evaluations),
    )


def sweep(fam, lam, eps_grid, starts=32, seed=0, c_zero=False):
    """One search per budget in eps_grid; returns the list of results."""
    return [maximize_qfi(fam, lam, float(eps), starts=starts, seed=seed + k,
                         c_zero=c_zero) for k, eps in enumerate(eps_grid)]
