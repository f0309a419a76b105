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
z = +-1, a closed form in ||b||^2, ||c||^2 and |<b, c>|. For r = 2 it is
the trust-region subproblem on the circle, solved exactly, hard cases
included, by `sphere.max_norm_on_sphere`. So every candidate of either
rank is scored exactly.

Scoring from inner products. A candidate (B, c) is scored at its
projection t (B, c) without building it: the output and its derivative
at the projection are t (B P^T w + c) and t B P^T dw, so their inner
products are t^2 times those of the unscaled columns, and the QFI is
`qfi.qubit_qfi_kernel` of the three, the one qubit QFI formula (the
checked `qfi.qfi_qubit` calls it too).

c = 0 is solved. The feasible set sigma_1(A) <= kappa, with
kappa = expm1(eps) / (expm1(eps) + 2), is the convex hull of kappa O(3).
The QFI is convex in A: it is the maximum over measurements of classical
Fisher informations (Braunstein and Caves, PRL 72, 3439, 1994), each
jointly convex in (p, dp), and the output is affine in A. It is also
invariant under A -> Q A for orthogonal Q. So its maximum sits at an
extreme point kappa Q, whose QFI is that of kappa I: the depolarizing
channel.

c free is solved too: among all eps-LDP affine qubit maps, with any c,
the largest output QFI is QFI(kappa w, kappa dw), which the depolarizing
channel attains. The output QFI is the maximum over unit n of the Fisher
information of the projective measurement along n. Pulled back through
the channel, that measurement's effect is ((1 + b) I + a.sigma) / 2, with
a = A^T n and b = c^T n, and eps-LDP bounds its outcome ratios exactly
when |a| <= kappa (1 - |b|): (a, b) lies in a double cone K. The Fisher
information F(a, b) = (a.dw)^2 / (1 - (b + a.w)^2) is jointly convex in
(p, dp), which are affine in (a, b), so its maximum over K sits at an
apex (a = 0, F = 0) or on the rim b = 0, |a| = kappa, where its maximum
over directions is QFI(kappa w, kappa dw).
`tests/test_optimizer.py::test_no_ldp_measurement_beats_the_depolarizing_qfi`
is its randomized check, at 20,000 points of K per family and budget.

The multi-start coordinate pattern search over (A, c), with the
depolarizing channel among the starts, still runs with c free. Its winner
is projected with the exact supremum and checked for complete positivity;
if it passes and beats the depolarizing channel by more than rounding it
is certified, once. The depolarizing channel is reported instead if any
check fails; by the theorem no winner leads it by more than rounding.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import bounds, channels, ldp, qfi as qfi_mod
from .exceptions import (
    InvalidBudgetError,
    UnsupportedDimensionError,
    check_budget,
    check_count,
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
    max over unit z in R^r of ||(1 + g) B z - (g - 1) c||, r = 1 or 2.

    For r = 1, with b = B[:, 0], it is max ||(1 + g) b +- (g - 1) c||
      = sqrt((1 + g)^2 ||b||^2 + (g - 1)^2 ||c||^2 + 2 (g^2 - 1) |<b, c>|),
    from three inner products; every term is non-negative, so nothing
    cancels. For r = 2 it is `max_norm_on_sphere`."""
    if B.shape[1] == 1:
        b = B.ravel()
        bb, cc = float(np.dot(b, b)), float(np.dot(c, c))
        bc = abs(float(np.dot(b, c)))
        return math.sqrt((1.0 + g) ** 2 * bb + (g - 1.0) ** 2 * cc
                         + 2.0 * (g - 1.0) * (g + 1.0) * bc)
    return max_norm_on_sphere((1.0 + g) * B, (g - 1.0) * c)[0]


def _project(sup, g):
    """The scale t = min(1, (g - 1) / sup) that takes a point (A, c) whose
    certification supremum is `sup` to (tA, tc), on the set of eps-LDP
    channels."""
    return 1.0 if sup <= g - 1.0 else (g - 1.0) / sup


def _qfi_of(ww, dd, wd):
    """Output QFI from the inner products ||wbar||^2, ||dwbar||^2 and
    <wbar, dwbar> of the output state and its derivative, or -inf when the
    output state leaves the open Bloch ball."""
    if ww >= 1.0:
        return -np.inf
    return qfi_mod.qubit_qfi_kernel(ww, dd, wd)[0]


def _channel_qfi(A, c, w, dw):
    """Output QFI of the channel (A, c) at (w, dw), by `_qfi_of`."""
    wbar, dwbar = A @ w + c, A @ dw
    return _qfi_of(float(wbar @ wbar), float(dwbar @ dwbar),
                   float(wbar @ dwbar))


def _score(B, c, pq, g):
    """Output QFI of (A, c), A = B P^T, at its projection (tA, tc), from
    inner products; the columns of pq are P^T w and P^T dw. The columns of
    Y are wbar / t = A w + c and dwbar / t = A dw."""
    t = _project(_span_sup(B, c, g), g)
    Y = B @ pq
    Y[:, 0] += c
    (ww, wd), (_, dd) = (Y.T @ Y).tolist()
    return _qfi_of(t * t * ww, t * t * dd, t * t * wd)


def _pattern_search(w, dw, g, shrink, starts, seed, max_evals):
    """Multi-start coordinate pattern search over (B, c), A = B P^T, at
    g = e^eps. Starts are the depolarizing point shrink * P, random
    perturbations of it and c = 0 rotations of it; candidates are scored at
    their projection, from inner products. Returns the best (A, c) found,
    projected, and the number of evaluations."""
    P = _span_basis(w, dw)
    n, r = P.shape
    k = n * r
    dim = k + n
    pq = np.column_stack([P.T @ w, P.T @ dw])
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

    def objective(x):
        return _score(*split(x), pq, g)

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

    B, c = split(best_x)
    t = _project(_span_sup(B, c, g), g)
    return (t * B) @ P.T, t * c, total_evals


def maximize_qfi(fam, lam, eps, starts=32, seed=0, c_zero=False,
                 max_evals=20000):
    """The highest-QFI eps-LDP qubit channel for the family at lam.

    With c_zero the answer is the depolarizing channel, by the convexity
    argument in the module docstring, and no search runs (`evaluations`
    is 0; `starts` and `seed` are echoed). Otherwise a multi-start pattern
    search over A = B P^T restricted to span{w, dw} (6 numbers when w is
    parallel to dw, 9 otherwise), every candidate scored at its projection
    with the exact supremum on the span, from inner products by the qubit
    QFI kernel (`_score`). The projected winner must lead the depolarizing
    QFI by more than TIE_RTOL relative and pass complete positivity, and
    only then is certified; the depolarizing channel is reported instead if
    the winner fails any of the three.
    """
    if fam.d != 2:
        raise UnsupportedDimensionError("channel search is qubit-only")
    check_budget(eps)
    if eps <= 0:
        raise InvalidBudgetError(f"eps must be > 0, got {eps}")
    check_count("starts", starts, 0, MAX_STARTS)
    check_count("seed", seed)
    check_count("max_evals", max_evals)
    cap = bounds.fisher_cap(fam, lam, eps, c_zero)  # dw = 0 raises, unsearched
    w, dw = fam.point(lam)
    dep_ch = channels.depolarizing(2, eps)
    dep_qfi = _channel_qfi(dep_ch.A, dep_ch.c, w, dw)
    g = float(np.exp(eps))
    shrink = float(dep_ch.A[0, 0])  # depolarizing 1 - p at this budget

    ch, best_qfi, evaluations = dep_ch, dep_qfi, 0
    if not c_zero:
        A, c, evaluations = _pattern_search(w, dw, g, shrink, starts, seed,
                                            max_evals)
        found = channels.AffineChannel(d=2, A=A, c=c)
        found_qfi = _channel_qfi(A, c, w, dw)
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
