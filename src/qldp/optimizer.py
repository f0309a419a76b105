"""Derivative-free search over eps-LDP qubit channels maximizing output QFI.

The search is evidence, not proof: results are the best feasible channel
found by multi-start coordinate pattern search, with the depolarizing
channel always among the starts (so the reported value never falls below
the achievability mechanism). Feasibility is a radial projection: the
certification supremum S(A, c) is positively homogeneous, S(tA, tc) =
t S(A, c), and the output QFI grows along every ray from the origin, so
the best eps-LDP point on a ray is (A, c) scaled by min(1, (e^eps - 1) / S).
"""

from dataclasses import dataclass

import numpy as np

from . import bounds, channels, ldp, qfi as qfi_mod
from .exceptions import InvalidBudgetError, UnsupportedDimensionError, check_budget


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


class _WarmSup:
    """Cheap warm-started estimate of the certification supremum.

    Runs a few Frank-Wolfe iterations of the dual sphere maximization
    from a persistent block of directions; a lower estimate, so the final
    candidate is projected with the exact supremum.
    """

    def __init__(self, g):
        self.g = g
        U = np.random.default_rng(1).standard_normal((12, 3))
        self.U = U / np.linalg.norm(U, axis=1, keepdims=True)

    def __call__(self, A, c):
        value, gradient = ldp.sup_objective(A, c, self.g)
        U = self.U
        for _ in range(6):
            grad = gradient(U)
            gn = np.linalg.norm(grad, axis=1, keepdims=True)
            U = np.where(gn > 0, grad / np.where(gn > 0, gn, 1.0), U)
        self.U = U
        return float(np.max(value(U)))


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


def maximize_qfi(fam, lam, eps, starts=32, seed=0, c_zero=False,
                 max_evals=20000):
    """Multi-start pattern search for the highest-QFI eps-LDP channel.

    Starts include the depolarizing channel, random perturbations of it,
    and c = 0 rotations of it. Candidates are scored at their projection,
    with the exact supremum (1 + e^eps) sigma_1(A) when c = 0 and a
    warm-started estimate otherwise. The winner is projected with the
    exact supremum and certified once; the depolarizing channel is
    reported instead if the winner falls below it or fails to certify.
    """
    if fam.d != 2:
        raise UnsupportedDimensionError("channel search is qubit-only")
    check_budget(eps)
    if eps <= 0:
        raise InvalidBudgetError(f"eps must be > 0, got {eps}")
    w, dw = fam.point(lam)
    dep_ch = channels.depolarizing(2, eps)
    g = float(np.exp(eps))
    shrink = float(dep_ch.A[0, 0])  # depolarizing 1 - p at this budget
    n = 3
    dim = n * n if c_zero else n * n + n
    dep = np.zeros(dim)
    dep[: n * n] = dep_ch.A.ravel()

    streams = np.random.SeedSequence(seed).spawn(starts)

    def start_point(i, rng):
        if i == 0:
            return dep.copy()
        if i % 3 == 1:
            x = dep.copy()
            x[: n * n] += 0.3 * shrink * rng.standard_normal(n * n)
            if not c_zero:
                x[n * n:] = 0.1 * shrink * rng.standard_normal(n)
            return x
        # random rotation of the depolarizing point (c = 0, same sup)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        x = np.zeros(dim)
        x[: n * n] = (shrink * q).ravel()
        return x

    def split(x):
        return x[: n * n].reshape(n, n), np.zeros(n) if c_zero else x[n * n:]

    def objective(x, sup_fn):
        A, c = split(x)
        if c_zero:
            sup = (1.0 + g) * float(np.linalg.svd(A, compute_uv=False)[0])
        else:
            sup = sup_fn(A, c)
        return _qfi_of(*_project(A, c, sup, g), w, dw)

    best_x = dep.copy()
    best_f = -np.inf
    total_evals = 0
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        sup_fn = None if c_zero else _WarmSup(g)
        x = start_point(i, rng)
        f = objective(x, sup_fn)
        evals = 1
        step = 0.1
        while step > 1e-7 and evals < max_evals:
            improved = False
            for j in range(dim):
                for s in (1.0, -1.0):
                    cand = x.copy()
                    cand[j] += s * step
                    fc = objective(cand, sup_fn)
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

    A, c = split(best_x)
    sup, _ = ldp.ldp_sup(channels.AffineChannel(d=2, A=A, c=c), eps)
    A, c = _project(A, c, sup, g)
    ch = channels.AffineChannel(d=2, A=A, c=c)
    cert = ldp.certify(ch, eps)
    best_qfi = _qfi_of(A, c, w, dw)
    # the depolarizing start is always feasible; never report below it
    dep_qfi = _qfi_of(dep_ch.A, dep_ch.c, w, dw)
    if best_qfi < dep_qfi or not cert.verdict:
        ch, cert, best_qfi = dep_ch, ldp.certify(dep_ch, eps), dep_qfi

    cap = None
    inner = float(dw @ w)
    if abs(inner) > bounds.INNER_PRODUCT_TOL:
        cap = bounds.fisher_cap_thm1(fam, lam, eps)
    elif c_zero and 0.0 < eps < 0.5:
        cap = bounds.fisher_cap_thm2(fam, lam, eps)
    return ChannelSearchResult(
        best_channel=ch,
        best_qfi=float(best_qfi),
        fisher_cap=cap,
        cap_ratio=float(best_qfi / cap) if cap else None,
        starts=int(starts),
        seed=int(seed),
        eps=float(eps),
        feasibility_margin=float(cert.margin),
        evaluations=int(total_evals),
    )


def sweep(fam, lam, eps_grid, starts=32, seed=0, c_zero=False):
    """One search per budget in eps_grid; returns the list of results."""
    return [maximize_qfi(fam, lam, float(eps), starts=starts, seed=seed + k,
                         c_zero=c_zero) for k, eps in enumerate(eps_grid)]
