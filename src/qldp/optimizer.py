"""Derivative-free search over eps-LDP qubit channels maximizing output QFI.

The search is evidence, not proof: results are the best feasible channel
found by multi-start coordinate pattern search, with the depolarizing
channel always among the starts (so the reported value never falls below
the achievability mechanism). Every reported channel is re-certified
exactly before being returned.
"""

from dataclasses import dataclass

import numpy as np

from . import bounds, channels, ldp, qfi as qfi_mod
from .exceptions import InvalidBudgetError, UnsupportedDimensionError, check_budget

PENALTY = 1e6
MARGIN_TARGET = 0.5e-9


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


class _WarmMargin:
    """Cheap warm-started estimate of the certification margin.

    Runs a few Frank-Wolfe iterations of the dual sphere maximization
    from a persistent direction block; a lower estimate of the supremum,
    so the final candidate is always re-certified exactly.
    """

    def __init__(self, g, k=12, iters=6):
        self.g = g
        self.iters = iters
        rng = np.random.default_rng(1)
        U = rng.standard_normal((k, 3))
        self.U = U / np.linalg.norm(U, axis=1, keepdims=True)

    def __call__(self, A, c):
        value, gradient = ldp.sup_objective(A, c, self.g)
        U = self.U
        for _ in range(self.iters):
            grad = gradient(U)
            gn = np.linalg.norm(grad, axis=1, keepdims=True)
            U = np.where(gn > 0, grad / np.where(gn > 0, gn, 1.0), U)
        self.U = U
        sup = float(np.max(value(U)))
        return sup - (self.g - 1.0)


def _qfi_of(A, c, w, dw):
    """Output QFI of the channel (A, c), or -inf when the output state
    leaves the open Bloch ball."""
    wbar = A @ w + c
    if float(wbar @ wbar) >= 1.0:
        return -np.inf
    return qfi_mod.qfi_qubit(wbar, A @ dw).value


def _restore_feasibility(x, center, eps, c_zero, n=3):
    """Shrink a candidate toward a strictly feasible center until the
    exact certification margin clears the tolerance. The margin is convex
    along the segment and negative at the center, so the feasible
    sublevel set on [0, 1] is an interval containing 0."""

    def channel_at(t):
        y = center + t * (x - center)
        A = y[: n * n].reshape(n, n)
        c = np.zeros(n) if c_zero else y[n * n:]
        return channels.AffineChannel(d=2, A=A, c=c), y

    ch, _ = channel_at(1.0)
    cert = ldp.certify(ch, eps)
    if cert.margin <= MARGIN_TARGET:
        return ch, cert
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ch_mid, _ = channel_at(mid)
        cert_mid = ldp.certify(ch_mid, eps)
        if cert_mid.margin <= MARGIN_TARGET:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    ch_fin, _ = channel_at(lo)
    return ch_fin, ldp.certify(ch_fin, eps)


def maximize_qfi(fam, lam, eps, starts=32, seed=0, c_zero=False,
                 max_evals=20000, init_step=0.1, min_step=1e-7):
    """Multi-start pattern search for the highest-QFI eps-LDP channel.

    Starts include the depolarizing channel, feasible random
    perturbations of it, and c = 0 rotations of it. Infeasibility is
    penalized in-loop with a warm-started margin estimate; the winning
    candidate is restored to exact feasibility before being reported.
    """
    if fam.d != 2:
        raise UnsupportedDimensionError("channel search is qubit-only")
    check_budget(eps)
    if eps <= 0:
        raise InvalidBudgetError(f"eps must be > 0, got {eps}")
    w, dw = fam.point(lam)
    g = float(np.exp(eps))
    shrink = (g - 1.0) / (g + 1.0)  # depolarizing 1 - p at this budget
    n = 3
    dim = n * n if c_zero else n * n + n

    dep = np.zeros(dim)
    dep[: n * n] = (shrink * np.eye(n)).ravel()
    # strictly feasible restoration center
    center = 0.995 * dep

    master = np.random.SeedSequence(seed)
    streams = master.spawn(starts)

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

    def objective(x, margin_fn):
        A = x[: n * n].reshape(n, n)
        c = np.zeros(n) if c_zero else x[n * n:]
        f = _qfi_of(A, c, w, dw)
        if not np.isfinite(f):
            return -np.inf
        if c_zero:
            m = (1.0 + g) * float(np.linalg.svd(A, compute_uv=False)[0]) \
                - (g - 1.0)
        else:
            m = margin_fn(A, c)
        return f - PENALTY * max(0.0, m)

    best_x = dep.copy()
    best_f = -np.inf
    total_evals = 0
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        margin_fn = None if c_zero else _WarmMargin(g)
        x = start_point(i, rng)
        f = objective(x, margin_fn)
        evals = 1
        step = init_step
        while step > min_step and evals < max_evals:
            improved = False
            for j in range(dim):
                for s in (1.0, -1.0):
                    cand = x.copy()
                    cand[j] += s * step
                    fc = objective(cand, margin_fn)
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

    ch, cert = _restore_feasibility(best_x, center, eps, c_zero)
    best_qfi = _qfi_of(ch.A, ch.c, w, dw)
    # the depolarizing seed is always feasible; never report below it
    dep_ch = channels.depolarizing(2, eps)
    dep_qfi = _qfi_of(dep_ch.A, dep_ch.c, w, dw)
    if best_qfi < dep_qfi:
        ch = dep_ch
        cert = ldp.certify(ch, eps)
        best_qfi = dep_qfi

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


def sweep(fam, lam, eps_grid, starts=32, seed=0, c_zero=False, **kwargs):
    """One search per budget in eps_grid; returns the list of results."""
    results = []
    for k, eps in enumerate(eps_grid):
        results.append(
            maximize_qfi(fam, lam, float(eps), starts=starts,
                         seed=seed + k, c_zero=c_zero, **kwargs)
        )
    return results
