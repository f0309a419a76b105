"""Exact maximization of a norm over the unit sphere.

`max_norm_on_sphere` solves max over unit z of ||M z - b|| exactly, as a
trust-region subproblem, for every sphere supremum in the package: the
qubit LDP supremum (`ldp.ldp_sup`), the image radius
(`channels.image_radius`) and the channel search's rank-2 certification
supremum (`optimizer._span_sup`). The Frank-Wolfe ascent below has no
caller; the benchmark's tracer still wraps it by name.
"""

import math

import numpy as np


def max_norm_on_sphere(M, b):
    """max over unit z in R^r of ||M z - b||, with a maximizer z, as
    (value, z); M (n x r) and b are float arrays.

    With M^T M = Q diag(h) Q^T (h_1 >= h_2 >= ...) and beta = Q^T M^T b,
    strong duality for the trust-region subproblem (More and Sorensen,
    SIAM J. Sci. Stat. Comput. 4, 553, 1983) gives the square of the
    answer as the minimum over lambda >= h_1 of the convex
        D(lambda) = lambda + b^T b + sum_i beta_i^2 / (lambda - h_i).
    Its minimizer solves psi(lambda) = sum_i beta_i^2 / (lambda - h_i)^2
    = 1, or is h_1 when psi <= 1 there (the hard case). Newton steps on
    psi^(-1/2) = 1, which is concave and increasing in lambda, start left
    of the root at h_1 + |beta_1| (or the next double above h_1; at h_1
    itself when every beta is 0) and stay left of it. So sqrt(D) at the
    last step is never below the answer but for rounding, and its error is
    quadratic in that of lambda.

    For unit z, y = Q^T z and any lambda >= h_1, ||M z - b||^2 is
    D(lambda) - sum_i (lambda - h_i)(y_i - y*_i)^2, y*_i = -beta_i /
    (lambda - h_i). So y = y*, except that y_1 completes z to unit length,
    with the sign of -beta_1, when lambda - h_1 <= 1e-8 lambda (the hard
    case and near it): rounding spoils y*_1 there, and errors cost least.
    """
    h, Q = np.linalg.eigh(M.T @ M)
    h, Q = h[::-1], Q[:, ::-1]
    beta = Q.T @ (M.T @ b)
    keep = beta != 0.0
    beta2, hk = beta[keep] ** 2, h[keep]
    lam = h[0] + abs(beta[0])
    if keep.any():
        lam = max(lam, np.nextafter(h[0], np.inf))
    for _ in range(100):
        t = beta2 / (lam - hk) ** 2
        psi = t.sum()
        if psi <= 1.0:
            break
        step = (psi ** 1.5 - psi) / (t / (lam - hk)).sum()
        if not lam + step > lam:
            break
        lam += step
    y = np.zeros_like(beta)
    y[keep] = -beta[keep] / (lam - hk)
    if lam - h[0] <= 1e-8 * lam:
        top = math.sqrt(max(0.0, 1.0 - y[1:] @ y[1:]))
        y[0] = top if beta[0] <= 0.0 else -top
    z = Q @ y
    value = float(np.sqrt(lam + b @ b + (beta2 / (lam - hk)).sum()))
    return value, z / np.linalg.norm(z)


def maximize_convex_on_sphere(value, gradient, seeds):
    """Maximize a convex objective over unit vectors by batched
    Frank-Wolfe ascent from `seeds` (shape (k, m)).

    `value(U)` and `gradient(U)` operate on a (k, m) batch of unit rows
    and return shape (k,) and (k, m). Returns (best_value, best_u).
    """
    u = np.array(seeds, dtype=float)
    f = value(u)
    for _ in range(200):
        g = gradient(u)
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        ok = norms[:, 0] > 0
        if not np.any(ok):
            break
        u_new = np.where(ok[:, None], g / np.where(norms > 0, norms, 1.0), u)
        f_new = value(u_new)
        improved = f_new > f + 1e-13
        if not np.any(improved):
            break
        u = np.where(improved[:, None], u_new, u)
        f = np.maximum(f, f_new)
    best = int(np.argmax(f))
    return float(f[best]), u[best]
