"""Maximization of convex functions over spheres.

`max_norm_on_sphere` solves max over unit z of ||M z - b|| exactly, as a
trust-region subproblem: `channels.image_radius` and the channel search's
rank-2 certification supremum (`optimizer._span_sup`) call it.

`maximize_convex_on_sphere` is multi-start conditional gradient
(Frank-Wolfe) ascent, used by `ldp.ldp_sup` (the LDP supremum). A convex
function attains its maximum over a ball on the boundary, and Frank-Wolfe
steps are monotone ascent there: the next iterate is the boundary maximizer
of the linearization. Multi-start from a deterministic seed set handles the
non-concavity of the restriction.
"""

import numpy as np

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def max_norm_on_sphere(M, b):
    """max over unit z in R^r of ||M z - b|| for an n x r matrix M.

    With M^T M = Q diag(h) Q^T (h_1 >= h_2 >= ...) and beta = Q^T M^T b,
    strong duality for the trust-region subproblem (More and Sorensen,
    SIAM J. Sci. Stat. Comput. 4, 553, 1983) gives the square of the
    answer as the minimum over lambda >= h_1 of the convex
        D(lambda) = lambda + b^T b + sum_i beta_i^2 / (lambda - h_i).
    Its minimizer solves psi(lambda) = sum_i beta_i^2 / (lambda - h_i)^2
    = 1, or is h_1 when psi <= 1 there (the hard case). Newton steps on
    psi^(-1/2) = 1, which is concave and increasing in lambda, start left
    of the root at h_1 + |beta_1| (or the next double above h_1) and stay
    left of it. So sqrt(D) at the last step is never below the answer but
    for rounding, and its error is quadratic in that of lambda; the hard
    case needs no separate completion. M and b are float arrays.
    """
    h, Q = np.linalg.eigh(M.T @ M)
    h, Q = h[::-1], Q[:, ::-1]
    beta = Q.T @ (M.T @ b)
    keep = beta != 0.0
    beta2, hk = beta[keep] ** 2, h[keep]
    lam = max(h[0] + abs(beta[0]), np.nextafter(h[0], np.inf))
    for _ in range(100):
        t = beta2 / (lam - hk) ** 2
        psi = t.sum()
        if psi <= 1.0:
            break
        step = (psi ** 1.5 - psi) / (t / (lam - hk)).sum()
        if not lam + step > lam:
            break
        lam += step
    return float(np.sqrt(lam + b @ b + (beta2 / (lam - hk)).sum()))


def fibonacci_sphere(n=256):
    """Deterministic quasi-uniform seed set on S^2, shape (n, 3)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = 2.0 * np.pi * i / GOLDEN
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def seed_directions(n, extra):
    """Seed unit vectors in R^3: the nonzero `extra` rows, normalized, on
    top of the n-point Fibonacci lattice."""
    extra = np.asarray(extra, dtype=float)
    norms = np.linalg.norm(extra, axis=1, keepdims=True)
    keep = norms[:, 0] > 0
    return np.vstack([extra[keep] / norms[keep], fibonacci_sphere(n)])


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
