"""Multi-start maximization of convex functions over spheres.

Its two clients, `ldp.ldp_sup` (the LDP supremum) and
`channels.image_radius`, each maximize a convex, positively curved
objective over a Euclidean sphere; the channel search scores its
candidates with its own exact supremum on a circle instead. A convex
function attains its maximum over a ball on the boundary, and conditional
gradient (Frank-Wolfe) steps are monotone ascent there: the next iterate
is the boundary maximizer of the linearization. Multi-start from a
deterministic seed set handles the non-concavity of the restriction.
"""

import numpy as np

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def fibonacci_sphere(n=256):
    """Deterministic quasi-uniform seed set on S^2, shape (n, 3)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = 2.0 * np.pi * i / GOLDEN
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def seed_directions(m, n, extra):
    """Seed unit vectors in R^m: the Fibonacci lattice for m=3, a fixed
    pseudo-random cloud otherwise; the nonzero `extra` rows, normalized,
    are stacked on top."""
    if m == 3:
        seeds = fibonacci_sphere(n)
    else:
        rng = np.random.default_rng(0)
        seeds = rng.standard_normal((n, m))
        seeds /= np.linalg.norm(seeds, axis=1, keepdims=True)
    extra = np.asarray(extra, dtype=float)
    norms = np.linalg.norm(extra, axis=1, keepdims=True)
    keep = norms[:, 0] > 0
    return np.vstack([extra[keep] / norms[keep], seeds])


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
