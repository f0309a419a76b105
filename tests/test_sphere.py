import numpy as np
import pytest

from qldp.sphere import max_norm_on_sphere


def _polish(M, b, z, steps=30):
    """The largest ||M z - b|| met along Riemannian Newton steps on the
    unit sphere from z (the tangent system solved by least squares, so a
    flat direction is left alone)."""
    H = M.T @ M
    best = float(np.linalg.norm(M @ z - b))
    for _ in range(steps):
        grad = M.T @ (M @ z - b)
        T = np.linalg.svd(z[None, :])[2][1:].T  # tangent basis at z
        hess = T.T @ H @ T - (z @ grad) * np.eye(len(z) - 1)
        step = np.linalg.lstsq(hess, -T.T @ grad, rcond=1e-14)[0]
        z = z + T @ step
        z /= np.linalg.norm(z)
        best = max(best, float(np.linalg.norm(M @ z - b)))
    return best


def _dense_max(M, b, rng):
    """Dense oracle: a 2e5-angle circle grid for r = 2, 2e4 random unit
    vectors otherwise; the 8 best points polished by `_polish`."""
    r = M.shape[1]
    if r == 2:
        t = np.linspace(0.0, 2.0 * np.pi, 200_000, endpoint=False)
        Z = np.column_stack([np.cos(t), np.sin(t)])
    else:
        Z = rng.standard_normal((20_000, r))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    f = np.linalg.norm(Z @ M.T - b, axis=1)
    return max(float(f.max()), *(_polish(M, b, z) for z in Z[np.argsort(f)[-8:]]))


@pytest.mark.parametrize("n,r", [(3, 2), (8, 3)])
def test_max_norm_matches_dense_oracle(n, r):
    """Equal and nearly equal top singular values, b = 0, b orthogonal to
    the top left singular vector (beta_1 = 0), beta_1 ~ 3e-14, and generic
    b. Both sides are exact up to rounding, so 'never below' allows four
    ulps."""
    rng = np.random.default_rng(31 + r)
    for k in range(90):
        U, _, Vt = np.linalg.svd(rng.standard_normal((n, r)),
                                 full_matrices=False)
        s = np.sort(rng.uniform(0.0, 1.0, r))[::-1]
        if k % 3 == 0:
            s[1] = s[0]
        elif k % 3 == 1:
            s[1] = s[0] * (1.0 - 1e-9)
        M = U @ np.diag(s) @ Vt
        b = rng.standard_normal(n) * rng.uniform(0.01, 0.5)
        kind = k // 3 % 5
        if kind == 0:
            b = np.zeros(n)
        elif kind in (1, 2):
            b -= (U[:, 0] @ b) * U[:, 0]
            if kind == 2:
                b += 3e-14 / s[0] * U[:, 0]  # beta_1 = 3e-14
        value = max_norm_on_sphere(M, b)
        oracle = _dense_max(M, b, rng)
        assert value >= oracle * (1.0 - 1e-15), (k, value, oracle)
        assert value <= oracle * (1.0 + 1e-12), (k, value, oracle)

