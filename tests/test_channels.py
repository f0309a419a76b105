import math

import numpy as np
import pytest

from qldp import bloch, channels, ldp
from qldp.channels import (
    AffineChannel,
    apply,
    cp_check,
    depolarizing,
    depolarizing_shrink,
    image_radius,
)
from conftest import random_qubit_channel
from qldp.exceptions import (
    InvalidBudgetError,
    InvalidInputError,
    UnsupportedDimensionError,
)


def test_apply_identity():
    ch = channels.identity_channel(2)
    w = np.array([0.2, 0.0, 0.5])
    assert np.allclose(apply(ch, w), w)


def test_apply_depolarizing_half():
    # p = 2/(1 + e^eps) = 1/2 at eps = ln 3
    ch = depolarizing(2, np.log(3.0))
    assert np.allclose(ch.A, 0.5 * np.eye(3))
    assert np.allclose(apply(ch, np.array([0.0, 0.0, 1.0])),
                       np.array([0.0, 0.0, 0.5]))


def test_apply_matches_direct_arithmetic(rng):
    A = rng.standard_normal((3, 3))
    c = rng.standard_normal(3)
    ch = AffineChannel(2, A, c)
    w = rng.standard_normal(3)
    assert np.allclose(apply(ch, w), A @ w + c, atol=1e-15)


def test_apply_affine_combination(rng):
    A = rng.standard_normal((3, 3))
    c = rng.standard_normal(3)
    ch = AffineChannel(2, A, c)
    w1, w2 = rng.standard_normal(3), rng.standard_normal(3)
    for t in (0.0, 0.25, 0.7, 1.0):
        lhs = apply(ch, t * w1 + (1 - t) * w2)
        rhs = t * apply(ch, w1) + (1 - t) * apply(ch, w2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_apply_dimension_mismatch():
    ch = channels.identity_channel(2)
    with pytest.raises(InvalidInputError):
        apply(ch, np.zeros(8))


def test_channel_rejects_non_finite_entries():
    A = 0.5 * np.eye(3)
    for bad in (np.nan, np.inf, -np.inf):
        A_bad = A.copy()
        A_bad[0, 1] = bad
        with pytest.raises(InvalidInputError):
            AffineChannel(d=2, A=A_bad, c=np.zeros(3))
        with pytest.raises(InvalidInputError):
            AffineChannel(d=2, A=A, c=np.array([0.0, bad, 0.0]))


def test_depolarizing_eps_zero_is_constant():
    ch = depolarizing(2, 0.0)
    assert np.allclose(ch.A, 0.0)
    assert np.allclose(ch.c, 0.0)


def test_depolarizing_qutrit_shrink():
    ch = depolarizing(3, 1.0)
    shrink = (np.e - 1.0) / (2.0 + np.e)
    assert np.allclose(ch.A, shrink * np.eye(8))


def test_depolarizing_shrink_is_exact_at_small_budget():
    # 1 - d / (d - 1 + np.exp(eps)) keeps no digit at eps = 1e-17
    for d in (2, 3, 16):
        for eps in (1e-17, 1e-8, 0.5):
            x = math.expm1(eps)
            assert abs(depolarizing_shrink(d, eps) - x / (d + x)) <= 2e-16 * x / d
            assert np.all(depolarizing(d, eps).A
                          == depolarizing_shrink(d, eps) * np.eye(d * d - 1))


def test_depolarizing_rejects_negative_budget():
    for eps in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InvalidBudgetError):
            depolarizing(2, eps)


def test_image_radius_examples():
    assert image_radius(AffineChannel(2, np.zeros((3, 3)), np.zeros(3))) < 1e-12
    assert abs(image_radius(channels.identity_channel(2)) - 1.0) < 1e-9
    ch = AffineChannel(2, np.diag([0.5, 0.5, 0.5]), np.array([0.0, 0.0, 0.3]))
    assert abs(image_radius(ch) - 0.8) < 1e-9


def test_image_radius_grid_oracle(rng):
    # independent brute force over a dense sphere grid
    A = 0.4 * rng.standard_normal((3, 3))
    c = 0.2 * rng.standard_normal(3)
    ch = AffineChannel(2, A, c)
    pts = rng.standard_normal((200000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    brute = np.max(np.linalg.norm(pts @ A.T + c, axis=1))
    solved = image_radius(ch)
    assert solved >= brute - 1e-9
    assert solved <= brute + 1e-3  # grid resolution slack


def test_image_radius_at_nearly_equal_singular_values():
    # sigma_2 / sigma_1 = 0.99 with c in their plane: multi-start Frank-Wolfe
    # ascent stalled here 2.8e-9 low
    A = np.diag([0.5, 0.495, 0.3])
    c = 0.01 * np.array([np.cos(1.45), np.sin(1.45), 0.0])
    exact = 0.5054735100446077  # 2e6-angle circle grid, Newton-polished
    assert abs(image_radius(AffineChannel(2, A, c)) - exact) <= 1e-15 * exact


@pytest.mark.parametrize("d,eps", [(2, 0.3), (2, 1.5), (3, 0.7), (4, 1.0)])
def test_image_radius_of_depolarizing(d, eps):
    ch = depolarizing(d, eps)
    shrink = 1.0 - d / (d - 1.0 + np.exp(eps))
    assert abs(image_radius(ch) - shrink * bloch.max_radius(d)) < 1e-9


def test_cp_check_identity():
    ok, lo = cp_check(channels.identity_channel(2))
    assert ok and abs(lo) < 1e-12


def test_cp_check_depolarizing():
    ok, lo = cp_check(depolarizing(2, 1.0))
    assert ok and lo > 0.0


def test_cp_check_transpose_map_fails():
    ok, lo = cp_check(AffineChannel(2, np.diag([1.0, 1.0, -1.0]), np.zeros(3)))
    assert not ok and lo < -1e-6


def test_cp_check_qudit_unsupported():
    with pytest.raises(UnsupportedDimensionError):
        cp_check(depolarizing(3, 1.0))


def _choi_by_basis_loop(ch):
    """The Choi matrix sum_jk |j><k| (x) Phi(|j><k|), one matrix unit at a
    time, with Phi the complex-linear extension of the affine map."""
    sig = bloch.generators(2)
    eye = np.eye(2, dtype=complex)

    def phi(X):
        wx = np.einsum("ab,iba->i", X, sig)
        out = np.trace(X) * 0.5 * (eye + np.tensordot(ch.c, sig, axes=(0, 0)))
        return out + 0.5 * np.tensordot(ch.A @ wx, sig, axes=(0, 0))

    choi = np.zeros((4, 4), dtype=complex)
    for j in range(2):
        for k in range(2):
            E = np.zeros((2, 2), dtype=complex)
            E[j, k] = 1.0
            choi += np.kron(E, phi(E))
    return choi


def test_cp_check_matches_choi_basis_loop():
    rng = np.random.default_rng(21)
    for k in range(500):
        if k % 2:
            ch = random_qubit_channel(rng)
        else:
            ch = AffineChannel(2, rng.standard_normal((3, 3)),
                               rng.standard_normal(3))
        lo = float(np.linalg.eigvalsh(_choi_by_basis_loop(ch))[0])
        assert cp_check(ch) == (lo >= channels.CHOI_TOL, lo)


def test_cp_implies_image_in_ball(rng):
    for _ in range(20):
        ch = random_qubit_channel(rng)
        ok, _ = cp_check(ch)
        if ok:
            assert image_radius(ch) <= 1.0 + 1e-9


def test_necessary_conditions_for_valid_qubit_channels(rng):
    for _ in range(20):
        ch = random_qubit_channel(rng)
        assert np.linalg.norm(ch.c) <= 1.0 + 1e-9
        assert np.linalg.svd(ch.A, compute_uv=False)[0] <= 2.0 + 1e-9


def test_depolarizing_certifies_at_own_budget():
    for eps in (0.2, 1.0, 2.5):
        cert = ldp.certify(depolarizing(2, eps), eps)
        assert cert.verdict and abs(cert.margin) <= 1e-9


def test_channel_json_round_trip(tmp_path, rng):
    ch = random_qubit_channel(rng)
    path = tmp_path / "channel.json"
    ch.save(path)
    back = AffineChannel.load(path)
    assert back.d == ch.d
    assert np.array_equal(back.A, ch.A)
    assert np.array_equal(back.c, ch.c)
