import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_mixed_bloch_vector
from qldp import bloch
from qldp.divergence import hockey_stick, hockey_stick_qubit, trace_norm
from qldp.exceptions import InvalidInputError


def test_trace_norm_pauli_x():
    assert abs(trace_norm(bloch.generators(2)[0]) - 2.0) < 1e-15


def test_trace_norm_zero():
    assert trace_norm(np.zeros((2, 2))) == 0.0


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_rejects_non_finite():
    for M in (np.full((2, 2), np.nan), np.diag([np.nan, 1.0]),
              np.diag([np.inf, 1.0])):
        with np.errstate(invalid="ignore"), pytest.raises(InvalidInputError):
            trace_norm(M)


def test_hockey_stick_rejects_nan_instead_of_clamping_it():
    rho = np.diag([0.9, 0.1])
    rho[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        hockey_stick(rho, np.eye(2) / 2, 1.5)


@pytest.mark.parametrize("w, v", [
    ([np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [0.0, np.inf, 0.0]),
    ([[0.1, 0.0, 0.0], [0.0, np.nan, 0.0]], [[0.0, 0.0, 0.0]] * 2),
], ids=["w-nan", "v-inf", "batch-row-nan"])
def test_hockey_stick_qubit_rejects_non_finite_input(w, v):
    with np.errstate(invalid="ignore"), pytest.raises(InvalidInputError):
        hockey_stick_qubit(np.array(w), np.array(v), 1.5)


def test_trace_norm_random_4x4_matches_eigen_oracle(rng):
    for _ in range(50):
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        M = X + X.conj().T
        oracle = float(np.sum(np.abs(np.linalg.eigvalsh(M))))
        assert abs(trace_norm(M) - oracle) < 1e-10


def test_closed_form_agrees_with_eigen_path(rng):
    # closed form |m - ||n||| + |m + ||n||| vs eigenvalues
    sig = bloch.generators(2)
    for _ in range(10000):
        m = rng.standard_normal()
        n = rng.standard_normal(3)
        M = m * np.eye(2) + np.tensordot(n, sig, axes=(0, 0))
        closed = abs(m - np.linalg.norm(n)) + abs(m + np.linalg.norm(n))
        eig = float(np.sum(np.abs(np.linalg.eigvalsh(M))))
        assert abs(closed - eig) < 1e-12 * max(1.0, closed)
        assert abs(trace_norm(M) - closed) < 1e-12 * max(1.0, closed)


def test_hockey_stick_trace_distance_example():
    rho = np.diag([1.0, 0.0])
    sigma = np.eye(2) / 2
    assert abs(hockey_stick(rho, sigma, 1.0) - 0.5) < 1e-15


def test_hockey_stick_equal_states_vanishes(rng):
    w = random_mixed_bloch_vector(2, rng)
    rho = bloch.to_density(w)
    for gamma in (1.0, 1.5, 3.0):
        assert abs(hockey_stick(rho, rho, gamma)) < 1e-15


def test_hockey_stick_qubit_clipped_example():
    # ||(0,0,0.8) - 2 (0,0,0.2)|| / 2 + (1 - 2)/2 = 0.2 - 0.5 < 0 -> 0
    val = hockey_stick_qubit(np.array([0.0, 0.0, 0.8]),
                             np.array([0.0, 0.0, 0.2]), 2.0)
    assert val == 0.0
    rho = bloch.to_density(np.array([0.0, 0.0, 0.8]))
    sigma = bloch.to_density(np.array([0.0, 0.0, 0.2]))
    assert abs(hockey_stick(rho, sigma, 2.0)) < 1e-15


def test_qubit_closed_form_agrees_with_generic_path(rng):
    for _ in range(10000):
        w = random_mixed_bloch_vector(2, rng)
        v = random_mixed_bloch_vector(2, rng)
        gamma = 1.0 + 3.0 * rng.random()
        closed = hockey_stick_qubit(w, v, gamma)
        generic = hockey_stick(bloch.to_density(w), bloch.to_density(v), gamma)
        assert abs(closed - generic) < 1e-12


def test_rejects_gamma_below_one():
    rho = np.eye(2) / 2
    for gamma in (0.5, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            hockey_stick(rho, rho, gamma)
        with pytest.raises(InvalidInputError):
            hockey_stick_qubit(np.zeros(3), np.zeros(3), gamma)


def test_rejects_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        hockey_stick(np.eye(2) / 2, np.eye(3) / 3, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    g1=st.floats(1.0, 5.0),
    g2=st.floats(1.0, 5.0),
)
# eigvalsh rounds this zero divergence to -1.1e-15 before clamping
@example(seed=1754, g1=1.0, g2=4.3984375)
def test_monotone_in_gamma_and_bounded_by_trace_distance(seed, g1, g2):
    rng = np.random.default_rng(seed)
    rho = bloch.to_density(random_mixed_bloch_vector(2, rng))
    sigma = bloch.to_density(random_mixed_bloch_vector(2, rng))
    lo, hi = sorted([g1, g2])
    e_lo = hockey_stick(rho, sigma, lo)
    e_hi = hockey_stick(rho, sigma, hi)
    assert e_hi <= e_lo + 1e-12
    assert e_hi <= hockey_stick(rho, sigma, 1.0) + 1e-12
    assert e_hi >= -1e-15
