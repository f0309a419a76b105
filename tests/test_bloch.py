import numpy as np
import pytest
from scipy.stats import kstest

from conftest import random_mixed_bloch_vector
from qldp import bloch
from qldp.exceptions import InvalidDimensionError, InvalidInputError, NotAStateError

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def test_generators_d2_are_paulis_in_order():
    etas = bloch.generators(2)
    for eta, sigma in zip(etas, PAULI):
        assert np.allclose(eta, sigma)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_generator_invariants(d):
    etas = bloch.generators(d)
    n = d * d - 1
    assert etas.shape == (n, d, d)
    gram = np.einsum("iab,jba->ij", etas, etas)
    assert np.max(np.abs(gram - 2.0 * np.eye(n))) < 1e-14
    assert max(abs(np.trace(e)) for e in etas) < 1e-14
    assert all(np.max(np.abs(e - e.conj().T)) < 1e-14 for e in etas)


def test_generators_rejects_bad_dimension():
    # 10**6 is past bloch.MAX_DIM: refused before anything is allocated
    for d in (1, 10**6):
        with pytest.raises(InvalidDimensionError):
            bloch.generators(d)


@pytest.mark.parametrize("d", range(2, 17))
def test_to_operator_stack_is_the_flattened_product(d, rng):
    # the product qfi_qudit took before to_operator, to the last bit
    n = d * d - 1
    for _ in range(10):
        X = rng.standard_normal((2, n))
        flat = (0.5 * X @ bloch.generators(d).reshape(n, -1)).reshape(2, d, d)
        assert np.array_equal(bloch.to_operator(X, d), flat)


def test_to_density_maximally_mixed():
    assert np.allclose(bloch.to_density(np.zeros(3)), np.eye(2) / 2)


def test_to_density_computational_basis():
    rho = bloch.to_density(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(rho, np.diag([1.0, 0.0]))


def test_to_density_rejects_outside_ball():
    with pytest.raises(NotAStateError) as exc:
        bloch.to_density(np.array([0.0, 0.0, 1.5]))
    assert exc.value.eigenvalue < -1e-10


def test_to_density_rejects_non_finite():
    for bad in (np.nan, np.inf):
        # inf * 0 in the generator sum warns before the check sees a NaN
        with np.errstate(invalid="ignore"), pytest.raises(NotAStateError):
            bloch.to_density(np.array([bad, 0.0, 0.0]))


def test_from_density_examples():
    assert np.allclose(bloch.from_density(np.eye(2) / 2), np.zeros(3))
    assert np.allclose(
        bloch.from_density(np.diag([1.0, 0.0])), np.array([0.0, 0.0, 1.0])
    )


def test_from_density_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        bloch.from_density(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_from_density_rejects_non_finite():
    one_nan = np.diag([0.9, 0.1])
    one_nan[0, 1] = np.nan
    for rho in (np.full((2, 2), np.nan), one_nan, np.diag([np.inf, 0.0])):
        # inf - inf in the Hermiticity test warns before it fails
        with np.errstate(invalid="ignore"), pytest.raises(InvalidInputError):
            bloch.from_density(rho)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_round_trip(d, rng):
    for w in [random_mixed_bloch_vector(d, rng) for _ in range(25)] \
            + list(bloch.random_bloch_vector(d, rng, size=25)):
        rho = bloch.to_density(w, d)
        assert np.max(np.abs(bloch.from_density(rho) - w)) < 1e-12
        # and the other direction
        assert np.max(np.abs(bloch.to_density(bloch.from_density(rho), d) - rho)) \
            < 1e-12


def test_qutrit_round_trip_small_radius(rng):
    w = bloch.random_bloch_vector(3, rng)
    w *= 0.3 / np.linalg.norm(w)
    rho = bloch.to_density(w, 3)
    assert np.linalg.eigvalsh(rho)[0] > 0
    assert np.max(np.abs(bloch.from_density(rho) - w)) < 1e-12


def test_purity_iff_unit_norm(rng):
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    eig = np.linalg.eigvalsh(bloch.to_density(u))
    assert np.allclose(sorted(eig), [0.0, 1.0], atol=1e-12)
    eig_mixed = np.linalg.eigvalsh(bloch.to_density(0.9 * u))
    assert eig_mixed[0] > 0.04


@pytest.mark.parametrize("d", [3, 4])
def test_valid_states_respect_outer_radius(d, rng):
    # trace(rho^2) = 1/d + |w|^2 / 2, so |w| <= r_d with equality iff pure
    r_d = bloch.max_radius(d)
    for _ in range(50):
        w = random_mixed_bloch_vector(d, rng)
        rho = bloch.to_density(w, d)
        purity = np.trace(rho @ rho).real
        assert abs(purity - (1.0 / d + 0.5 * w @ w)) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > -1e-12
        assert np.linalg.norm(w) < r_d - 1e-6


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_bloch_vector_shapes_and_states(d, rng):
    n = d * d - 1
    assert bloch.random_bloch_vector(d, rng).shape == (n,)
    for k in (0, 1, 7):
        assert bloch.random_bloch_vector(d, rng, size=k).shape == (k, n)
    # every draw is a pure state: on the outer sphere, with eigenvalue 1
    for w in bloch.random_bloch_vector(d, rng, size=300):
        assert abs(np.linalg.norm(w) - bloch.max_radius(d)) < 1e-12
        assert abs(np.linalg.eigvalsh(bloch.to_density(w, d))[-1] - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_random_bloch_vector_is_haar(d):
    # for Haar psi and a fixed pure phi, |<phi|psi>|^2 = trace(rho sigma)
    # = 1/d + (1/2) w.u is Beta(1, d - 1)
    u = bloch.from_density(np.diag(np.eye(d)[0]).astype(complex))
    w = bloch.random_bloch_vector(d, np.random.default_rng(31), size=2000)
    assert kstest(1.0 / d + 0.5 * w @ u, "beta", args=(1, d - 1)).pvalue > 0.01
