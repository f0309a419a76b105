import numpy as np
import pytest

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


def test_to_density_maximally_mixed():
    assert np.allclose(bloch.to_density(np.zeros(3)), np.eye(2) / 2)


def test_to_density_computational_basis():
    rho = bloch.to_density(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(rho, np.diag([1.0, 0.0]))


def test_to_density_rejects_outside_ball():
    with pytest.raises(NotAStateError) as exc:
        bloch.to_density(np.array([0.0, 0.0, 1.5]))
    assert exc.value.eigenvalue < -1e-10


def test_from_density_examples():
    assert np.allclose(bloch.from_density(np.eye(2) / 2), np.zeros(3))
    assert np.allclose(
        bloch.from_density(np.diag([1.0, 0.0])), np.array([0.0, 0.0, 1.0])
    )


def test_from_density_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        bloch.from_density(np.array([[1.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_round_trip(d, rng):
    for _ in range(25):
        w = bloch.random_bloch_vector(d, rng)
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
    r_d = bloch.max_radius(d)
    for _ in range(50):
        w = bloch.random_bloch_vector(d, rng)
        assert np.linalg.norm(w) <= r_d + 1e-12
