"""Generator bases and Bloch-vector <-> density-matrix conversions.

Qubit states are written rho = (I + w.sigma)/2 with w in the closed unit
ball; qudits use rho = I/d + (1/2) w.eta with the generalized Gell-Mann
generators eta normalized so that trace(eta_i eta_j) = 2 delta_ij (the
d=2 case then reproduces the Pauli matrices exactly).
"""

from functools import lru_cache

import numpy as np

from .exceptions import InvalidDimensionError, InvalidInputError, NotAStateError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = -1e-10
MAX_DIM = 16  # the qudit QFI's anticommutator tensor takes ~270 MB at d = 16
REJECTION_CHUNK = 256  # qutrit candidates per stacked positivity test

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def max_radius(d):
    """Outer radius of the generalized Bloch body: 1 for qubits,
    sqrt(2(d-1)/d) in general."""
    return float(np.sqrt(2.0 * (d - 1) / d))


def check_dimension(d):
    """Raise InvalidDimensionError unless d is an integer in [2, MAX_DIM]."""
    if not isinstance(d, (int, np.integer)) or not 2 <= d <= MAX_DIM:
        raise InvalidDimensionError(
            f"dimension must be an integer in [2, {MAX_DIM}], got {d!r}")


@lru_cache(maxsize=None)
def generators(d):
    """Return the d^2 - 1 generalized Gell-Mann matrices for dimension d.

    Ordering is deterministic: symmetric pair matrices in lexicographic
    (j, k) order, then antisymmetric pairs in the same order, then the
    diagonal matrices. For d=2 this yields (sigma_x, sigma_y, sigma_z).

    Returns a read-only array of shape (d^2 - 1, d, d).
    """
    check_dimension(d)
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            mats.append(m)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        m = np.diag(diag.astype(complex)) * np.sqrt(2.0 / (l * (l + 1)))
        mats.append(m)

    etas = np.array(mats)
    etas.setflags(write=False)
    return etas


def to_density(w, d=None):
    """Map a Bloch vector to its density matrix I/d + (1/2) w.eta.

    Raises NotAStateError if the result has an eigenvalue below -1e-10,
    or a NaN one (from non-finite entries).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise InvalidInputError("Bloch vector must be one-dimensional")
    if d is None:
        d = int(round(np.sqrt(w.size + 1)))
    if d * d - 1 != w.size:
        raise InvalidInputError(
            f"Bloch vector of length {w.size} does not match dimension {d}"
        )
    etas = generators(d)
    rho = np.eye(d, dtype=complex) / d + 0.5 * np.tensordot(w, etas, axes=(0, 0))
    lo = float(np.linalg.eigvalsh(rho)[0])
    if not lo >= POSITIVITY_TOL:  # NaN entries give a NaN eigenvalue
        raise NotAStateError(
            f"Bloch vector is outside the state body (min eigenvalue {lo:.3e})",
            eigenvalue=lo,
        )
    return rho


def from_density(rho):
    """Recover the Bloch vector of a density matrix via w_i = trace(rho eta_i)."""
    rho = np.asarray(rho, dtype=complex)
    check_density(rho)
    d = rho.shape[0]
    etas = generators(d)
    # trace(rho eta_i) = sum_{ab} rho_ab (eta_i)_ba
    w = np.real(np.einsum("ab,iba->i", rho, etas))
    return w


def check_density(rho):
    """Validate density-matrix invariants; raise on violation (also on
    NaN or infinite entries: each test fails on NaN, and inf - inf is NaN)."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {rho.shape}")
    if not np.max(np.abs(rho - rho.conj().T)) <= HERMITICITY_TOL:
        raise InvalidInputError("matrix is not Hermitian (or not finite)")
    if not abs(np.trace(rho).real - 1.0) <= TRACE_TOL:
        raise InvalidInputError(f"trace is {np.trace(rho).real!r}, expected 1")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if not lo >= POSITIVITY_TOL:
        raise NotAStateError(
            f"matrix has negative eigenvalue {lo:.3e}", eigenvalue=lo
        )


def random_bloch_vector(d, rng, size=None):
    """Draw random valid Bloch vectors: one of shape (d^2 - 1,) with
    size=None, a batch of shape (size, d^2 - 1) otherwise.

    Qubits: uniform over the ball; the directions and radii of a batch are
    drawn as arrays, and size=None reads the generator exactly as one draw
    always has. d = 3: uniform over the state set, by rejection sampling of
    the outer ball on positivity of the density matrix (~2.7% acceptance).
    The candidates come in chunks of at most REJECTION_CHUNK, each tested
    with one stacked eigvalsh, and the accepted ones are kept in draw order.
    d >= 4: not uniform; the state body is a vanishing fraction of the outer
    ball and rejection never terminates in practice, so each state is drawn
    from the Hilbert-Schmidt (Ginibre) ensemble, one after the other.
    """
    k = 1 if size is None else size
    if d == 2:
        w = _ball_points(d, k, rng)
    elif d == 3:
        w = _qutrit_states(k, rng)
    else:
        w = np.array([_hilbert_schmidt_state(d, rng) for _ in range(k)])
        w = w.reshape(k, d * d - 1)  # (k, n) also for k = 0
    return w[0] if size is None else w


def _ball_points(d, k, rng):
    """k points uniform in the outer ball of the Bloch vectors of dimension d."""
    n = d * d - 1
    u = rng.standard_normal((k, n))
    # row-wise dot products and scalar powers round as the one-at-a-time
    # draw did (np.linalg.norm of a row; numpy's array power does not)
    u /= np.sqrt(u[:, None, :] @ u[:, :, None])[:, 0]
    radii = [x ** (1.0 / n) for x in rng.random(k).tolist()]
    return max_radius(d) * np.array(radii)[:, None] * u


def _qutrit_states(k, rng):
    """k qutrit states uniform over the state body, by chunked rejection."""
    etas = generators(3)
    kept = [np.empty((0, 8))]
    missing = k
    while missing > 0:
        # ~1.7 times the expected need at 2.7% acceptance, capped so the
        # stacked matrices stay small
        w = _ball_points(3, min(REJECTION_CHUNK, 64 * missing), rng)
        rho = np.eye(3) / 3 + 0.5 * np.tensordot(w, etas, axes=(1, 0))
        w = w[np.linalg.eigvalsh(rho)[:, 0] >= POSITIVITY_TOL]
        kept.append(w[:missing])
        missing -= len(kept[-1])
    return np.concatenate(kept)


def _hilbert_schmidt_state(d, rng):
    """One Bloch vector from the Hilbert-Schmidt (Ginibre) ensemble."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return from_density(rho)
