"""Generator bases and Bloch-vector <-> density-matrix conversions.

Qubit states are written rho = (I + w.sigma)/2 with w in the closed unit
ball; qudits use rho = I/d + (1/2) w.eta with the generalized Gell-Mann
generators eta normalized so that trace(eta_i eta_j) = 2 delta_ij (the
d=2 case then reproduces the Pauli matrices exactly). `to_operator` is the
one map w -> (1/2) w.eta; `check_positive` is the one "not a state" rule.
"""

from functools import lru_cache

import numpy as np

from .exceptions import InvalidDimensionError, InvalidInputError, NotAStateError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = -1e-10
# for matrices that are not states: derivatives and `divergence.trace_norm`
LOOSE_HERMITICITY_TOL = 1e-10
DERIVATIVE_TRACE_TOL = 1e-8
# ldp.MAX_AUDIT_PAIRS and estimation.MAX_TRIALS are sized at this dimension
MAX_DIM = 16


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


def to_operator(w, d):
    """(1/2) w.eta for one Bloch vector w, or for a stack of them along the
    last axis (one product for the stack)."""
    return 0.5 * np.tensordot(w, generators(d), axes=(np.ndim(w) - 1, 0))


def to_density(w, d=None):
    """Map a Bloch vector to its density matrix I/d + `to_operator(w, d)`.

    Hermiticity and unit trace hold by construction; raises NotAStateError
    by `state_eigh` (so also for non-finite entries).
    """
    w = np.asarray(w, dtype=float)
    if d is None:
        d = int(round(np.sqrt(w.size + 1)))
    if w.shape != (d * d - 1,):
        raise InvalidInputError(f"Bloch vector of shape {w.shape} for d={d}")
    rho = np.eye(d, dtype=complex) / d + to_operator(w, d)
    state_eigh(rho)
    return rho


def state_eigh(rho, vectors=False):
    """eigvalsh(rho), or eigh(rho) with vectors=True, of a Hermitian
    unit-trace rho, once `check_positive` passes its lowest eigenvalue. On
    the NaN entries of I/d + `to_operator(w, d)` for a non-finite w, LAPACK
    returns NaN or does not converge: NotAStateError either way."""
    try:
        out = np.linalg.eigh(rho) if vectors else np.linalg.eigvalsh(rho)
    except np.linalg.LinAlgError:
        out = None
    check_positive(np.nan if out is None else (out[0] if vectors else out)[0])
    return out


def from_density(rho):
    """Recover the Bloch vector of a density matrix via w_i = trace(rho eta_i)."""
    rho = np.asarray(rho, dtype=complex)
    check_density(rho)
    d = rho.shape[0]
    etas = generators(d)
    # trace(rho eta_i) = sum_{ab} rho_ab (eta_i)_ba
    w = np.real(np.einsum("ab,iba->i", rho, etas))
    return w


def check_hermitian(M, tol=HERMITICITY_TOL):
    """Raise InvalidInputError unless M is a non-empty square matrix within
    tol of M^H; also on NaN or inf entries (inf - inf is NaN)."""
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise InvalidInputError(f"expected a square matrix, got shape {M.shape}")
    if not np.max(np.abs(M - M.conj().T)) <= tol:
        raise InvalidInputError("matrix is not Hermitian (or not finite)")


def check_positive(lo):
    """Raise NotAStateError unless the lowest eigenvalue lo >= POSITIVITY_TOL
    (also when lo is NaN). The qubit paths pass (1 - ||w||)/2, the lowest
    eigenvalue of (I + w.sigma)/2, so a qubit state has ||w|| <= 1 + 2e-10."""
    if not lo >= POSITIVITY_TOL:
        raise NotAStateError(f"not a state: min eigenvalue {lo:.3e}",
                             eigenvalue=float(lo))


def check_density(rho):
    """The density-matrix check: square, Hermitian, finite and unit trace
    (InvalidInputError), positive semidefinite (NotAStateError). Returns
    eigh(rho) for the caller to reuse."""
    rho = np.asarray(rho)
    check_hermitian(rho)
    if not abs(np.trace(rho).real - 1.0) <= TRACE_TOL:
        raise InvalidInputError(f"trace is {np.trace(rho).real!r}, expected 1")
    return state_eigh(rho, vectors=True)


def check_derivative(drho, d):
    """The state-derivative check: a d x d Hermitian, finite and traceless
    matrix, or InvalidInputError. Returns it as a complex array."""
    drho = np.asarray(drho, dtype=complex)
    check_hermitian(drho, LOOSE_HERMITICITY_TOL)
    if drho.shape != (d, d):
        raise InvalidInputError(f"derivative shape {drho.shape}, state d={d}")
    if not abs(np.trace(drho).real) <= DERIVATIVE_TRACE_TOL:
        raise InvalidInputError(
            f"derivative matrix must be traceless, got trace {np.trace(drho)!r}")
    return drho


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
