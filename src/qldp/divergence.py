"""Trace norms and the quantum hockey-stick divergence.

E_gamma(rho || sigma) = (1/2) ||rho - gamma sigma||_1 + (1/2)(1 - gamma).
Batches of qubit pairs use the Bloch-vector closed form
`hockey_stick_qubit` instead of matrices.
"""

import math

import numpy as np

from .exceptions import InvalidInputError

HERM_TOL = 1e-10


def trace_norm(M):
    """Sum of absolute eigenvalues of a Hermitian matrix of any size; a
    NaN or infinite entry fails the Hermiticity test (inf - inf is NaN)."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {M.shape}")
    if not np.max(np.abs(M - M.conj().T)) <= HERM_TOL:
        raise InvalidInputError("matrix is not Hermitian (or not finite)")
    return float(np.sum(np.abs(np.linalg.eigvalsh(M))))


def hockey_stick(rho, sigma, gamma):
    """Quantum hockey-stick divergence E_gamma(rho || sigma), gamma >= 1.

    E_gamma is never negative; the eigenvalue sum can round a zero
    divergence to about -1e-15, so the result is clamped at 0 as in
    `hockey_stick_qubit`.
    """
    if not 1.0 <= gamma < math.inf:
        raise InvalidInputError(f"gamma must be finite and >= 1, got {gamma}")
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise InvalidInputError(
            f"dimension mismatch: {rho.shape} vs {sigma.shape}"
        )
    val = 0.5 * trace_norm(rho - gamma * sigma) + 0.5 * (1.0 - gamma)
    return max(0.0, val)


def hockey_stick_qubit(w, v, gamma):
    """Closed-form qubit divergence from Bloch vectors (batched over rows):
    max{0, (1/2)||w - gamma v|| + (1/2)(1 - gamma)}."""
    if not 1.0 <= gamma < math.inf:
        raise InvalidInputError(f"gamma must be finite and >= 1, got {gamma}")
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    diff = np.linalg.norm(w - gamma * v, axis=-1)
    if not np.all(diff < math.inf):  # False on NaN
        raise InvalidInputError("Bloch vectors must be finite")
    return np.maximum(0.0, 0.5 * diff + 0.5 * (1.0 - gamma))
