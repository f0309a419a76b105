"""Trace norms and the quantum hockey-stick divergence.

E_gamma(rho || sigma) = (1/2) ||rho - gamma sigma||_1 + (1/2)(1 - gamma).
Batches of qubit pairs use the Bloch-vector closed form
`hockey_stick_qubit` instead of matrices.
"""

import math

import numpy as np

from . import bloch
from .exceptions import InvalidInputError


def trace_norm(M):
    """Sum of absolute eigenvalues of a Hermitian matrix of any size."""
    M = np.asarray(M)
    bloch.check_hermitian(M, bloch.LOOSE_HERMITICITY_TOL)
    return float(np.sum(np.abs(np.linalg.eigvalsh(M))))


def hockey_stick(rho, sigma, gamma):
    """Quantum hockey-stick divergence E_gamma(rho || sigma), gamma >= 1, of
    two density matrices of one dimension (each `bloch.check_density`)."""
    if not 1.0 <= gamma < math.inf:
        raise InvalidInputError(f"gamma must be finite and >= 1, got {gamma}")
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise InvalidInputError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    bloch.check_density(rho)
    bloch.check_density(sigma)
    return hockey_stick_unchecked(rho, sigma, gamma)


def hockey_stick_unchecked(rho, sigma, gamma):
    """`hockey_stick` without its checks, for states by construction; clamped
    at 0, as the eigenvalue sum can round a zero divergence to -1e-15."""
    val = 0.5 * trace_norm(rho - gamma * sigma) + 0.5 * (1.0 - gamma)
    return max(0.0, val)


def hockey_stick_qubit(w, v, gamma):
    """Closed-form qubit divergence from Bloch vectors (batched over rows
    of length 3, the two batches broadcast), each `bloch.in_qubit_ball`:
    max{0, (1/2)||w - gamma v|| + (1/2)(1 - gamma)}."""
    if not 1.0 <= gamma < math.inf:
        raise InvalidInputError(f"gamma must be finite and >= 1, got {gamma}")
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    if w.shape[-1:] != (3,) or v.shape[-1:] != (3,):
        raise InvalidInputError(
            f"rows must have length 3, got shapes {w.shape} and {v.shape}")
    try:
        np.broadcast_shapes(w.shape, v.shape)
    except ValueError:
        raise InvalidInputError(f"batches of shapes {w.shape} and {v.shape} "
                                "do not broadcast") from None
    if not (np.all(bloch.in_qubit_ball(np.linalg.norm(w, axis=-1)))
            and np.all(bloch.in_qubit_ball(np.linalg.norm(v, axis=-1)))):
        raise InvalidInputError("rows must be finite vectors in the Bloch ball")
    diff = np.linalg.norm(w - gamma * v, axis=-1)
    return np.maximum(0.0, 0.5 * diff + 0.5 * (1.0 - gamma))
