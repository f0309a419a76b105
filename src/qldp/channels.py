"""Affine Bloch-space representation of quantum channels.

A channel acts on Bloch vectors as w -> A w + c. Includes the depolarizing
mechanism calibrated to a privacy budget, the exact image radius (the
largest output Bloch radius, by `sphere.max_norm_on_sphere`), and a
complete-positivity check for qubits on the Choi matrix in closed form.
"""

from dataclasses import dataclass
import json

import numpy as np

from . import bloch
from .exceptions import (
    InvalidInputError,
    UnsupportedDimensionError,
    check_channel_budget,
)
from .sphere import max_norm_on_sphere

CHOI_TOL = -1e-10


@dataclass(frozen=True)
class AffineChannel:
    """Channel (A, c) acting on (d^2-1)-dimensional Bloch vectors."""

    d: int
    A: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        n = self.d * self.d - 1
        A = np.asarray(self.A, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if A.shape != (n, n) or c.shape != (n,):
            raise InvalidInputError(
                f"channel for d={self.d} needs A of shape ({n},{n}) and c of "
                f"length {n}, got {A.shape} and {c.shape}"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(c))):
            raise InvalidInputError("channel A and c must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)

    def to_dict(self):
        return {"d": self.d, "A": self.A.tolist(), "c": self.c.tolist()}

    @classmethod
    def from_dict(cls, data):
        try:
            d = data["d"]
            A = np.array(data["A"], dtype=float)
            c = np.array(data["c"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed channel: {exc}") from None
        if not (isinstance(d, (int, float)) and not isinstance(d, bool)
                and (isinstance(d, int) or d.is_integer())):
            raise InvalidInputError(
                f"malformed channel: d must be an integer, got {d!r}")
        return cls(d=int(d), A=A, c=c)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def identity_channel(d=2):
    n = d * d - 1
    return AffineChannel(d=d, A=np.eye(n), c=np.zeros(n))


def depolarizing_shrink(d, eps):
    """The depolarizing Bloch shrink 1 - p = (e^eps - 1) / (d - 1 + e^eps),
    e^eps - 1 by expm1; unchecked, as the bounds take eps up to 300."""
    return np.expm1(eps) / (d + np.expm1(eps))


def depolarizing(d, eps):
    """Depolarizing channel calibrated to budget eps: A = (1-p) I, c = 0,
    with p = d / (d - 1 + e^eps) (p = 2/(1+e^eps) for qubits)."""
    check_channel_budget(eps)
    bloch.check_dimension(d)
    n = d * d - 1
    return AffineChannel(d=d, A=depolarizing_shrink(d, eps) * np.eye(n),
                         c=np.zeros(n))


def apply(ch, w):
    """Apply the channel to a Bloch vector (or a batch of row vectors)."""
    w = np.asarray(w, dtype=float)
    n = ch.d * ch.d - 1
    if w.shape[-1] != n:
        raise InvalidInputError(
            f"Bloch vector of length {w.shape[-1]} does not match d={ch.d}"
        )
    return w @ ch.A.T + ch.c


def image_radius(ch):
    """Maximum of ||A w + c|| over the outer ball ||w|| <= r_d.

    The objective is convex in w, so the maximum sits on the sphere
    ||w|| = r_d: the exact max over unit z of ||r_d A z + c||.
    """
    return max_norm_on_sphere(bloch.max_radius(ch.d) * ch.A, -ch.c)[0]


def cp_check(ch):
    """Complete-positivity check for qubit channels via the Choi matrix.

    The affine pair (A, c) extends to the linear map
    X -> (tr X)(I + c.sigma)/2 + (1/2)(A w_X).sigma with
    w_X,i = tr(X sigma_i). Returns (min_eig >= -1e-10, min_eig) for the
    Choi matrix sum_jk |j><k| (x) Phi(|j><k|), which is
    (1/2) I (x) (I + c.sigma) + (1/2) sum_il A_il sigma_l^T (x) sigma_i.
    """
    if ch.d != 2:
        raise UnsupportedDimensionError(
            "complete-positivity check is only supported for qubits"
        )
    sig = bloch.generators(2)
    eye = np.eye(2)
    # sum_jk |j><k| tr(|j><k|) = I and sum_jk |j><k| tr(|j><k| sigma_l)
    # = sigma_l^T
    choi = (np.kron(eye, 0.5 * (eye + np.tensordot(ch.c, sig, axes=(0, 0))))
            + 0.5 * np.einsum("il,lba,icd->acbd", ch.A, sig, sig).reshape(4, 4))
    lo = float(np.linalg.eigvalsh(choi)[0])
    return lo >= CHOI_TOL, lo
