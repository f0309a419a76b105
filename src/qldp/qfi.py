"""Quantum Fisher information for scalar parameter families.

Two routes are provided and cross-checked in the tests:
  * the qubit closed form in Bloch coordinates, written once in
    `qubit_qfi_kernel` on the inner products of w and dw,
  * the SLD eigen-decomposition, for qudits in Bloch coordinates
    (`qfi_qudit`) and for density matrices (`qfi_sld_oracle`).
"""

from dataclasses import dataclass
import math
import re

import numpy as np

from . import bloch
from .exceptions import InvalidDimensionError, InvalidInputError

BOUNDARY_TOL = 1e-9
SLD_SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class QfiResult:
    value: float
    branch: str  # "interior" or "boundary"

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class StateFamily:
    """Differentiable map lambda -> Bloch vector, with optional analytic
    derivative (finite differences otherwise)."""

    d: int
    omega_of: callable
    d_omega_of: callable = None
    label: str = ""
    domain: tuple = (-np.inf, np.inf)

    def point(self, lam):
        """(w, dw) at lam: the one place a family is evaluated. Raises
        InvalidInputError for a non-finite lam and NotAStateError when w
        leaves the state body (the pure boundary is a state)."""
        if not math.isfinite(lam):
            raise InvalidInputError(f"lambda must be finite, got {lam}")
        w = np.asarray(self.omega_of(lam), dtype=float)
        bloch.to_density(w, self.d)
        if self.d_omega_of is not None:
            return w, np.asarray(self.d_omega_of(lam), dtype=float)
        return w, family_derivative(self, lam)


def family_derivative(fam, lam, h=1e-5):
    """Central finite difference (omega(lam+h) - omega(lam-h)) / (2h)."""
    lo, hi = fam.domain
    if not (lo < lam - h and lam + h < hi):
        raise InvalidInputError(
            f"lambda +/- h = {lam} +/- {h} leaves the family domain {fam.domain}"
        )
    wp = np.asarray(fam.omega_of(lam + h), dtype=float)
    wm = np.asarray(fam.omega_of(lam - h), dtype=float)
    return (wp - wm) / (2.0 * h)


def qubit_qfi_kernel(ww, dd, wd):
    """The qubit QFI from the inner products ww = ||w||^2, dd = ||dw||^2
    and wd = <w, dw>, unchecked: (value, branch), with value
    dd + wd^2 / (1 - ww) in the interior and dd on the pure boundary
    ||w|| >= 1 - BOUNDARY_TOL, tested on ww. The one place the formula is
    written: `qfi_qubit` checks its vectors and calls it, and the channel
    search calls it on every candidate."""
    if ww >= (1.0 - BOUNDARY_TOL) ** 2:
        return dd, "boundary"
    return dd + wd * wd / (1.0 - ww), "interior"


def qfi_qubit(w, dw):
    """Qubit QFI of a Bloch vector w and its derivative dw, each of length
    3, by `qubit_qfi_kernel`. w must be a state by `bloch.in_qubit_ball`,
    the rule `to_density` applies too, and dw must be finite;
    InvalidInputError otherwise."""
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    if w.shape != (3,) or dw.shape != (3,):
        raise InvalidInputError(
            f"expected two qubit Bloch vectors of length 3, got shapes "
            f"{w.shape} and {dw.shape}")
    ww, dd = float(w @ w), float(dw @ dw)
    r = math.sqrt(ww)
    if not (bloch.in_qubit_ball(r) and dd < math.inf):  # False on NaN
        raise InvalidInputError(f"need a qubit state w and finite dw, got "
                                f"||w|| = {r}, ||dw||^2 = {dd}")
    return QfiResult(*qubit_qfi_kernel(ww, dd, float(w @ dw)))


def qfi_qudit(d, w, dw):
    """Qudit QFI by the SLD route. One eigh of rho = I/d + (1/2) w.eta goes
    through `bloch.check_positive`; then ||dw||^2 on the outer (pure)
    boundary, and in the interior the SLD sum for drho = (1/2) dw.eta."""
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    n = d * d - 1
    if w.shape != (n,) or dw.shape != (n,) or not np.isfinite([w, dw]).all():
        raise InvalidInputError(
            f"expected two finite Bloch vectors of length {n}, got shapes "
            f"{w.shape} and {dw.shape}")
    # rho - I/d and drho in one product with the flattened generators
    rho, drho = (0.5 * np.array([w, dw]) @ bloch.generators(d).reshape(n, -1)
                 ).reshape(2, d, d)
    p, V = np.linalg.eigh(rho + np.eye(d) / d)
    bloch.check_positive(p[0])
    if float(np.linalg.norm(w)) >= bloch.max_radius(d) - BOUNDARY_TOL:
        return QfiResult(value=float(dw @ dw), branch="boundary")
    return QfiResult(value=_sld_sum(p, V, drho), branch="interior")


def qfi_sld_oracle(rho, drho):
    """SLD-route QFI of a density matrix (`bloch.check_density`) and its
    derivative (`bloch.check_derivative`)."""
    p, V = bloch.check_density(rho)
    return _sld_sum(p, V, bloch.check_derivative(drho, len(p)))


def _sld_sum(p, V, drho):
    """F = sum_{j,k} 2 |<j|drho|k>|^2 / (p_j + p_k) in the eigenbasis V of
    rho (eigenvalues p), over the support: pairs with p_j + p_k <= 1e-12
    are dropped (Braunstein and Caves, PRL 72, 3439, 1994)."""
    D = V.conj().T @ drho @ V
    psum = p[:, None] + p[None, :]
    mask = psum > SLD_SUPPORT_TOL
    vals = np.zeros_like(psum)
    np.divide(2.0 * np.abs(D) ** 2, psum, out=vals, where=mask)
    return float(np.sum(vals))


def qfi_family(fam, lam):
    """QFI of a state family at a parameter value, by dimension dispatch."""
    w, dw = fam.point(lam)
    if fam.d == 2:
        return qfi_qubit(w, dw)
    return qfi_qudit(fam.d, w, dw)


# ---------------------------------------------------------------------------
# Built-in families


def radial_family():
    """w = (0, 0, lambda) on (-1, 1): mixed states along the z axis."""
    return StateFamily(
        d=2,
        omega_of=lambda lam: np.array([0.0, 0.0, lam]),
        d_omega_of=lambda lam: np.array([0.0, 0.0, 1.0]),
        label="radial",
        domain=(-1.0, 1.0),
    )


def rotation_family():
    """w = (sin lambda, 0, cos lambda): pure states on a great circle."""
    return StateFamily(
        d=2,
        omega_of=lambda lam: np.array([np.sin(lam), 0.0, np.cos(lam)]),
        d_omega_of=lambda lam: np.array([np.cos(lam), 0.0, -np.sin(lam)]),
        label="rotation",
    )


def scaled_rotation_family(radius=0.8):
    """w = r (sin lambda, 0, cos lambda) with r < 1: mixed rotation."""
    if not (0.0 < radius < 1.0):
        raise InvalidInputError(f"radius must be in (0, 1), got {radius}")
    return StateFamily(
        d=2,
        omega_of=lambda lam: radius * np.array([np.sin(lam), 0.0, np.cos(lam)]),
        d_omega_of=lambda lam: radius * np.array([np.cos(lam), 0.0, -np.sin(lam)]),
        label=f"scaled-rotation(r={radius})",
    )


def axis_family(d, k=0):
    """Qudit family w = lambda e_k along one generator direction."""
    bloch.check_dimension(d)
    n = d * d - 1
    if not (0 <= k < n):
        raise InvalidInputError(f"axis index {k} out of range for d={d}")
    e = np.zeros(n)
    e[k] = 1.0
    return StateFamily(
        d=d,
        omega_of=lambda lam: lam * e,
        d_omega_of=lambda lam: e.copy(),
        label=f"axis-{k + 1}(d={d})",
        domain=(-bloch.max_radius(d), bloch.max_radius(d)),
    )


def table_family(path, d=2):
    """Family interpolated from a whitespace/comma table of rows
    (lambda, w_1, ..., w_{d^2-1}) with a piecewise-cubic spline."""
    from scipy.interpolate import CubicSpline

    rows = np.loadtxt(path, delimiter="," if _is_csv(path) else None)
    if rows.ndim != 2 or rows.shape[1] != d * d:
        raise InvalidInputError(
            f"table must have 1 + {d * d - 1} columns for d={d}, "
            f"got shape {rows.shape}"
        )
    lam = rows[:, 0]
    spline = CubicSpline(lam, rows[:, 1:], axis=0)
    dspline = spline.derivative()
    return StateFamily(
        d=d,
        omega_of=lambda x: np.asarray(spline(x), dtype=float),
        d_omega_of=lambda x: np.asarray(dspline(x), dtype=float),
        label=f"table({path})",
        domain=(float(lam[0]), float(lam[-1])),
    )


def _is_csv(path):
    with open(path) as fh:
        return "," in fh.readline()


def family_by_name(name, d=2):
    """Look up a built-in family by name: the qubit families radial,
    rotation and scaled-rotation (InvalidDimensionError for d != 2), or
    axis-<k> at dimension d, k a 1-based index of 1 to 4 decimal digits;
    InvalidInputError for any other name. Table families are built with
    `table_family(path)`."""
    qubit = {"radial": radial_family, "rotation": rotation_family,
             "scaled-rotation": scaled_rotation_family}
    if name in qubit:
        if d != 2:
            raise InvalidDimensionError(
                f"family {name!r} is a qubit family, got d={d!r}")
        return qubit[name]()
    # 4 digits hold every index to MAX_DIM^2 - 1 = 255; int() refuses
    # strings past 4300 digits
    axis = re.fullmatch(r"axis-([0-9]{1,4})", name)
    if axis:
        return axis_family(d, int(axis[1]) - 1)
    raise InvalidInputError(f"unknown family {name!r}")
