"""Sample-complexity constants and bound calculators.

All calculators take a state family and an operating parameter value and
return counts N such that an unbiased estimator can (upper bound) or no
unbiased estimator under any eps-LDP channel can (lower bound) reach mean
squared error alpha from N privatized copies.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import qfi as qfi_mod
from .exceptions import (
    InvalidBiasError,
    InvalidInputError,
    OutOfRegimeError,
    UnsupportedDimensionError,
    check_budget,
)

INNER_PRODUCT_TOL = 1e-10
SQRT_E = math.sqrt(math.e)
THM2_DENOM = SQRT_E * (2.0 - SQRT_E)  # min of e^eps (2 - e^eps) on (0, 1/2)


@dataclass(frozen=True)
class BoundsReport:
    alpha: float
    eps: float
    C1: float  # None when the inner-product assumption fails
    C2: float
    C1_bar: float
    N_lower: int  # None with C1
    N_upper: int
    N_lower_real: float  # None with C1
    N_upper_real: float
    fisher_cap: float  # None with C1
    regime_flags: frozenset
    bias: float = 0.0
    notes: str = ""

    def to_dict(self):
        return dict(vars(self), regime_flags=sorted(self.regime_flags))


def _geometry(fam, lam):
    if fam.d != 2:
        raise UnsupportedDimensionError(
            "qubit bound calculators require d=2; see qudit_upper_bound"
        )
    return fam.point(lam)


def _check_regime(alpha, eps):
    """The input boundary of every count: alpha and eps finite
    (InvalidInputError, InvalidBudgetError), alpha > 0 and eps > 0
    (OutOfRegimeError)."""
    if not math.isfinite(alpha):
        raise InvalidInputError(f"alpha must be finite, got {alpha}")
    if alpha <= 0.0:
        raise OutOfRegimeError(f"alpha must be > 0, got {alpha}")
    check_budget(eps)
    if eps == 0.0:
        raise OutOfRegimeError("bounds diverge at eps = 0 (no information flow)")


def _finite(x):
    """x, or OutOfRegimeError when it is infinite or NaN: at extreme budgets
    e^eps - 1 or eps^2 under- or overflows and no bound is meaningful."""
    if not np.isfinite(x):
        raise OutOfRegimeError(
            "bound is not finite in double precision at this budget")
    return x


def _count(numerator, denominator):
    """numerator / denominator as a finite bound (see `_finite`)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(_finite(numerator / np.float64(denominator)))


def constants_thm1(fam, lam):
    """(C1, C2): C2 = 1/||dw||^2 and
    C1 = (1/||dw||^2) (4 + (1/4) ||dw||^2 / <dw, w>^2)^{-1}.
    C1 is None when |<dw, w>| <= 1e-10 (assumption violated)."""
    return _constants(*_geometry(fam, lam))


def _constants(w, dw):
    dd = float(dw @ dw)
    if dd == 0.0:
        raise OutOfRegimeError("family derivative vanishes; constants undefined")
    C2 = 1.0 / dd
    inner = float(dw @ w)
    if abs(inner) <= INNER_PRODUCT_TOL:
        return None, C2
    C1 = (1.0 / dd) / (4.0 + 0.25 * dd / (inner * inner))
    return C1, C2


def biased_factor(b):
    """Lower-bound scaling (1 - b)^2 for estimators with bias slope <= b."""
    if not (0.0 <= b < 1.0):
        raise InvalidBiasError(f"bias bound must be in [0, 1), got {b}")
    return (1.0 - b) ** 2


def fisher_cap_thm1(fam, lam, eps):
    """Certified QFI ceiling over all eps-LDP qubit channels:
    4 (e^eps - 1)^2 ||dw||^2 (1 + (1/16) ||dw||^2 / <dw, w>^2)."""
    return _fisher_cap(*_geometry(fam, lam), eps)


def _fisher_cap(w, dw, eps):
    inner = float(dw @ w)
    if abs(inner) <= INNER_PRODUCT_TOL:
        raise OutOfRegimeError(
            "inner product <dw, w> is numerically zero; the cap is undefined"
        )
    dd = float(dw @ dw)
    g = np.exp(eps)
    cap = 4.0 * (g - 1.0) ** 2 * dd * (1.0 + dd / (16.0 * inner * inner))
    return _finite(cap)


def fisher_cap_thm2(fam, lam, eps):
    """QFI ceiling over eps-LDP channels with c = 0 for eps in (0, 1/2):
    (e^eps - 1)^2 ||dw|| (||dw|| + (sqrt(e)(2 - sqrt(e)))^{-1})."""
    _, dw = _geometry(fam, lam)
    if not (0.0 < eps < 0.5):
        raise OutOfRegimeError(
            f"the c=0 cap requires eps in (0, 1/2), got {eps}"
        )
    nd = float(np.linalg.norm(dw))
    g = np.exp(eps)
    return _finite((g - 1.0) ** 2 * nd * (nd + 1.0 / THM2_DENOM))


def bounds_thm1(fam, lam, alpha, eps, bias=0.0):
    """Two-sided sample-complexity report:
    N_lower = C1 (1-b)^2 / (alpha (e^eps - 1)^2),
    N_upper = C2 (e^eps + 1)^2 / (alpha (e^eps - 1)^2).
    N_lower, N_lower_real and fisher_cap are None with C1."""
    _check_regime(alpha, eps)
    w, dw = _geometry(fam, lam)
    C1, C2 = _constants(w, dw)
    factor = biased_factor(bias)
    g = np.exp(eps)
    denom = alpha * (g - 1.0) ** 2
    upper = _count(C2 * (g + 1.0) ** 2, denom)
    flags = {"thm1_ok"} if C1 is not None else {"inner_product_zero"}
    notes = ""
    if eps < 1.0:
        flags.add("cor1_ok")
    if eps < 0.5:
        flags.add("thm2_ok")
    if eps > 1.0:
        notes = ("large-budget regime: the lower bound loosens arbitrarily "
                 "while the upper bound saturates at C2/alpha")
    C1_bar = _c1_bar(dw)
    if C1 is not None:
        lower = _count(factor * C1, denom)
        cap = _fisher_cap(w, dw, eps)
    else:
        lower = None
        cap = None
        notes = "inner product <dw, w> = 0: C1 and the Fisher cap are undefined"
    return BoundsReport(
        alpha=float(alpha),
        eps=float(eps),
        C1=C1,
        C2=C2,
        C1_bar=C1_bar,
        N_lower=None if lower is None else int(math.ceil(lower)),
        N_upper=int(math.ceil(upper)),
        N_lower_real=None if lower is None else float(lower),
        N_upper_real=float(upper),
        fisher_cap=None if cap is None else float(cap),
        regime_flags=frozenset(flags),
        bias=float(bias),
        notes=notes,
    )


def _c1_bar(dw):
    nd = float(np.linalg.norm(dw))
    return 1.0 / (nd * (nd + 1.0 / THM2_DENOM))


def bounds_cor1(fam, lam, alpha, eps, bias=0.0):
    """Small-budget bounds for eps in (0, 1): C1/(9 alpha eps^2) and
    C2 (e + 1)^2 / (alpha eps^2)."""
    _check_regime(alpha, eps)
    if eps >= 1.0:
        raise OutOfRegimeError(
            f"small-budget bounds require eps in (0, 1), got {eps}"
        )
    C1, C2 = constants_thm1(fam, lam)
    if C1 is None:
        raise OutOfRegimeError(
            "inner product <dw, w> = 0: small-budget lower bound undefined"
        )
    factor = biased_factor(bias)
    lower = _count(factor * C1, 9.0 * alpha * eps * eps)
    upper = _count(C2 * (math.e + 1.0) ** 2, alpha * eps * eps)
    return lower, upper


def bounds_thm2(fam, lam, alpha, eps, bias=0.0):
    """Restricted-channel (c = 0) bounds for eps in (0, 1/2):
    C1_bar / (alpha (e^eps - 1)^2) and C2 (sqrt(e) + 1)^2 / (alpha eps^2).
    Valid for pure families (no inner-product assumption)."""
    _check_regime(alpha, eps)
    if eps >= 0.5:
        raise OutOfRegimeError(
            f"restricted-channel bounds require eps in (0, 1/2), got {eps}"
        )
    w, dw = _geometry(fam, lam)
    dd = float(dw @ dw)
    if dd == 0.0:
        raise OutOfRegimeError("family derivative vanishes")
    factor = biased_factor(bias)
    C1_bar = _c1_bar(dw)
    g = np.exp(eps)
    lower = _count(factor * C1_bar, alpha * (g - 1.0) ** 2)
    upper = _count((1.0 / dd) * (SQRT_E + 1.0) ** 2, alpha * eps * eps)
    return lower, upper


def qudit_upper_bound(fam, lam, alpha, eps, d=None):
    """Qudit depolarizing achievability count, reported two ways.

    N_asymptotic uses the mixed-point approximation
    F ~= (1-p)^2 (d/2) ||dw||^2 with p = d/(d - 1 + e^eps) (valid for
    eps << 1/d); N_exact uses the exact qudit QFI of the depolarized
    family. Both are ceil(1 / (alpha F))."""
    _check_regime(alpha, eps)
    d = fam.d if d is None else d
    w, dw = fam.point(lam)
    p = d / (d - 1.0 + np.exp(eps))
    shrink = 1.0 - p
    f_asym = shrink ** 2 * (d / 2.0) * float(dw @ dw)
    f_exact = qfi_mod.qfi_qudit(d, shrink * w, shrink * dw).value
    n_asym = int(math.ceil(_count(1.0, alpha * f_asym)))
    n_exact = int(math.ceil(_count(1.0, alpha * f_exact)))
    return n_asym, n_exact
