"""Sample-complexity constants and bound calculators.

All calculators take a state family and an operating parameter value and
return counts N such that an unbiased estimator can (upper bound) or no
unbiased estimator under any eps-LDP channel can (lower bound) reach mean
squared error alpha from N privatized copies.

Each count is the Cramer-Rao count (1 - b)^2 / (alpha F) of one Fisher
information F, with e^eps - 1 by expm1 so that it holds at small eps.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import channels, qfi as qfi_mod
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
    """(dw, C1, C2) of a qubit family at lam (see `constants_thm1`);
    OutOfRegimeError when dw = 0, where every channel gives QFI 0."""
    if fam.d != 2:
        raise UnsupportedDimensionError(
            "qubit bound calculators require d=2; see qudit_upper_bound"
        )
    w, dw = fam.point(lam)
    dd, inner = float(dw @ dw), float(dw @ w)
    if dd == 0.0:
        raise OutOfRegimeError("family derivative vanishes; constants undefined")
    if abs(inner) <= INNER_PRODUCT_TOL:
        return dw, None, 1.0 / dd
    return dw, (1.0 / dd) / (4.0 + 0.25 * dd / (inner * inner)), 1.0 / dd


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


def _count(F, alpha, factor=1.0):
    """The Cramer-Rao count factor / (alpha F), finite (see `_finite`)."""
    with np.errstate(divide="ignore", over="ignore"):
        return float(_finite(factor / (alpha * np.float64(F))))


def _cap(C, eps):
    """The lower-bound Fisher information (e^eps - 1)^2 / C."""
    with np.errstate(over="ignore"):
        return float(_finite(np.expm1(eps) ** 2 / C))


def _depolarized_floor(d, eps, dw):
    """Mixed-point QFI shrink^2 (d/2) ||dw||^2 of the depolarized family."""
    return channels.depolarizing_shrink(d, eps) ** 2 * (d / 2) * float(dw @ dw)


def constants_thm1(fam, lam):
    """(C1, C2): C2 = 1/||dw||^2 and
    C1 = (1/||dw||^2) (4 + (1/4) ||dw||^2 / <dw, w>^2)^{-1}.
    C1 is None when |<dw, w>| <= 1e-10 (assumption violated)."""
    return _geometry(fam, lam)[1:]


def _c1_bar(dw):
    nd = float(np.linalg.norm(dw))
    return 1.0 / (nd * (nd + 1.0 / THM2_DENOM))


def biased_factor(b):
    """Lower-bound scaling (1 - b)^2 for estimators with bias slope <= b."""
    if not (0.0 <= b < 1.0):
        raise InvalidBiasError(f"bias bound must be in [0, 1), got {b}")
    return (1.0 - b) ** 2


def fisher_cap(fam, lam, eps, c_zero=False):
    """The QFI ceiling that applies at lam: `fisher_cap_thm1` when
    <dw, w> != 0, else `fisher_cap_thm2` for c = 0 channels with eps in
    (0, 1/2), else None. Every cap checks its budget (`check_budget`)."""
    check_budget(eps)
    dw, C1, _ = _geometry(fam, lam)
    if C1 is not None:
        return _cap(C1, eps)
    return _cap(_c1_bar(dw), eps) if c_zero and 0.0 < eps < 0.5 else None


def fisher_cap_thm1(fam, lam, eps):
    """Certified QFI ceiling over all eps-LDP qubit channels:
    4 (e^eps - 1)^2 ||dw||^2 (1 + (1/16) ||dw||^2 / <dw, w>^2)."""
    cap = fisher_cap(fam, lam, eps)
    if cap is None:
        raise OutOfRegimeError(
            "inner product <dw, w> is numerically zero; the cap is undefined")
    return cap


def fisher_cap_thm2(fam, lam, eps):
    """QFI ceiling over eps-LDP channels with c = 0 for eps in (0, 1/2):
    (e^eps - 1)^2 ||dw|| (||dw|| + (sqrt(e)(2 - sqrt(e)))^{-1})."""
    check_budget(eps)
    dw = _geometry(fam, lam)[0]
    if not (0.0 < eps < 0.5):
        raise OutOfRegimeError(f"the c=0 cap requires eps in (0, 1/2), got {eps}")
    return _cap(_c1_bar(dw), eps)


def bounds_thm1(fam, lam, alpha, eps, bias=0.0):
    """Two-sided sample-complexity report:
    N_lower = C1 (1-b)^2 / (alpha (e^eps - 1)^2), the count of fisher_cap;
    N_upper = C2 (e^eps + 1)^2 / (alpha (e^eps - 1)^2), of the depolarized QFI.
    N_lower, N_lower_real and fisher_cap are None with C1."""
    _check_regime(alpha, eps)
    dw, C1, C2 = _geometry(fam, lam)
    factor = biased_factor(bias)
    upper = _count(_depolarized_floor(2, eps, dw), alpha)
    cap = None if C1 is None else _cap(C1, eps)
    lower = None if C1 is None else _count(cap, alpha, factor)
    flags = {"thm1_ok"} if C1 is not None else {"inner_product_zero"}
    notes = ""
    if eps < 1.0:
        flags.add("cor1_ok")
    if eps < 0.5:
        flags.add("thm2_ok")
    if eps > 1.0:
        notes = ("large-budget regime: the lower bound loosens arbitrarily "
                 "while the upper bound saturates at C2/alpha")
    if C1 is None:
        notes = "inner product <dw, w> = 0: C1 and the Fisher cap are undefined"
    return BoundsReport(
        alpha=float(alpha),
        eps=float(eps),
        C1=C1,
        C2=C2,
        C1_bar=_c1_bar(dw),
        N_lower=None if lower is None else math.ceil(lower),
        N_upper=math.ceil(upper),
        N_lower_real=lower,
        N_upper_real=upper,
        fisher_cap=cap,
        regime_flags=frozenset(flags),
        bias=float(bias),
        notes=notes,
    )


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
    lower = _count(9.0 * eps * eps / C1, alpha, biased_factor(bias))
    upper = _count(eps * eps / (C2 * (math.e + 1.0) ** 2), alpha)
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
    dw, _, C2 = _geometry(fam, lam)
    lower = _count(_cap(_c1_bar(dw), eps), alpha, biased_factor(bias))
    upper = _count(eps * eps / (C2 * (SQRT_E + 1.0) ** 2), alpha)
    return lower, upper


def qudit_upper_bound(fam, lam, alpha, eps):
    """Qudit depolarizing achievability count, reported two ways.

    N_asymptotic uses the mixed-point QFI F ~= (1-p)^2 (d/2) ||dw||^2
    (valid for eps << 1/d; at d = 2 it is `bounds_thm1`'s N_upper);
    N_exact uses the exact qudit QFI of the depolarized family. Both are
    ceil(1 / (alpha F))."""
    _check_regime(alpha, eps)
    w, dw = fam.point(lam)
    shrink = channels.depolarizing_shrink(fam.d, eps)
    f_exact = qfi_mod.qfi_qudit(fam.d, shrink * w, shrink * dw).value
    return (math.ceil(_count(_depolarized_floor(fam.d, eps, dw), alpha)),
            math.ceil(_count(f_exact, alpha)))
