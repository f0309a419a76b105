"""Exception types shared across the package.

All inherit from ValueError so callers that only care about "bad input"
can catch one base class.
"""

import numbers


class QldpError(ValueError):
    """Base class for all package-specific errors."""


class InvalidDimensionError(QldpError):
    """Hilbert-space dimension is not an integer >= 2."""


class UnsupportedDimensionError(QldpError):
    """Operation only defined for qubits (d=2) was called with d != 2."""


class NotAStateError(QldpError):
    """A candidate density matrix has a negative eigenvalue."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class InvalidInputError(QldpError):
    """Malformed input (non-Hermitian matrix, shape mismatch, ...)."""


def check_count(name, value, low=0, high=None):
    """Raise InvalidInputError unless value is an integer (a Python or
    numpy one, not a float) in [low, high]: the one check of seeds, counts
    and sizes."""
    if not (isinstance(value, numbers.Integral) and low <= value
            and (high is None or value <= high)):
        bound = "" if high is None else f" and <= {high}"
        raise InvalidInputError(
            f"need an integer {name} >= {low}{bound}, got {value!r}")


class InvalidBudgetError(QldpError):
    """Privacy budget eps is negative, NaN or above MAX_BUDGET."""


# e^(2 eps) < 1e261: the formulas that square e^eps stay finite
MAX_BUDGET = 300.0


def check_budget(eps):
    """Raise InvalidBudgetError unless 0 <= eps <= MAX_BUDGET."""
    if not 0 <= eps <= MAX_BUDGET:
        raise InvalidBudgetError(
            f"privacy budget must be a number in [0, {MAX_BUDGET}], got {eps}"
        )


class OutOfRegimeError(QldpError):
    """Requested bound outside its regime of validity (e.g. the
    small-budget bounds with eps >= 1)."""


# Channel checks compare quantities of size e^eps with 1e-9 margins: on the
# calibrated depolarizing channels the audit's round-off is 1e-11 at eps = 10,
# 6e-10 at 14 (n = 200, d = 3..5) and past its tolerance from about 15.
MAX_CHANNEL_BUDGET = 10.0


def check_channel_budget(eps):
    """check_budget, then raise OutOfRegimeError above MAX_CHANNEL_BUDGET."""
    check_budget(eps)
    if eps > MAX_CHANNEL_BUDGET:
        raise OutOfRegimeError(
            f"channel budget {eps} is above {MAX_CHANNEL_BUDGET}")


class DivergedError(OutOfRegimeError):
    """A quantity is unbounded or a search failed to bracket a root, as for
    a channel that is not LDP at any budget up to MAX_CHANNEL_BUDGET."""


class RankDeficientError(QldpError):
    """SLD measurement requested at a rank-deficient operating state."""


class InvalidBiasError(QldpError):
    """Bias bound b outside [0, 1)."""
