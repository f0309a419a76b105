"""One check per input kind, at every public entry point: each
reproducer below returned a number before its check was shared, and each
now raises the documented QldpError subclass."""

import inspect

import numpy as np
import pytest

import qldp
from qldp.bounds import fisher_cap, fisher_cap_thm1, fisher_cap_thm2
from qldp.channels import depolarizing
from qldp.divergence import hockey_stick, hockey_stick_qubit
from qldp.estimation import sld_measurement
from qldp.exceptions import InvalidBudgetError, InvalidInputError, NotAStateError
from qldp.qfi import qfi_sld_oracle, radial_family

NEGATIVE = np.diag([1.5, -0.5])  # Hermitian, trace 1, eigenvalue -0.5
TRACE_2 = np.diag([0.9, 0.9])
LOWER_ZERO = np.array([[0.5, 0.3], [0.0, 0.5]])  # eigh reads one triangle
MIXED = np.eye(2) / 2
DRHO = np.diag([0.5, -0.5])

REPRODUCERS = {
    "oracle-negative": (lambda: qfi_sld_oracle(NEGATIVE, DRHO), NotAStateError),
    "oracle-trace": (lambda: qfi_sld_oracle(TRACE_2, DRHO), InvalidInputError),
    "oracle-not-hermitian": (lambda: qfi_sld_oracle(LOWER_ZERO, DRHO),
                             InvalidInputError),
    "oracle-derivative-shape": (lambda: qfi_sld_oracle(MIXED, np.zeros((3, 3))),
                                InvalidInputError),
    "sld-trace": (lambda: sld_measurement(TRACE_2, DRHO), InvalidInputError),
    "sld-not-hermitian": (lambda: sld_measurement(LOWER_ZERO, DRHO),
                          InvalidInputError),
    "sld-traceful-derivative": (lambda: sld_measurement(MIXED, np.eye(2)),
                                InvalidInputError),
    "hockey-stick-rho": (lambda: hockey_stick(NEGATIVE, MIXED, 1.0),
                         NotAStateError),
    "hockey-stick-sigma": (lambda: hockey_stick(MIXED, NEGATIVE, 1.0),
                           NotAStateError),
    "hockey-stick-qubit-ball": (
        lambda: hockey_stick_qubit([2.0, 0, 0], [0.0, 0, 0], 1.5),
        InvalidInputError),
    "cap-thm1-negative": (lambda: fisher_cap_thm1(radial_family(), 0.6, -1.0),
                          InvalidBudgetError),
    "cap-thm1-nan": (lambda: fisher_cap_thm1(radial_family(), 0.6, np.nan),
                     InvalidBudgetError),
    "cap-nan": (lambda: fisher_cap(radial_family(), 0.6, np.nan),
                InvalidBudgetError),
    "cap-negative": (lambda: fisher_cap(radial_family(), 0.6, -1.0),
                     InvalidBudgetError),
    "cap-thm2-nan": (lambda: fisher_cap_thm2(radial_family(), 0.6, np.nan),
                     InvalidBudgetError),
}


@pytest.mark.parametrize("case", REPRODUCERS)
def test_invalid_input_raises_its_error(case):
    call, error = REPRODUCERS[case]
    with pytest.raises(error):
        call()


# Arguments for every budgeted entry point, keyed by parameter name: a new
# entry point with an eps and an unknown parameter fails here until the
# table names it.
ARGUMENTS = {
    "fam": radial_family(), "lam": 0.6, "lam0": 0.6, "alpha": 0.01,
    "ch": depolarizing(2, 1.0), "d": 2, "n": 5, "seed": 0, "trials": 10,
}
# functions only: the result records (BoundsReport, ...) store an eps
BUDGETED = sorted(
    name for name in qldp.__all__
    if inspect.isfunction(getattr(qldp, name))
    and "eps" in inspect.signature(getattr(qldp, name)).parameters)


def test_budgeted_entry_points_are_found():
    assert {"bounds_thm1", "certify", "depolarizing", "fisher_cap_thm1",
            "fisher_cap_thm2", "maximize_qfi"} <= set(BUDGETED)


@pytest.mark.parametrize("eps", [np.nan, -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("name", BUDGETED)
def test_every_budgeted_entry_point_checks_its_budget(name, eps):
    fn = getattr(qldp, name)
    required = [p.name for p in inspect.signature(fn).parameters.values()
                if p.default is inspect.Parameter.empty]
    args = {p: eps if p == "eps" else ARGUMENTS[p] for p in required}
    with pytest.raises(InvalidBudgetError):
        fn(**args)
