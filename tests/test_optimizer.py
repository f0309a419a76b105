import numpy as np
import pytest

from qldp import channels, ldp, optimizer
from qldp.bounds import fisher_cap_thm1, fisher_cap_thm2
from qldp.exceptions import (
    InvalidBudgetError,
    InvalidInputError,
    NotAStateError,
    UnsupportedDimensionError,
)
from qldp.optimizer import maximize_qfi, sweep
from qldp.qfi import family_by_name, qfi_qubit, radial_family, rotation_family


def _dep_qfi(fam, lam, eps):
    ch = channels.depolarizing(2, eps)
    w, dw = fam.omega_of(lam), fam.d_omega_of(lam)
    return qfi_qubit(ch.A @ w, ch.A @ dw).value


def test_beats_or_matches_depolarizing():
    fam = radial_family()
    res = maximize_qfi(fam, 0.6, 1.0, starts=8, seed=0)
    assert res.best_qfi >= _dep_qfi(fam, 0.6, 1.0) - 1e-12


def test_result_is_feasible_and_capped():
    fam = radial_family()
    res = maximize_qfi(fam, 0.6, 1.0, starts=8, seed=0)
    cert = ldp.certify(res.best_channel, 1.0)
    assert cert.margin <= 1e-9
    cap = fisher_cap_thm1(fam, 0.6, 1.0)
    assert res.fisher_cap == cap
    assert res.best_qfi <= cap + 1e-8
    assert 0.0 < res.cap_ratio <= 1.0 + 1e-8


def test_reported_margin_matches_recertification():
    fam = radial_family()
    res = maximize_qfi(fam, 0.6, 0.5, starts=4, seed=3)
    cert = ldp.certify(res.best_channel, 0.5)
    assert abs(res.feasibility_margin - cert.margin) < 1e-12


def test_deterministic_given_seed():
    fam = radial_family()
    a = maximize_qfi(fam, 0.6, 0.8, starts=6, seed=5)
    b = maximize_qfi(fam, 0.6, 0.8, starts=6, seed=5)
    assert np.array_equal(a.best_channel.A, b.best_channel.A)
    assert np.array_equal(a.best_channel.c, b.best_channel.c)
    assert a.best_qfi == b.best_qfi
    assert a.evaluations == b.evaluations


def test_c_zero_mode():
    fam = rotation_family()
    res = maximize_qfi(fam, 0.3, 0.25, starts=8, seed=1, c_zero=True)
    assert np.all(res.best_channel.c == 0.0)
    cap = fisher_cap_thm2(fam, 0.3, 0.25)
    assert res.fisher_cap == cap
    assert res.best_qfi <= cap + 1e-8
    cert = ldp.certify(res.best_channel, 0.25)
    assert cert.margin <= 1e-9


def test_rotation_family_general_mode_has_no_cap():
    res = maximize_qfi(rotation_family(), 0.3, 1.0, starts=4, seed=0)
    assert res.fisher_cap is None
    assert res.cap_ratio is None


def test_more_starts_never_worse():
    fam = radial_family()
    few = maximize_qfi(fam, 0.6, 1.0, starts=2, seed=9)
    many = maximize_qfi(fam, 0.6, 1.0, starts=10, seed=9)
    assert many.best_qfi >= few.best_qfi - 1e-9


def test_rejects_bad_inputs():
    for eps in (0.0, float("nan"), float("inf"), 1e3):
        with pytest.raises(InvalidBudgetError):
            maximize_qfi(radial_family(), 0.6, eps, starts=2)
    with pytest.raises(InvalidInputError):
        maximize_qfi(radial_family(), float("nan"), 0.5, starts=2)
    with pytest.raises(NotAStateError):
        maximize_qfi(radial_family(), 1.5, 0.5, starts=2)
    with pytest.raises(UnsupportedDimensionError):
        maximize_qfi(family_by_name("axis-1", d=3), 0.3, 1.0, starts=2)


def test_sweep_monotone_in_budget():
    fam = radial_family()
    grid = [0.25, 0.5, 1.0, 2.0]
    results = sweep(fam, 0.6, grid, starts=4, seed=0)
    values = [r.best_qfi for r in results]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
    for r, eps in zip(results, grid):
        assert r.eps == eps
        assert r.feasibility_margin <= 1e-9
