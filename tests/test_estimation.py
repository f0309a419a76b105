import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from qldp import bloch, channels, estimation
from qldp.estimation import simulate, sld_measurement, validate_upper_bound
from qldp.exceptions import InvalidInputError, RankDeficientError
from qldp.qfi import family_by_name, qfi_sld_oracle, radial_family


def _operating_point(fam, lam, ch):
    w = np.asarray(fam.omega_of(lam), dtype=float)
    dw = fam.d_omega_of(lam)
    rho = bloch.to_density(ch.A @ w + ch.c, fam.d)
    etas = bloch.generators(fam.d)
    drho = 0.5 * np.tensordot(ch.A @ dw, etas, axes=(0, 0))
    return rho, drho


def test_measurement_invariants_qubit():
    fam = radial_family()
    ch = channels.depolarizing(2, 1.0)
    rho, drho = _operating_point(fam, 0.6, ch)
    meas = sld_measurement(rho, drho)
    d = rho.shape[0]
    total = meas.projectors.sum(axis=0)
    assert np.max(np.abs(total - np.eye(d))) < 1e-10
    assert abs(meas.probabilities.sum() - 1.0) < 1e-12
    # E[l] = tr(rho L) = tr(drho) = 0 since the derivative is traceless
    assert abs(meas.probabilities @ meas.scores) < 1e-9
    assert abs(meas.probabilities @ meas.scores ** 2 - meas.fisher) < 1e-12


def test_expected_score_equals_fisher_slope():
    # tr(rho L) need not vanish in general, but tr(drho L) = F does
    fam = radial_family()
    ch = channels.depolarizing(2, 0.7)
    rho, drho = _operating_point(fam, 0.5, ch)
    meas = sld_measurement(rho, drho)
    slope = sum(float(np.real(np.trace(meas.projectors[m] @ drho)))
                * meas.scores[m] for m in range(len(meas.scores)))
    assert abs(slope - meas.fisher) < 1e-8


def test_fisher_matches_sld_oracle():
    fam = radial_family()
    ch = channels.depolarizing(2, 1.3)
    rho, drho = _operating_point(fam, 0.4, ch)
    meas = sld_measurement(rho, drho)
    assert abs(meas.fisher - qfi_sld_oracle(rho, drho)) < 1e-10


def test_zero_derivative_gives_zero_fisher():
    rho = bloch.to_density(np.array([0.0, 0.0, 0.4]))
    meas = sld_measurement(rho, np.zeros((2, 2)))
    assert meas.fisher == 0.0
    assert np.max(np.abs(meas.scores)) < 1e-12


def test_qutrit_measurement_complete():
    fam = family_by_name("axis-1", d=3)
    ch = channels.depolarizing(3, 0.8)
    rho, drho = _operating_point(fam, 0.3, ch)
    meas = sld_measurement(rho, drho)
    assert meas.projectors.shape == (3, 3, 3)
    assert np.max(np.abs(meas.projectors.sum(axis=0) - np.eye(3))) < 1e-10
    assert abs(meas.fisher - qfi_sld_oracle(rho, drho)) < 1e-10


def test_rank_deficient_rejected():
    rho = bloch.to_density(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(RankDeficientError):
        sld_measurement(rho, 0.5 * np.diag([1.0, -1.0]).astype(complex))


def test_non_hermitian_derivative_rejected():
    rho = bloch.to_density(np.array([0.0, 0.0, 0.3]))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        sld_measurement(rho, bad)


@pytest.mark.parametrize("rho, drho", [
    ([[0.7, 0.0], [0.0, 0.3]], [[np.nan, 0.0], [0.0, 0.0]]),
    ([[np.nan, 0.0], [0.0, 0.3]], [[0.5, 0.0], [0.0, -0.5]]),
], ids=["drho-nan", "rho-nan"])
def test_non_finite_input_rejected(rho, drho):
    with pytest.raises(InvalidInputError):
        sld_measurement(np.array(rho), np.array(drho))


def test_simulate_reproducible():
    fam = radial_family()
    ch = channels.depolarizing(2, 1.0)
    a = simulate(fam, 0.6, ch, 200, 500, seed=42)
    b = simulate(fam, 0.6, ch, 200, 500, seed=42)
    assert a == b
    c = simulate(fam, 0.6, ch, 200, 500, seed=43)
    assert c.empirical_mse != a.empirical_mse


def test_simulate_rejects_bad_sizes():
    fam = radial_family()
    ch = channels.depolarizing(2, 1.0)
    with pytest.raises(InvalidInputError):
        simulate(fam, 0.6, ch, 0, 10, seed=0)
    with pytest.raises(InvalidInputError):
        simulate(fam, 0.6, ch, 10, 0, seed=0)


def test_simulate_takes_only_integral_counts():
    fam = radial_family()
    ch = channels.depolarizing(2, 1.0)
    for n_copies, trials in ((2.5, 10), (10, 10.5), (10.0, 10)):
        with pytest.raises(InvalidInputError):
            simulate(fam, 0.6, ch, n_copies, trials, seed=0)
    res = simulate(fam, 0.6, ch, np.int64(10), np.int64(5), seed=0)
    assert (res.n_copies, res.n_trials) == (10, 5)


# A generic path inside the d = 16 state body, so the SLD scores are generic;
# the axis families give few distinct scores, whose sums rarely round apart.
THREAD_SCRIPT = """
import hashlib
import numpy as np
from qldp.channels import depolarizing
from qldp.estimation import _privatized_operating_point, _score_sums
from qldp.estimation import simulate, sld_measurement
from qldp.qfi import StateFamily
Q = np.linalg.qr(np.random.default_rng(16).standard_normal((255, 2)))[0]
V = 0.05 * Q.T
fam = StateFamily(16, lambda t: np.cos(t) * V[0] + np.sin(t) * V[1],
                  lambda t: np.cos(t) * V[1] - np.sin(t) * V[0])
ch = depolarizing(16, 1.0)
meas = sld_measurement(*_privatized_operating_point(fam, 0.3, ch))
for trials in (60_000, 52_460):
    sums = _score_sums(np.random.default_rng(0), meas, 1000, trials)
    print(hashlib.sha256(sums.tobytes()).hexdigest())
    print(simulate(fam, 0.3, ch, 1000, trials, 0).to_dict())
"""


def test_simulate_does_not_depend_on_the_blas_thread_count():
    # one (52460, 16) @ (16,) product over all trials differs in its last
    # bits between one and two OpenBLAS threads
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_estimator_saturates_crb():
    fam = radial_family()
    ch = channels.depolarizing(2, 1.0)
    trials, n = 20000, 300
    stats = simulate(fam, 0.6, ch, n, trials, seed=7)
    crb = stats.crb_value
    # mean: locally unbiased, sigma_mean = sqrt(crb / trials)
    assert abs(stats.empirical_mean - 0.6) < 4.0 * np.sqrt(crb / trials)
    # variance of the MSE estimate ~ 2 crb^2 / trials
    assert abs(stats.empirical_mse - crb) < 5.0 * crb * np.sqrt(2.0 / trials)


def test_unprivatized_radial_fisher():
    fam = radial_family()
    ch = channels.identity_channel(2)
    stats = simulate(fam, 0.6, ch, 50, 10, seed=0)
    assert abs(stats.fisher - 1.0 / (1.0 - 0.36)) < 1e-12
    assert abs(stats.fisher - 1.5625) < 1e-12


def test_privacy_costs_fisher():
    fam = radial_family()
    fishers = []
    for eps in (0.25, 0.5, 1.0, 2.0, 4.0):
        ch = channels.depolarizing(2, eps)
        fishers.append(simulate(fam, 0.6, ch, 10, 5, seed=0).fisher)
    assert all(a < b for a, b in zip(fishers, fishers[1:]))
    assert fishers[-1] < 1.5625


def test_validate_upper_bound_passes():
    out = validate_upper_bound(radial_family(), 0.6, alpha=0.01, eps=1.0,
                               trials=20000, seed=11)
    assert out["passed"]
    assert out["empirical_mse"] <= out["alpha"] * out["guard_factor"]
    assert out["crb_value"] <= out["alpha"]
