"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:
run `pytest tests/test_acceptance.py -v -s` for the full report.
"""

import math
import time

import numpy as np
import pytest

from qldp import bloch, channels, divergence, estimation, ldp, optimizer
from qldp.bounds import (
    biased_factor,
    bounds_cor1,
    bounds_thm1,
    fisher_cap_thm2,
)
from qldp.qfi import (
    qfi_qubit,
    qfi_qudit,
    qfi_sld_oracle,
    radial_family,
    rotation_family,
)

from conftest import random_mixed_bloch_vector, random_qubit_channel


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_certifier_vs_audit_agreement():
    t0 = time.time()
    rng = np.random.default_rng(20240501)
    budgets = (0.1, 0.5, 1.0, 2.0)
    disagreements = 0
    unrefuted = 0
    for _ in range(200):
        ch = random_qubit_channel(rng)
        for eps in budgets:
            cert = ldp.certify(ch, eps)
            audit = ldp.audit_by_sampling(ch, eps, 50, seed=7)
            if cert.verdict and not audit.consistent:
                disagreements += 1
            if not cert.verdict and cert.margin > 1e-3:
                targeted = ldp.audit_by_sampling(
                    ch, eps, 50, seed=7,
                    extra_pairs=[cert.witness_pair])
                if targeted.consistent:
                    unrefuted += 1
    dt = time.time() - t0
    _report("criterion 1: certifier/audit equivalence",
            disagreements == 0 and unrefuted == 0 and dt < 60.0,
            f"disagreements={disagreements}, unrefuted={unrefuted}, "
            f"runtime={dt:.1f}s")


def test_criterion_2_qfi_oracle_agreement():
    t0 = time.time()
    rng = np.random.default_rng(20240502)
    etas2 = bloch.generators(2)
    worst = 0.0
    for _ in range(1000):
        w = 0.95 * random_mixed_bloch_vector(2, rng)
        dw = rng.standard_normal(3)
        a = qfi_qubit(w, dw).value
        b = qfi_qudit(2, w, dw).value
        rho = bloch.to_density(w)
        drho = 0.5 * np.tensordot(dw, etas2, axes=(0, 0))
        c = qfi_sld_oracle(rho, drho)
        worst = max(worst, abs(a - b) / a, abs(a - c) / a)
    worst_qudit = 0.0
    for d in (3, 4):
        etas = bloch.generators(d)
        for _ in range(200):
            w = 0.9 * random_mixed_bloch_vector(d, rng)
            dw = rng.standard_normal(d * d - 1)
            a = qfi_qudit(d, w, dw).value
            rho = bloch.to_density(w, d)
            drho = 0.5 * np.tensordot(dw, etas, axes=(0, 0))
            b = qfi_sld_oracle(rho, drho)
            worst_qudit = max(worst_qudit, abs(a - b) / a)
    dt = time.time() - t0
    _report("criterion 2: QFI oracle agreement",
            worst < 1e-8 and worst_qudit < 1e-8 and dt < 30.0,
            f"qubit rel err={worst:.2e}, qudit rel err={worst_qudit:.2e}, "
            f"runtime={dt:.1f}s")


def test_criterion_3_depolarizing_tightness():
    worst_margin = 0.0
    for eps in np.linspace(0.1, 2.0, 20):
        cert = ldp.certify(channels.depolarizing(2, float(eps)), float(eps))
        worst_margin = max(worst_margin, abs(cert.margin))
    audits_ok = True
    for d in (3, 4):
        for eps in (0.1, 1.0, 2.0):
            res = ldp.audit_by_sampling(channels.depolarizing(d, eps), eps,
                                        1000, seed=3)
            audits_ok = audits_ok and res.consistent
    _report("criterion 3: depolarizing calibration is tight",
            worst_margin <= 1e-9 and audits_ok,
            f"worst qubit |margin|={worst_margin:.2e}, "
            f"qudit audits consistent={audits_ok}")


@pytest.fixture(scope="module")
def desk_scale_grid():
    fam = radial_family()
    eps = np.geomspace(0.01, 0.5, 20)
    reports = [bounds_thm1(fam, 0.6, 0.01, float(e)) for e in eps]
    return eps, reports


def test_criterion_4a_sandwich(desk_scale_grid):
    eps, reports = desk_scale_grid
    ok = all(r.N_lower_real <= r.N_upper_real for r in reports)
    _report("criterion 4(a): N_lower <= N_upper on the grid", ok)


def test_criterion_4b_upper_slope(desk_scale_grid):
    eps, reports = desk_scale_grid
    upper = np.array([r.N_upper_real for r in reports])
    slope = float(np.polyfit(np.log(eps), np.log(upper), 1)[0])
    _report("criterion 4(b): upper-bound log-log slope -2 +/- 0.05",
            abs(slope + 2.0) <= 0.05, f"slope={slope:.4f}")


def test_criterion_4b_lower_slope(desk_scale_grid):
    # The lower bound carries the full (e^eps - 1)^-2 dependence, which
    # over [0.01, 0.5] fits to a slope near -2.11, outside the stated
    # band; kept as-is rather than fit over a narrower grid.
    eps, reports = desk_scale_grid
    lower = np.array([r.N_lower_real for r in reports])
    slope = float(np.polyfit(np.log(eps), np.log(lower), 1)[0])
    _report("criterion 4(b): lower-bound log-log slope -2 +/- 0.05",
            abs(slope + 2.0) <= 0.05, f"slope={slope:.4f}")


def test_criterion_4c_optimizer_capped(desk_scale_grid):
    t0 = time.time()
    eps, _ = desk_scale_grid
    results = optimizer.sweep(radial_family(), 0.6, eps, starts=32, seed=0)
    ok = True
    ratios = []
    for r in results:
        ratios.append(r.cap_ratio)
        ok = ok and r.fisher_cap is not None
        ok = ok and r.best_qfi <= r.fisher_cap + 1e-8
    dt = time.time() - t0
    _report("criterion 4(c): optimizer respects the Fisher cap",
            ok and dt < 300.0,
            f"cap_ratio range=[{min(ratios):.3f}, {max(ratios):.3f}], "
            f"runtime={dt:.1f}s")


def test_criterion_5_achievability_monte_carlo():
    t0 = time.time()
    out = estimation.validate_upper_bound(radial_family(), 0.6, alpha=0.01,
                                          eps=1.0, trials=100000, seed=2024)
    mse, crb = out["empirical_mse"], out["crb_value"]
    ok = mse <= 0.01 * 1.03 and abs(mse - crb) / crb <= 0.02
    dt = time.time() - t0
    _report("criterion 5: upper bound achieved by the SLD estimator",
            ok and dt < 120.0,
            f"N={out['n_copies']}, MSE={mse:.6f}, CRB={crb:.6f}, "
            f"ratio={mse / crb:.4f}, runtime={dt:.1f}s")


def test_criterion_6_small_budget_envelope():
    t0 = time.time()
    rng = np.random.default_rng(20240506)
    eps = rng.uniform(1e-12, 1.0, size=10000)
    eps = eps[eps < 1.0]
    expm1 = np.expm1(eps)
    env_ok = bool(np.all(eps ** 2 <= expm1 ** 2)
                  and np.all(expm1 ** 2 <= 9.0 * eps ** 2))
    fam = radial_family()
    bounds_ok = True
    for e in rng.uniform(0.01, 0.999, size=200):
        rep = bounds_thm1(fam, 0.6, 0.01, float(e))
        lo, hi = bounds_cor1(fam, 0.6, 0.01, float(e))
        bounds_ok = bounds_ok and lo <= rep.N_lower_real + 1e-12
        bounds_ok = bounds_ok and hi >= rep.N_upper_real - 1e-12
    dt = time.time() - t0
    _report("criterion 6: small-budget envelope",
            env_ok and bounds_ok and dt < 5.0,
            f"inequalities={env_ok}, envelope={bounds_ok}, runtime={dt:.1f}s")


def test_criterion_7_restricted_cap():
    t0 = time.time()
    fam = rotation_family()
    ok = True
    worst_excess = -np.inf
    for eps in np.linspace(0.05, 0.45, 9):
        res = optimizer.maximize_qfi(fam, 0.3, float(eps), starts=8, seed=1,
                                     c_zero=True)
        cap = fisher_cap_thm2(fam, 0.3, float(eps))
        worst_excess = max(worst_excess, res.best_qfi - cap)
        ok = ok and res.best_qfi <= cap + 1e-8
    dt = time.time() - t0
    _report("criterion 7: c=0 search never exceeds the restricted cap",
            ok and dt < 180.0,
            f"worst excess={worst_excess:.2e}, runtime={dt:.1f}s")


def test_criterion_8_trace_norm_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(20240508)
    worst = 0.0
    for _ in range(10000):
        m = rng.uniform(-2.0, 2.0)
        n = rng.standard_normal(3)
        M = m * np.eye(2) + np.tensordot(
            n, bloch.generators(2), axes=(0, 0))
        closed = abs(m - np.linalg.norm(n)) + abs(m + np.linalg.norm(n))
        eigen = float(np.sum(np.abs(np.linalg.eigvalsh(M))))
        worst = max(worst, abs(closed - eigen))
    dt = time.time() - t0
    _report("criterion 8: qubit trace-norm closed form",
            worst < 1e-12 and dt < 2.0,
            f"worst abs err={worst:.2e}, runtime={dt:.2f}s")


def test_criterion_9_bias_quarter_scaling():
    rng = np.random.default_rng(20240509)
    fam = radial_family()
    ok = True
    assert biased_factor(0.5) == 0.25
    for _ in range(100):
        lam = rng.uniform(0.05, 0.95)
        alpha = rng.uniform(0.001, 0.3)
        eps = rng.uniform(0.05, 3.0)
        plain = bounds_thm1(fam, lam, alpha, eps)
        biased = bounds_thm1(fam, lam, alpha, eps, bias=0.5)
        ok = ok and biased.N_lower_real == 0.25 * plain.N_lower_real
    _report("criterion 9: bias b=0.5 quarters the lower bound exactly", ok)
