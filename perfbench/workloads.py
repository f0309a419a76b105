"""The three benchmark workloads: seeded inputs, the call into `qldp` that
each op makes, and an independent check of every op's output.

Every workload draws its ops in decks: a deck is a fixed mix of op kinds
whose parameters and order come from (seed, deck index), so each deck has
the same composition and any seed gives the same work per deck. Checks use
the benchmark's own reference formulas and never call `qldp`, so a traced
run traces only the ops.

A check returns (ok, quality, digest):
  ok       False marks a failed op: an escaped exception, a wrong exit code,
           output that is not strict JSON or CSV, or a wrong value;
  quality  the op's contribution to the workload's `quality` metric, or None;
  digest   the op's raw result, compared between traced and untraced runs.
"""

import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
import qldp  # noqa: E402
from qldp import channels, cli, ldp, optimizer, qfi  # noqa: E402

if Path(qldp.__file__).resolve().parent != SRC / "qldp":
    raise ImportError(f"qldp was imported from {qldp.__file__}, not {SRC}")

MARGIN_TOL = 1e-9
AUDIT_TOL = 1e-9
REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    kind: str
    params: tuple


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(text):
    """Parse JSON that contains no NaN or Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# reference mathematics for the checks


def _fibonacci_sphere(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


REF_DIRECTIONS = _fibonacci_sphere(2048)


def ldp_objective(A, c, eps, U):
    g = math.exp(eps)
    return (1.0 + g) * np.linalg.norm(U @ A, axis=1) + (1.0 - g) * (U @ c)


def reference_sup(A, c, eps, polish=60):
    """sup over unit u of (1 + e^eps)||A^T u|| + (1 - e^eps) c.u: the best
    of a dense direction grid, then conditional-gradient ascent from the 16
    best grid points (monotone for a convex objective)."""
    g = math.exp(eps)
    vals = ldp_objective(A, c, eps, REF_DIRECTIONS)
    U = REF_DIRECTIONS[np.argsort(vals)[-16:]]
    for _ in range(polish):
        atu = U @ A
        n = np.linalg.norm(atu, axis=1, keepdims=True)
        G = (1.0 + g) * (atu / np.where(n > 0, n, 1.0)) @ A.T + (1.0 - g) * c
        gn = np.linalg.norm(G, axis=1, keepdims=True)
        U = np.where(gn > 0, G / np.where(gn > 0, gn, 1.0), U)
    return max(float(vals.max()), float(ldp_objective(A, c, eps, U).max()))


def excess(A, c, eps):
    """Reference sup minus the eps-LDP threshold e^eps - 1."""
    return reference_sup(A, c, eps) - math.expm1(eps)


def qubit_qfi(w, dw):
    r2 = float(w @ w)
    inner = float(w @ dw)
    if r2 >= 1.0 - 1e-9:
        return float(dw @ dw)
    return float(dw @ dw) + inner * inner / (1.0 - r2)


def family_point(name, lam):
    if name == "radial":
        return np.array([0.0, 0.0, lam]), np.array([0.0, 0.0, 1.0])
    return (np.array([math.sin(lam), 0.0, math.cos(lam)]),
            np.array([math.cos(lam), 0.0, -math.sin(lam)]))


def depolarized_qfi(name, lam, eps):
    """QFI of a qubit family after the depolarizing channel at budget eps."""
    shrink = math.expm1(eps) / (math.exp(eps) + 1.0)
    w, dw = family_point(name, lam)
    return qubit_qfi(shrink * w, shrink * dw)


def generator_spectrum(d, index):
    """Eigenvalues of the generalized Gell-Mann generator `index` (0-based,
    symmetric pairs, then antisymmetric pairs, then diagonals)."""
    pairs = d * (d - 1) // 2
    if index < 2 * pairs:
        return np.array([1.0, -1.0])
    l = index - 2 * pairs + 1
    return math.sqrt(2.0 / (l * (l + 1))) * np.array([1.0] * l + [-float(l)])


def axis_qfi(d, index, lam):
    """rho = I/d + (lam/2) eta_k commutes with its derivative, so the QFI is
    the classical Fisher information of its eigenvalues."""
    mu = generator_spectrum(d, index)
    return float(np.sum((mu / 2.0) ** 2 / (1.0 / d + lam * mu / 2.0)))


# ---------------------------------------------------------------------------
# sweep: the channel-design search


SWEEP_LAMBDA = 0.6
SWEEP_BUDGETS = tuple(float(e) for e in np.geomspace(0.01, 0.5, 20))
SWEEP_BLOCK = 4
SWEEP_STARTS = 8
C0_LAMBDA = 0.3
C0_BUDGETS = tuple(float(e) for e in np.linspace(0.05, 0.45, 9))


class Sweep:
    """`optimizer.maximize_qfi` in the shape of `qldp report` and criterion
    4(c) (radial, lambda 0.6, the 20 report budgets, 8 starts), plus a
    minority of criterion-7 searches (rotation, lambda 0.3, c = 0).

    A deck holds 5 radial searches, one budget of each block of 4 adjacent
    report budgets, and one criterion-7 search. Every deck so spans the
    whole budget range, and a deck is short against the run, so the mix of
    a run barely depends on where its time runs out."""

    name = "sweep"

    def deck(self, seed, k):
        rng = np.random.default_rng([seed, k])
        blocks = np.reshape(SWEEP_BUDGETS, (-1, SWEEP_BLOCK))
        plan = [("radial", "radial", SWEEP_LAMBDA, float(rng.choice(b)), False)
                for b in blocks]
        plan.append(("rotation_c0", "rotation", C0_LAMBDA,
                     float(rng.choice(C0_BUDGETS)), True))
        seeds = rng.integers(0, 2**31, len(plan))
        return [Op(plan[i][0], plan[i][1:] + (int(seeds[i]),))
                for i in rng.permutation(len(plan))]

    def prepare(self, workdir, seed):
        pass

    def execute(self, op):
        family, lam, eps, c_zero, seed = op.params
        fam = qfi.family_by_name(family)
        return optimizer.maximize_qfi(fam, lam, eps, starts=SWEEP_STARTS,
                                      seed=seed, c_zero=c_zero)

    def check(self, op, res):
        family, lam, eps, c_zero, _ = op.params
        dep = depolarized_qfi(family, lam, eps)
        A, c = res.best_channel.A, res.best_channel.c
        digest = (res.best_qfi, res.evaluations, res.feasibility_margin,
                  A.tolist(), c.tolist())
        ok = (res.feasibility_margin <= MARGIN_TOL
              and excess(A, c, eps) <= MARGIN_TOL + 1e-12 * math.exp(eps)
              and res.best_qfi >= dep * (1.0 - 1e-12)
              and (not c_zero or not np.any(c))
              and (res.fisher_cap is None
                   or res.best_qfi <= res.fisher_cap + 1e-8))
        return ok, res.best_qfi / dep, digest

    @staticmethod
    def quality(values):
        """qfi_gain: geometric mean of best QFI over depolarizing QFI."""
        return math.exp(sum(math.log(v) for v in values) / len(values))

    def warm_up(self, workdir):
        optimizer.maximize_qfi(qfi.family_by_name("radial"), SWEEP_LAMBDA,
                               0.1, starts=1, max_evals=50)
        optimizer.maximize_qfi(qfi.family_by_name("rotation"), C0_LAMBDA,
                               0.1, starts=1, max_evals=50, c_zero=True)


# ---------------------------------------------------------------------------
# requests: in-process CLI calls


SIM_TRIALS = 20000
DECK_REPEATS = 4

# kind -> ops per 48-request mix. Kinds ending in "_defect" reproduce the CLI
# contract breaches known at the time the benchmark was written (ROADMAP aim
# 3). A breach there lowers `quality`; a breach anywhere else fails the op.
REQUEST_MIX = {
    "certify": 9,
    "tighteps": 7,
    "audit": 3,
    "qfi_radial": 2,
    "qfi_rotation": 1,
    "qfi_axis_d3": 2,
    "qfi_axis_d4": 2,
    "bounds_thm1_radial": 2,
    "bounds_cor1_radial": 1,
    "bounds_cor1_rotation": 1,
    "bounds_thm2_radial": 1,
    "bounds_thm2_rotation": 1,
    "scaling": 2,
    "simulate": 3,
    "bad_certify_negative": 1,
    "bad_bounds_negative": 1,
    "bad_audit_negative": 1,
    "bad_qfi_family": 1,
    "bad_bounds_family": 1,
    "bounds_thm1_rotation_defect": 1,
    "qfi_nan_defect": 1,
    "certify_nan_defect": 1,
    "bounds_nan_defect": 1,
    "audit_nan_defect": 1,
    "simulate_nan_defect": 1,
}

CHANNEL_KINDS = ("certify", "tighteps", "bad_certify_negative",
                 "certify_nan_defect")


def _num(x):
    """Positional notation: argparse takes "-5e-05" for a flag, "-0.00005"
    for a number."""
    return np.format_float_positional(float(x), trim="-")


class Requests:
    """A seeded mix of `cli.main(argv)` calls, closed loop, one caller."""

    name = "requests"

    def __init__(self):
        self.workdir = None

    def prepare(self, workdir, seed):
        self.workdir = Path(workdir)

    def deck(self, seed, k):
        rng = np.random.default_rng([seed, k])
        ops = []
        for kind, n in REQUEST_MIX.items():
            m = n * DECK_REPEATS
            # stratified over the deck: the ratio of the top two singular
            # values sets how long the sphere solver works on a channel
            ratios = 0.05 + 0.9 * rng.permutation((np.arange(m) + 0.5) / m)
            for j in range(m):
                channel = (self._channel(rng, ratios[j], f"{k}-{kind}-{j}")
                           if kind in CHANNEL_KINDS else None)
                ops.append(self._request(kind, rng, channel))
        return [ops[i] for i in rng.permutation(len(ops))]

    def _channel(self, rng, ratio, name):
        """A random valid qubit channel with c != 0, written as a channel
        file: top singular value of A in [0.3, 0.8], the second `ratio`
        times it, and ||A|| + ||c|| <= 0.9, so it is eps-LDP at a finite
        budget. Returns (path, A, c) with A and c as nested tuples."""
        top = rng.uniform(0.3, 0.8)
        sv = np.array([top, ratio * top, rng.uniform(0.0, ratio * top)])
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A = U @ np.diag(sv) @ V.T
        c = rng.standard_normal(3)
        c *= rng.uniform(0.02, 0.9 - top) / np.linalg.norm(c)
        path = self.workdir / f"channel-{name}.json"
        path.write_text(json.dumps({"d": 2, "A": A.tolist(), "c": c.tolist()}))
        return str(path), tuple(map(tuple, A.tolist())), tuple(c.tolist())

    def _request(self, kind, rng, channel):
        u = rng.uniform
        path = channel[0] if channel else None
        eps, lam, alpha = u(0.1, 2.0), u(0.2, 0.9), float(rng.choice([0.01, 0.02, 0.05]))
        seed = str(int(rng.integers(0, 2**31)))
        bounds = ["bounds", "--lambda", _num(lam), "--alpha", _num(alpha)]
        if kind == "certify":
            argv = ["certify", "--channel", path, "--eps", _num(eps)]
        elif kind == "tighteps":
            argv = ["tighteps", "--channel", path]
        elif kind == "audit":
            argv = ["audit", "--depolarizing", "--dim", "2", "--eps", _num(eps),
                    "--n", "50", "--seed", seed]
        elif kind == "qfi_radial":
            argv = ["qfi", "--family", "radial", "--lambda", _num(u(-0.9, 0.9))]
        elif kind == "qfi_rotation":
            argv = ["qfi", "--family", "rotation", "--lambda", _num(u(-3.0, 3.0))]
        elif kind.startswith("qfi_axis"):
            d = int(kind[-1])
            index = int(rng.integers(d * d - 1))
            argv = ["qfi", "--family", f"axis-{index + 1}", "--dim", str(d),
                    "--lambda", _num(u(-0.3, 0.3))]
        elif kind == "bounds_thm1_radial":
            argv = bounds + ["--family", "radial", "--eps", _num(eps)]
        elif kind.startswith("bounds_cor1"):
            argv = bounds + ["--family", kind.split("_")[2], "--corollary1",
                             "--eps", _num(u(0.05, 0.95))]
        elif kind.startswith("bounds_thm2"):
            argv = bounds + ["--family", kind.split("_")[2], "--thm2",
                             "--eps", _num(u(0.05, 0.45))]
        elif kind == "scaling":
            lo = u(0.01, 0.1)
            grid = f"{_num(lo)}:{_num(lo * u(2.0, 50.0))}:{int(rng.integers(5, 21))}"
            argv = ["scaling", "--family", "radial", "--lambda", _num(lam),
                    "--alpha", _num(alpha), "--eps-grid", grid]
        elif kind == "simulate":
            argv = ["simulate", "--family", "radial", "--lambda0", _num(lam),
                    "--eps", _num(u(0.2, 1.5)), "--alpha", _num(alpha),
                    "--trials", str(SIM_TRIALS), "--seed", seed]
        elif kind == "bad_certify_negative":
            argv = ["certify", "--channel", path, "--eps", _num(-eps)]
        elif kind == "bad_bounds_negative":
            argv = bounds + ["--family", "radial", "--eps", _num(-eps)]
        elif kind == "bad_audit_negative":
            argv = ["audit", "--depolarizing", "--eps", _num(-eps), "--n", "50"]
        elif kind == "bad_qfi_family":
            argv = ["qfi", "--family", "spiral", "--lambda", _num(lam)]
        elif kind == "bad_bounds_family":
            argv = bounds + ["--family", "spiral", "--eps", _num(eps)]
        elif kind == "bounds_thm1_rotation_defect":
            argv = bounds + ["--family", "rotation", "--eps", _num(eps)]
        elif kind == "qfi_nan_defect":
            argv = ["qfi", "--family", "radial", "--lambda", "nan"]
        elif kind == "certify_nan_defect":
            argv = ["certify", "--channel", path, "--eps", "nan"]
        elif kind == "bounds_nan_defect":
            argv = bounds + ["--family", "radial", "--eps", "nan"]
        elif kind == "audit_nan_defect":
            argv = ["audit", "--depolarizing", "--eps", "nan", "--n", "50"]
        elif kind == "simulate_nan_defect":
            argv = ["simulate", "--family", "radial", "--lambda0", _num(lam),
                    "--eps", "nan", "--trials", str(SIM_TRIALS)]
        else:
            raise KeyError(kind)
        return Op(kind, (tuple(argv), channel))

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.params[0]))
            except SystemExit as exc:  # argparse rejects argv this way
                code = exc.code
            except Exception as exc:  # an escaped exception breaks the contract
                code = f"raised {type(exc).__name__}"
        return code, out.getvalue()

    def check(self, op, result):
        code, out = result
        try:
            kept = self._kept(op, code, out)
        except (ValueError, KeyError, TypeError, IndexError):
            kept = False
        if op.kind.endswith("_defect"):
            return True, float(kept), result
        return kept, float(kept), result

    def _kept(self, op, code, out):
        """Does the response keep the CLI contract and match the reference?"""
        kind = op.kind
        if kind.startswith("bad_") or kind.endswith("nan_defect"):
            return code in (2, 3)
        if kind == "bounds_cor1_rotation":
            return code == 2
        if kind == "bounds_thm1_rotation_defect":
            return code == 2 or (code == 0 and bool(strict_json(out)["result"]))
        if code != 0:
            return False
        opt = _options(op.params[0])
        if kind == "scaling":
            return _check_scaling(opt, out)
        res = strict_json(out)["result"]
        if kind in ("certify", "tighteps"):
            A, c = np.array(op.params[1][1]), np.array(op.params[1][2])
            if kind == "certify":
                return _check_certificate(A, c, float(opt["--eps"]), res)
            t = res["tight_eps"]
            return (0.0 < t < 50.0
                    and excess(A, c, t + 1e-6) <= MARGIN_TOL
                    and excess(A, c, 0.98 * t) > 0.0)
        if kind == "audit":
            return (res["n"] == 50 and res["consistent"] is True
                    and 0.0 <= res["max_divergence"] <= AUDIT_TOL)
        if kind.startswith("qfi"):
            lam = float(opt["--lambda"])
            if kind.startswith("qfi_axis"):
                d = int(opt["--dim"])
                index = int(opt["--family"].split("-")[1]) - 1
                ref = axis_qfi(d, index, lam)
            else:
                ref = qubit_qfi(*family_point(opt["--family"], lam))
            return _close(res["value"], ref)
        if kind.startswith("bounds"):
            return _check_bounds(kind, opt, res)
        if kind == "simulate":
            return _check_simulation(opt, res)
        raise KeyError(kind)

    @staticmethod
    def quality(values):
        """Share of requests that keep the CLI contract."""
        return sum(values) / len(values)

    def warm_up(self, workdir):
        """One request of every command the mix uses."""
        path = Path(workdir) / "warm-up.json"
        path.write_text(json.dumps({"d": 2, "A": (0.5 * np.eye(3)).tolist(),
                                    "c": [0.1, 0.0, 0.0]}))
        for argv in (
            ["certify", "--channel", str(path), "--eps", "1.0"],
            ["tighteps", "--channel", str(path)],
            ["audit", "--depolarizing", "--eps", "1.0", "--n", "5"],
            ["qfi", "--family", "axis-1", "--dim", "3", "--lambda", "0.1"],
            ["bounds", "--family", "radial", "--lambda", "0.6", "--alpha",
             "0.01", "--eps", "0.3", "--thm2"],
            ["scaling", "--family", "radial", "--lambda", "0.6", "--alpha",
             "0.01", "--eps-grid", "0.01:0.5:5"],
            ["simulate", "--family", "radial", "--lambda0", "0.6", "--eps",
             "1.0", "--trials", "100"],
            ["qfi", "--family", "spiral", "--lambda", "0.1"],
        ):
            self.execute(Op("warm-up", (tuple(argv), None)))


def _options(argv):
    """Map each flag of an argv to its value (True for bare flags)."""
    opt = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            opt[tok] = True if nxt is None or nxt.startswith("--") else nxt
    return opt


def _check_certificate(A, c, eps, res):
    g = math.exp(eps)
    tol = REL_TOL * (1.0 + g)
    u = np.array(res["witness_u"])
    at_u = float(ldp_objective(A, c, eps, u[None, :])[0])
    return (res["eps"] == eps
            and res["verdict"] == (res["margin"] <= MARGIN_TOL)
            and abs(np.linalg.norm(u) - 1.0) <= 1e-9
            and abs(res["sup_value"] - at_u) <= tol
            and res["sup_value"] >= reference_sup(A, c, eps) - tol
            and abs(res["margin"] - (res["sup_value"] - math.expm1(eps))) <= tol)


def _check_bounds(kind, opt, res):
    lam, alpha = float(opt["--lambda"]), float(opt["--alpha"])
    eps = float(opt["--eps"])
    g = math.exp(eps)
    if kind == "bounds_thm1_radial":
        C1 = 1.0 / (4.0 + 0.25 / lam**2)
        denom = alpha * (g - 1.0) ** 2
        return (_close(res["C1"], C1) and _close(res["C2"], 1.0)
                and _close(res["N_lower_real"], C1 / denom)
                and _close(res["N_upper_real"], (g + 1.0) ** 2 / denom)
                and res["N_upper"] == math.ceil(res["N_upper_real"])
                and _close(res["fisher_cap"],
                           4.0 * (g - 1.0) ** 2 * (1.0 + 1.0 / (16.0 * lam**2))))
    if kind == "bounds_cor1_radial":
        C1 = 1.0 / (4.0 + 0.25 / lam**2)
        return (_close(res["N_lower_real"], C1 / (9.0 * alpha * eps**2))
                and _close(res["N_upper_real"],
                           (math.e + 1.0) ** 2 / (alpha * eps**2)))
    # thm2: both families have ||dw|| = 1
    sqrt_e = math.sqrt(math.e)
    c1_bar = 1.0 / (1.0 + 1.0 / (sqrt_e * (2.0 - sqrt_e)))
    return (_close(res["N_lower_real"], c1_bar / (alpha * (g - 1.0) ** 2))
            and _close(res["N_upper_real"],
                       (sqrt_e + 1.0) ** 2 / (alpha * eps**2)))


def _check_scaling(opt, out):
    lam, alpha = float(opt["--lambda"]), float(opt["--alpha"])
    lo, hi, n = opt["--eps-grid"].split(":")
    grid = np.geomspace(float(lo), float(hi), int(n))
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["eps", "N_lower", "N_upper", "fisher_cap"]:
        return False
    body = np.array(rows[1:], dtype=float)
    if body.shape != (len(grid), 4) or not np.all(np.isfinite(body)):
        return False
    g = np.exp(grid)
    upper = (g + 1.0) ** 2 / (alpha * (g - 1.0) ** 2)
    lower = 1.0 / (4.0 + 0.25 / lam**2) / (alpha * (g - 1.0) ** 2)
    return (np.allclose(body[:, 0], grid, rtol=1e-12)
            and np.allclose(body[:, 1], lower, rtol=REL_TOL)
            and np.allclose(body[:, 2], upper, rtol=REL_TOL))


def _check_simulation(opt, res):
    """The SLD estimator is unbiased with variance CRB, so the empirical MSE
    stays within the 5-sigma Monte Carlo guard of the simulator itself."""
    lam, eps = float(opt["--lambda0"]), float(opt["--eps"])
    trials = int(opt["--trials"])
    guard = 5.0 * math.sqrt(2.0 / trials)
    fisher = depolarized_qfi("radial", lam, eps)
    crb = res["crb_value"]
    return (res["n_trials"] == trials and res["n_copies"] >= 1
            and abs(res["fisher"] - fisher) <= 1e-6 * fisher
            and _close(crb, 1.0 / (res["n_copies"] * res["fisher"]), 1e-12)
            and abs(res["empirical_mse"] / crb - 1.0) <= guard)


# ---------------------------------------------------------------------------
# qudit_audit: the hockey-stick sampling audit at d = 3, 4, 5


AUDIT_N = 200
AUDIT_REPEATS = 2
# (d, audited eps, channel budget) for the planted violators: depolarizing
# channels calibrated above the audited budget. (5, 1.0, 1.3) is the
# ROADMAP's counterexample. When the benchmark was written, the audit refuted
# each of these either almost always or almost never (over 200 audit seeds:
# the d = 4 (2.0, 2.3) violator 3 times, the d = 5 (1.0, 1.3) one never), so
# `quality` barely moves with the seed.
VIOLATORS = (
    (3, 0.5, 0.8), (3, 0.5, 1.0),
    (4, 0.5, 0.8), (4, 2.0, 2.3),
    (5, 0.5, 1.0), (5, 1.0, 1.3),
)
CALIBRATED_PER_DIM = 2


class QuditAudit:
    """`ldp.audit_by_sampling` on depolarizing channels at d = 3, 4, 5: half
    calibrated at the audited budget, half planted violators."""

    name = "qudit_audit"

    def deck(self, seed, k):
        rng = np.random.default_rng([seed, k])
        plan = []
        for _ in range(AUDIT_REPEATS):
            for d in (3, 4, 5):
                for _ in range(CALIBRATED_PER_DIM):
                    eps = float(rng.uniform(0.5, 1.5))
                    plan.append((f"d{d}_calibrated", d, eps, eps))
            plan += [(f"d{d}_violator", d, eps, budget)
                     for d, eps, budget in VIOLATORS]
        seeds = rng.integers(0, 2**31, len(plan))
        return [Op(plan[i][0], plan[i][1:] + (int(seeds[i]),))
                for i in rng.permutation(len(plan))]

    def prepare(self, workdir, seed):
        pass

    def execute(self, op):
        d, eps, budget, seed = op.params
        return ldp.audit_by_sampling(channels.depolarizing(d, budget), eps,
                                     AUDIT_N, seed)

    def check(self, op, res):
        d, eps, _, _ = op.params
        n = d * d - 1
        digest = (res.max_divergence, res.consistent,
                  [w.tolist() for w in res.worst_pair])
        ok = (res.n == AUDIT_N and res.eps == eps
              and math.isfinite(res.max_divergence)
              and res.consistent == (res.max_divergence <= AUDIT_TOL)
              and all(w.shape == (n,) for w in res.worst_pair))
        if op.kind.endswith("violator"):
            return ok, float(not res.consistent), digest
        # a calibrated channel is eps-LDP: reporting a violation is wrong
        return ok and res.consistent, None, digest

    @staticmethod
    def quality(values):
        """detect_rate: planted violators refuted over violators planted."""
        return sum(values) / len(values)

    def warm_up(self, workdir):
        for d in (3, 4, 5):
            ldp.audit_by_sampling(channels.depolarizing(d, 1.0), 1.0, 2, 0)


WORKLOADS = {w.name: w for w in (Sweep, Requests, QuditAudit)}


def warm_up(name, workdir):
    """One small call of every op kind the workload makes."""
    WORKLOADS[name]().warm_up(workdir)
