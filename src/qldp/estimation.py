"""Monte Carlo validation of the Cramer-Rao bound on privatized states.

The measurement is the eigenbasis of the symmetric logarithmic derivative
L at the operating point; the locally unbiased estimator
    lambda_hat = lambda_0 + (1/(N F)) * sum of observed SLD eigenvalues
attains variance exactly 1/(N F), which is what the simulator checks.
"""

from dataclasses import dataclass

import numpy as np

from . import bloch, bounds, channels
from .exceptions import InvalidInputError, RankDeficientError, check_count

FULL_RANK_TOL = 1e-10
MAX_COPIES = 2**63 - 1  # the multinomial sampler counts in int64
# trials are drawn and scored CHUNK_TRIALS at a time, so a run holds one
# float per trial in each per-trial array (the score sums, the estimates and
# their errors), ~8 MB each at the bound, and one chunk of counts
MAX_TRIALS = 1_000_000
CHUNK_TRIALS = 4096


@dataclass(frozen=True)
class SldMeasurement:
    projectors: np.ndarray  # (d, d, d): one rank-1 projector per outcome
    scores: np.ndarray      # SLD eigenvalue per outcome
    fisher: float
    probabilities: np.ndarray  # Born probabilities at the operating state


@dataclass(frozen=True)
class TrialStats:
    n_trials: int
    n_copies: int
    empirical_mean: float
    empirical_mse: float
    crb_value: float
    fisher: float
    seed: int

    def to_dict(self):
        return dict(vars(self))


def sld_measurement(rho, drho):
    """Construct the SLD eigen-measurement at (rho, drho).

    L is built in rho's eigenbasis via L_jk = 2 (drho)_jk / (p_j + p_k),
    which requires a full-rank operating state (privatized states are
    full-rank for finite eps). Checks: `bloch.check_density`, `check_derivative`.
    """
    p, V = bloch.check_density(rho)
    drho = bloch.check_derivative(drho, len(p))
    if p[0] <= FULL_RANK_TOL:
        raise RankDeficientError(
            f"operating state is rank deficient (min eigenvalue {p[0]:.3e}); "
            "use a full-rank (privatized) operating point"
        )
    D = V.conj().T @ drho @ V
    L = V @ (2.0 * D / (p[:, None] + p[None, :])) @ V.conj().T
    scores, U = np.linalg.eigh(L)
    projectors = np.einsum("am,bm->mab", U, U.conj())
    probs = np.real(np.einsum("mab,ba->m", projectors, rho))
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    fisher = float(probs @ scores ** 2)
    return SldMeasurement(projectors=projectors, scores=scores,
                          fisher=fisher, probabilities=probs)


def _privatized_operating_point(fam, lam0, ch):
    w, dw = fam.point(lam0)
    wbar = channels.apply(ch, w)
    dwbar = ch.A @ dw
    etas = bloch.generators(fam.d)
    rho = bloch.to_density(wbar, fam.d)
    drho = 0.5 * np.tensordot(dwbar, etas, axes=(0, 0))
    return rho, drho


def _score_sums(rng, meas, n_copies, trials):
    """Per-trial sums of the SLD scores of n_copies measured outcomes. The
    counts are drawn and scored CHUNK_TRIALS trials at a time: the chunks
    draw the same counts as one batch, and their counts @ scores products
    keep their last bits from one BLAS thread to two, where one product
    over tens of thousands of trials at d = 16 does not."""
    return np.concatenate([
        rng.multinomial(n_copies, meas.probabilities,
                        size=min(CHUNK_TRIALS, trials - k)) @ meas.scores
        for k in range(0, trials, CHUNK_TRIALS)])


def simulate(fam, lam0, ch, n_copies, trials, seed):
    """Run `trials` independent experiments of N = n_copies SLD
    measurements on the privatized state; return empirical statistics
    of the locally unbiased estimator."""
    check_count("n_copies", n_copies, 1, MAX_COPIES)
    check_count("trials", trials, 1, MAX_TRIALS)
    check_count("seed", seed)
    rho, drho = _privatized_operating_point(fam, lam0, ch)
    meas = sld_measurement(rho, drho)
    fisher = meas.fisher
    scale = n_copies * fisher
    if scale <= 0.0 or not np.isfinite(1.0 / scale):
        raise InvalidInputError(
            f"N * F = {scale} leaves the estimator undefined"
        )
    score_sums = _score_sums(np.random.default_rng(seed), meas, n_copies,
                             trials)
    estimates = lam0 + score_sums / scale
    err = estimates - lam0
    return TrialStats(
        n_trials=int(trials),
        n_copies=int(n_copies),
        empirical_mean=float(np.mean(estimates)),
        empirical_mse=float(np.mean(err * err)),
        crb_value=1.0 / scale,
        fisher=fisher,
        seed=int(seed),
    )


def validate_upper_bound(fam, lam0, alpha, eps, trials, seed):
    """End-to-end check of the achievability count: run the simulator at
    N = N_upper with the depolarizing channel and compare the empirical
    MSE against alpha (with a 5-sigma Monte Carlo guard)."""
    report = bounds.bounds_thm1(fam, lam0, alpha, eps)
    ch = channels.depolarizing(fam.d, eps)
    stats = simulate(fam, lam0, ch, report.N_upper, trials, seed)
    guard = 1.0 + 5.0 * np.sqrt(2.0 / trials)
    passed = stats.empirical_mse <= alpha * guard
    return {
        "n_copies": report.N_upper,
        "alpha": alpha,
        "eps": eps,
        "empirical_mse": stats.empirical_mse,
        "crb_value": stats.crb_value,
        "guard_factor": guard,
        "passed": bool(passed),
        "stats": stats.to_dict(),
    }
