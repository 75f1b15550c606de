"""Independent verification tools: a time-domain projection solver built from
covariances alone, and Monte Carlo simulation of Gaussian stationary paths.

Nothing here touches the spectral-characteristic machinery, so agreement with
the frequency-domain solver is a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .densities import DEFAULT_GRID, RationalAR, SpectralDensity, covariances
from .errors import (
    EmbeddingNotPSD,
    IndexOutOfPath,
    InvalidParameters,
    SingularCovariance,
)
from .patterns import FunctionalWeights, ObservationPattern, missing_indices, weight_vector


@dataclass(frozen=True)
class TimeDomainProblem:
    """Normal-equations data: target indices K with weights a, observation
    indices O, and a covariance lookup r(n) covering all needed lags."""

    target_indices: tuple
    target_weights: np.ndarray
    observed_indices: tuple
    r: np.ndarray  # r[n] for n = 0..max_lag; r(-n) = conj(r(n))


def build_problem(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    f: SpectralDensity,
    window: int = 500,
    grid_size: int | None = None,
) -> TimeDomainProblem:
    """Covariance data for the projection of the target functional onto the
    observations within +-window of the gap region."""
    k_idx = missing_indices(pattern)
    missing = set(k_idx)
    lo = min(k_idx) - window
    hi = max(k_idx) + window
    observed = tuple(t for t in range(lo, hi + 1) if t not in missing)
    max_lag = hi - lo
    g = grid_size if grid_size is not None else max(DEFAULT_GRID, 4 * (max_lag + 1))
    r = covariances(f, max_lag, grid_size=g)
    return TimeDomainProblem(
        target_indices=tuple(k_idx),
        target_weights=weight_vector(weights, pattern),
        observed_indices=observed,
        r=r,
    )


def project(tp: TimeDomainProblem) -> dict:
    """Linear projection of the target functional onto the observed values.

    The estimate sum_o w(o) xi(o) leaves an error orthogonal to every
    observation, E conj(xi(o')) (A - estimate) = 0, which gives
    R_OO w = R_OK a for R[i][j] = E conj(xi(s_i)) xi(t_j) = r(t_j - s_i).
    The residual error is a^H R_KK a - rho^H w with rho = R_OK a. Returns the
    observation weights and the mean-square error.
    """
    obs = np.asarray(tp.observed_indices)
    tgt = np.asarray(tp.target_indices)
    a = tp.target_weights

    def cov(rows, cols):
        lags = np.subtract.outer(cols, rows).T  # [i][j] = cols_j - rows_i
        vals = tp.r[np.abs(lags)]
        return np.where(lags < 0, np.conj(vals), vals)

    R_oo = cov(obs, obs)
    R_ok = cov(obs, tgt)
    R_kk = cov(tgt, tgt)
    rho = R_ok @ a
    try:
        cf = scipy.linalg.cho_factor(R_oo, lower=True, check_finite=False)
        w = scipy.linalg.cho_solve(cf, rho, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(str(exc)) from exc
    target_var = float(np.real(np.conj(a) @ (R_kk @ a)))
    mse = target_var - float(np.real(np.conj(rho) @ w))
    return {"weights": w, "mse": max(mse, 0.0), "target_variance": target_var}


def simulate(
    f: SpectralDensity,
    length: int,
    n_replicates: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Real Gaussian stationary paths with spectral density f.

    RationalAR with real coefficients uses the AR recursion with a warm-up
    run-in; everything else goes through circulant embedding. Replicates are
    generated from per-replicate child seeds, so results do not depend on
    how the loop is scheduled.
    """
    if length < 1 or n_replicates < 1:
        raise InvalidParameters("length and n_replicates must be positive")
    if isinstance(f, RationalAR) and np.max(np.abs(f.alpha.imag)) == 0.0:
        return _simulate_ar(f, length, n_replicates, seed)
    return _simulate_circulant(f, length, n_replicates, seed)


def _simulate_ar(f: RationalAR, length: int, n_replicates: int, seed: int) -> np.ndarray:
    alpha = f.alpha.real
    p = alpha.size
    sigma = np.sqrt(f.sigma2)
    warmup = max(200, 20 * p)
    total = length + warmup
    eps = np.empty((n_replicates, total))
    for rep in range(n_replicates):
        rng = np.random.default_rng([seed, rep])
        eps[rep] = rng.standard_normal(total)
    denom = np.concatenate(([1.0], -alpha))
    # scipy.signal is imported on first use: it weighs about as much as all
    # the package's other imports together, and only simulation needs it
    from scipy.signal import lfilter

    x = lfilter([1.0], denom, sigma * eps, axis=1)
    return x[:, warmup:]


def _simulate_circulant(f: SpectralDensity, length: int, n_replicates: int, seed: int) -> np.ndarray:
    m = 1
    while m < 8 * length:
        m *= 2
    r = covariances(f, m // 2, grid_size=max(DEFAULT_GRID, 4 * m))
    if np.max(np.abs(r.imag)) > 1e-10 * max(float(np.max(np.abs(r))), 1e-300):
        raise InvalidParameters("real-path simulation requires a real covariance sequence")
    rr = r.real
    circ = np.concatenate([rr[: m // 2 + 1], rr[m // 2 - 1: 0: -1]])
    eig = np.fft.fft(circ).real
    if np.min(eig) < -1e-10 * np.max(eig):
        raise EmbeddingNotPSD(
            f"circulant embedding eigenvalue {np.min(eig):.3e}; increase the embedding size"
        )
    eig = np.maximum(eig, 0.0)
    out = np.empty((n_replicates, length))
    for rep in range(n_replicates):
        rng = np.random.default_rng([seed, rep])
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        path = np.fft.fft(np.sqrt(eig / m) * z)
        out[rep] = path.real[:length]
    return out


def empirical_mse(
    paths: np.ndarray,
    estimate_weights: dict,
    target_weights: dict,
    origin: int = 0,
) -> dict:
    """Mean and standard error of |A - A_hat|^2 over replicate paths.

    Weight dictionaries map time indices to coefficients; origin gives the
    path position of time index 0.
    """
    paths = np.atleast_2d(paths)
    n_rep, length = paths.shape

    def gather(wmap):
        cols, coefs = [], []
        for t, v in wmap.items():
            pos = origin + int(t)
            if pos < 0 or pos >= length:
                raise IndexOutOfPath(f"index {t} falls outside the simulated path")
            cols.append(pos)
            coefs.append(v)
        return np.asarray(cols), np.asarray(coefs)

    t_cols, t_coefs = gather(target_weights)
    e_cols, e_coefs = gather(estimate_weights) if estimate_weights else (np.array([], int), np.array([]))
    target = paths[:, t_cols] @ t_coefs
    estimate = paths[:, e_cols] @ e_coefs if e_cols.size else np.zeros(n_rep)
    err = np.abs(target - estimate) ** 2
    mean = float(np.mean(err))
    stderr = float(np.std(err, ddof=1) / np.sqrt(n_rep)) if n_rep > 1 else float("inf")
    return {"mean": mean, "stderr": stderr, "n_replicates": n_rep}


def estimate_weights_from_characteristic(
    solution,
    window: int = 60,
) -> dict:
    """Observation weights of the solved estimate: the Fourier coefficients of
    the spectral characteristic restricted to observed indices within the
    window, without those at most 1e-12 of the largest of them."""
    missing = set(solution.indices)
    kept = {j: v for j, v in solution.h_coeffs.items() if j not in missing and abs(j) <= window}
    cut = 1e-12 * max(map(abs, kept.values()), default=0.0)
    return {j: v for j, v in kept.items() if abs(v) > cut}
