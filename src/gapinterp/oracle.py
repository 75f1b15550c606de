"""Independent verification tools: a time-domain projection solver built from
covariances alone, and Monte Carlo simulation of Gaussian stationary paths.

Nothing here touches the spectral-characteristic machinery, so agreement with
the frequency-domain solver is a genuine cross-check rather than a tautology.
The projection is a dense Cholesky solve of the normal equations (in real
arithmetic for a real covariance sequence), and simulation draws every
replicate from one random stream, at most CHUNK_VALUES draws at a time, which
`empirical_mse` can reduce chunk by chunk as they are drawn.
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

# project solves in real arithmetic when max |Im r| <= REAL_RTOL r(0)
REAL_RTOL = 1e-13
# normal draws generated at a time by simulate
CHUNK_VALUES = 1 << 20


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
    observations within +-window of the gap region; window >= 0."""
    if window < 0:
        raise InvalidParameters(f"window must be non-negative, got {window}")
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

    Every entry is gathered from the two-sided sequence r(-L..L) in one
    lookup, and R_OO is factored by a dense Cholesky. A covariance sequence
    real to rounding (max |Im r| <= REAL_RTOL r(0)) is solved in real
    arithmetic, the real and imaginary parts of rho as two right-hand sides;
    any other goes through the complex Hermitian factor.
    """
    obs = np.asarray(tp.observed_indices, dtype=int)  # empty when window = 0 sees none
    tgt = np.asarray(tp.target_indices)
    a = tp.target_weights
    real = np.max(np.abs(tp.r.imag)) <= REAL_RTOL * tp.r[0].real
    r = tp.r.real if real else tp.r
    two_sided = np.concatenate((np.conj(r[:0:-1]), r))  # index lag + L

    def cov(rows, cols):  # [i][j] = r(cols_j - rows_i), in Fortran order for LAPACK
        return two_sided[cols[:, None] - rows + r.size - 1].T

    rho = cov(obs, tgt) @ a
    try:
        cf = scipy.linalg.cho_factor(cov(obs, obs), lower=True, overwrite_a=True,
                                     check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(str(exc)) from exc
    rhs = np.column_stack((rho.real, rho.imag)) if real else rho
    w = scipy.linalg.cho_solve(cf, rhs, check_finite=False)
    if real:
        w = w[:, 0] + 1j * w[:, 1]
    target_var = float(np.real(np.conj(a) @ (cov(tgt, tgt) @ a)))
    mse = target_var - float(np.real(np.conj(rho) @ w))
    return {"weights": w, "mse": max(mse, 0.0), "target_variance": target_var}


def simulate(
    f: SpectralDensity,
    length: int,
    n_replicates: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Real Gaussian stationary paths with spectral density f, one per row:
    the blocks of simulate_chunks(f, length, n_replicates, seed) stacked.

    All normal draws come from the one stream np.random.default_rng(seed):
    replicate r is the r-th block of consecutive draws, so the first j rows
    of a call with n_replicates >= j are the rows of the call with j, and a
    replicate cannot be drawn without those before it.

    A RationalAR of order p >= 1 with real coefficients whose roots w of
    z^p - alpha_1 z^(p-1) - ... - alpha_p satisfy max|w|^(2 warmup) <= 1e-16,
    warmup = max(200, 20 p) (so |w| below about 0.91), runs its AR recursion
    after that warm-up run-in (see `_ar_sampler`), whose variance is then
    stationary to rounding. Everything else goes through circulant embedding
    of r(0..m/2): white noise RationalAR(alpha=[]), a non-causal AR (which
    would run an explosive recursion), and an AR with a root nearer the unit
    circle, which the fixed run-in would leave short of stationary (about
    0.86 of the variance at alpha = 0.995). The embedding is exact whenever
    it is non-negative definite: m starts at the smallest power of two
    >= 2 (length - 1) and doubles while an eigenvalue lies below -1e-10 times
    the largest, and EmbeddingNotPSD is raised past the first power of two
    >= 8 length. Slowly decaying covariances can reach that: an AR(2) with
    roots of modulus 0.99 on a path of length 41 does. The covariances come
    from the grid, so a density below 1e-9 of its maximum there (an AR(2)
    with a double root at 0.99) raises NonPositiveDensity. A replicate takes
    2m draws, the real and imaginary parts of the m-point FFT input, and each
    chunk is one FFT along the rows.
    """
    chunks = simulate_chunks(f, length, n_replicates, seed)  # checks n_replicates
    out = np.empty((n_replicates, length))
    start = 0
    for rows in chunks:
        out[start:start + len(rows)] = rows
        start += len(rows)
    return out


def simulate_chunks(
    f: SpectralDensity,
    length: int,
    n_replicates: int = 1,
    seed: int = 0,
):
    """The rows of `simulate` as an iterator of consecutive blocks of at most
    CHUNK_VALUES draws each (one row when a row takes more), each drawn when
    it is asked for. Memory stays O(CHUNK_VALUES) whatever n_replicates is;
    the arguments are checked and the sampler is built before this returns.
    """
    if length < 1 or n_replicates < 1:
        raise InvalidParameters("length and n_replicates must be positive")
    if seed < 0:
        raise InvalidParameters(f"seed must be non-negative, got {seed}")
    causal_ar = (isinstance(f, RationalAR) and f.order > 0
                 and np.max(np.abs(f.alpha.imag)) == 0.0
                 and min(float(np.max(np.abs(f._eigenvalues))), 1.0) ** (2 * _warmup(f)) <= 1e-16)
    draw, width = (_ar_sampler if causal_ar else _circulant_sampler)(f, length)
    rng = np.random.default_rng(seed)
    rows = max(1, CHUNK_VALUES // width)
    return (draw(rng, min(rows, n_replicates - start)) for start in range(0, n_replicates, rows))


def _warmup(f: RationalAR) -> int:
    """Steps the AR recursion runs before a path starts. It forgets its zero
    start like max|w|^s, so the path's variance is short of stationary by
    about max|w|^(2 warmup) relative."""
    return max(200, 20 * f.order)


def _ar_sampler(f: RationalAR, length: int):
    """draw(rng, rows) giving rows AR paths, and the draws per path.

    The recursion y(t) = s e(t) + sum_k alpha_k y(t - k), s = sqrt(sigma2),
    starts from y = 0 and runs over the time steps of a chunk, each step one
    vector over its rows. It adds in the order of the direct form II
    transposed filter, y(t) = ((alpha_p y(t-p) + alpha_(p-1) y(t-p+1)) + ...
    + alpha_1 y(t-1)) + s e(t), so the paths equal those of
    scipy.signal.lfilter([s], [1, -alpha_1, ..., -alpha_p], e) bit for bit,
    without importing scipy.signal. The Python cost is per time step: a
    long path with few rows per chunk is the slowest case.
    """
    alpha = f.alpha.real.tolist()
    p = len(alpha)
    warmup = _warmup(f)
    width = length + warmup
    scale = np.sqrt(f.sigma2)

    def draw(rng, rows):
        y = np.zeros((p + width, rows))  # time-major, after p zero steps
        np.multiply(scale, rng.standard_normal((rows, width)).T, out=y[p:])
        steps = list(y)
        acc, term = np.empty(rows), np.empty(rows)
        for t in range(p, p + width):
            np.multiply(alpha[p - 1], steps[t - p], out=acc)
            for k in range(p - 1, 0, -1):
                acc += np.multiply(alpha[k - 1], steps[t - k], out=term)
            steps[t] += acc
        return y[p + warmup:].T

    return draw, width


def _circulant_sampler(f: SpectralDensity, length: int):
    """draw(rng, rows) giving rows circulant-embedding paths, and the draws
    per path."""
    m = 1 << max(2 * length - 3, 0).bit_length()  # the least power of two >= 2 (length - 1)
    while True:
        r = covariances(f, m // 2, grid_size=max(DEFAULT_GRID, 4 * m))
        if np.max(np.abs(r.imag)) > 1e-10 * max(float(np.max(np.abs(r))), 1e-300):
            raise InvalidParameters("real-path simulation requires a real covariance sequence")
        eig = np.fft.fft(np.concatenate((r.real, r.real[-2:0:-1]))).real
        if np.min(eig) >= -1e-10 * np.max(eig):
            break
        if m >= 1 << (8 * length - 1).bit_length():  # the least power of two >= 8 length
            raise EmbeddingNotPSD(f"circulant embedding eigenvalue {np.min(eig):.3e}, size {m}")
        m *= 2
    scale = np.sqrt(np.maximum(eig, 0.0) / m)

    def draw(rng, rows):
        z = rng.standard_normal((rows, 2, m))
        return np.fft.fft(scale * (z[:, 0] + 1j * z[:, 1]), axis=1).real[:, :length]

    return draw, 2 * m


def empirical_mse(
    paths,
    estimate_weights: dict,
    target_weights: dict,
    origin: int = 0,
) -> dict:
    """Mean and standard error of |A - A_hat|^2 over replicate paths.

    `paths` holds one path per row: an array, or an iterable of row blocks
    such as `simulate_chunks` gives, read one block at a time. Weight
    dictionaries map time indices to coefficients; origin gives the path
    position of time index 0. A and A_hat are each summed over their indices
    in order, in real arithmetic, so a replicate's error does not depend on
    the rows it is blocked with (a matrix product's last bits can).
    """

    def errors(block):  # |A - A_hat|^2 for each row
        (t_re, t_im), (e_re, e_im) = (_weighted_sum(block, w, origin)
                                      for w in (target_weights, estimate_weights))
        return (t_re - e_re) ** 2 + (t_im - e_im) ** 2

    blocks = (paths,) if isinstance(paths, np.ndarray) else paths
    err = np.concatenate([errors(np.atleast_2d(block)) for block in blocks])
    n_rep = err.size
    mean = float(np.mean(err))
    stderr = float(np.std(err, ddof=1) / np.sqrt(n_rep)) if n_rep > 1 else float("inf")
    return {"mean": mean, "stderr": stderr, "n_replicates": n_rep}


def _weighted_sum(paths: np.ndarray, wmap: dict, origin: int) -> tuple:
    """Real and imaginary parts of sum_t w(t) x(origin + t) for each row x,
    each a running sum over the map's indices in order."""
    if not wmap:
        zero = np.zeros(paths.shape[0])
        return zero, zero
    pos = origin + np.array([int(t) for t in wmap])
    outside = (pos < 0) | (pos >= paths.shape[1])
    if outside.any():
        raise IndexOutOfPath(f"index {list(wmap)[np.argmax(outside)]} falls outside the "
                             "simulated path")
    x = paths[:, pos]
    coefs = np.array(list(wmap.values()), dtype=complex)
    return tuple(np.cumsum(x * part, axis=1)[:, -1] for part in (coefs.real, coefs.imag))


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
