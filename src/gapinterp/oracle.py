"""Independent verification tools: a time-domain projection solver built from
covariances alone, and Monte Carlo simulation of Gaussian stationary paths.

Nothing here touches the spectral-characteristic machinery, so agreement with
the frequency-domain solver is a genuine cross-check rather than a tautology.
The projection error is a Schur complement of the inverse Toeplitz covariance,
from one Levinson solve and FFT products (real arithmetic for real covariances),
and `simulate_chunks` draws every replicate from one random stream, in blocks
of at most CHUNK_VALUES draws, which `empirical_mse` reduces block by block
as they come.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .densities import RationalAR, SpectralDensity, covariances
from .errors import (
    EmbeddingNotPSD,
    IndexOutOfPath,
    InvalidParameters,
    SingularCovariance,
)
from .patterns import FunctionalWeights, ObservationPattern, missing_indices

# project solves in real arithmetic when max |Im r| <= REAL_RTOL r(0)
REAL_RTOL = 1e-13
# normal draws generated at a time by simulate_chunks
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
) -> TimeDomainProblem:
    """Covariance data for the projection of the target functional onto the
    observations within +-window of the gap region; window >= 0. r holds
    `covariances(f, max_lag)` over the lags max_lag of the whole window, the
    quadrature on DEFAULT_GRID points while max_lag < DEFAULT_GRID / 4."""
    if window < 0:
        raise InvalidParameters(f"window must be non-negative, got {window}")
    k_idx = missing_indices(pattern)
    missing = set(k_idx)
    lo = min(k_idx) - window
    hi = max(k_idx) + window
    observed = tuple(t for t in range(lo, hi + 1) if t not in missing)
    max_lag = hi - lo
    r = covariances(f, max_lag)
    return TimeDomainProblem(
        target_indices=tuple(k_idx),
        target_weights=weights.on_gap_set(k_idx),
        observed_indices=observed,
        r=r,
    )


def project(tp: TimeDomainProblem) -> dict:
    """Linear projection of the target functional onto the observed values.

    The estimate sum_o w(o) xi(o) leaves an error orthogonal to every
    observation: R_OO w = R_OK a, R[i][j] = E conj(xi(s_i)) xi(t_j) =
    r(t_j - s_i). Returns w, the mean-square error and a^H R_KK a.

    R is the Toeplitz covariance T of the window of all the indices, K takes
    every unobserved point (weight 0 off the targets), and with P = T^-1 the
    error is the Schur complement a^H P_KK^-1 a, the weights -P_OK P_KK^-1 a.
    One Levinson solve gives x = T^-1 e_0. By the Gohberg-Semencul formula
    T^-1 = (L(x) L(x)^H - L(z) L(z)^H) / x_0, z = (0, conj x_(n-1), ...,
    conj x_1), L(v) lower-triangular Toeplitz with first column v, FFT
    products give P at each run start of K (CHUNK_VALUES FFT entries at a
    time), and P(i, j) = P(i-1, j-1) + (x_i conj x_j - z_i conj z_j) / x_0
    the rest, all on T / r(0), which leaves w unchanged. Real covariances
    (max |Im r| <= REAL_RTOL r(0)) are solved in real arithmetic. A Levinson
    breakdown, an x_0 not positive and finite, |T x - e_0| > 1e-6 or a P_KK
    not positive definite: SingularCovariance.
    """
    obs = np.asarray(tp.observed_indices, dtype=int)  # empty when window = 0 sees none
    tgt = np.asarray(tp.target_indices, dtype=int)
    scale = tp.r[0].real
    real = np.max(np.abs(tp.r.imag)) <= REAL_RTOL * scale
    lo = min(tgt.min(), obs.min(initial=tgt.min()))
    n = int(max(tgt.max(), obs.max(initial=tgt.max())) - lo + 1)
    r = (tp.r.real if real else tp.r)[:n] / scale  # r(0) = 1: T^-1 carries no 1 / r(0)
    m = 1 << (2 * n - 2).bit_length()  # the least power of two >= 2 n - 1
    fwd, inv = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)

    def toeplitz(v):  # T v, T embedded in an m-point circulant
        circulant = np.concatenate((np.conj(r), np.zeros(m - 2 * n + 1), r[:0:-1]))
        return inv(fwd(circulant)[:, None] * fwd(v, m, axis=0), m, axis=0)[:n]

    a = np.zeros((n, 2 if real else 1), r.dtype)  # real: (Re, Im) as two columns
    a[tgt - lo] = np.ascontiguousarray(tp.target_weights, complex).reshape(-1, 1).view(r.dtype)
    target_var = float(np.vdot(a, toeplitz(a)).real) * scale
    if not obs.size:
        return {"weights": np.zeros(0, complex), "mse": target_var, "target_variance": target_var}
    try:
        x = scipy.linalg.solve_toeplitz((np.conj(r), r), np.eye(n, 1)[:, 0], check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"Levinson recursion: {exc}") from exc
    residual = np.linalg.norm(toeplitz(x[:, None]) - np.eye(n, 1))
    if not (0 < x[0].real < np.inf and residual <= 1e-6):
        raise SingularCovariance(f"Levinson x_0 = {x[0].real:.3e}, |T x - e_0| = {residual:.3e}")
    z = np.concatenate(([0], np.conj(x[:0:-1])))
    fx, fxc, fz, fzc = (fwd(c, m)[:, None] for c in (x, np.conj(x), z, np.conj(z)))

    def inverse(v):  # T^-1 v; L(c)^H v = J L(conj c) J v for J the reversal
        fv = fwd(v[::-1], m, axis=0)
        xh, zh = (fwd(inv(fc * fv, m, axis=0)[:n][::-1], m, axis=0) for fc in (fxc, fzc))
        return inv(fx * xh - fz * zh, m, axis=0)[:n] / x[0].real

    kk = np.setdiff1d(np.arange(n), obs - lo)
    first = np.flatnonzero(np.diff(kk, prepend=-2) != 1)  # where the runs of K start
    p_kk = np.empty((kk.size, kk.size), r.dtype, order="F")
    step = max(1, CHUNK_VALUES // m)
    for cols in np.array_split(first, np.arange(step, first.size, step)):
        p_kk[:, cols] = inverse((np.arange(n)[:, None] == kk[cols]).astype(float))[kk]
    p_kk[first] = p_kk[:, first].T.conj()
    rest = np.setdiff1d(np.arange(kk.size), first)
    xr, zr = np.conj(x[kk[rest]]) / x[0].real, np.conj(z[kk[rest]]) / x[0].real
    for u in rest:
        p_kk[u, rest] = p_kk[u - 1, rest - 1] + (x[kk[u]] * xr - z[kk[u]] * zr)
    try:
        chol = scipy.linalg.cholesky(p_kk, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"P_KK: {exc}") from exc
    y = scipy.linalg.solve_triangular(chol, a[kk], lower=True, check_finite=False)
    spread = np.zeros_like(a)
    spread[kk] = scipy.linalg.solve_triangular(chol, y, lower=True, trans="C", check_finite=False)
    # an observed target keeps its own weight; (Re, Im) columns are joined
    w = (a - inverse(spread))[obs - lo] @ ([1, 1j] if real else [1])
    return {"weights": w, "mse": float(np.sum(np.abs(y) ** 2)) * scale,
            "target_variance": target_var}


def simulate_chunks(
    f: SpectralDensity,
    length: int,
    n_replicates: int = 1,
    seed: int = 0,
):
    """Real Gaussian stationary paths with spectral density f, one per row, as
    an iterator of consecutive blocks of rows of at most CHUNK_VALUES draws
    each (one row when a row takes more), each drawn when it is asked for.
    Memory stays O(CHUNK_VALUES) whatever n_replicates is; the arguments are
    checked and the sampler is built before this returns.

    All normal draws come from the one stream np.random.default_rng(seed):
    replicate r is the r-th block of consecutive draws, so the first j rows
    of a call with n_replicates >= j are the rows of the call with j, and a
    replicate cannot be drawn without those before it.

    A RationalAR with real coefficients whose roots w of z^p - alpha_1
    z^(p-1) - ... - alpha_p all lie inside the unit circle (white noise,
    p = 0, included) runs its AR recursion from a stationary initial state
    (see `_ar_sampler`): a replicate takes `length` draws. Everything else
    goes through circulant embedding of r(0..m/2), a non-causal AR (which
    would run an explosive recursion) too. The embedding is exact whenever
    it is non-negative definite: m starts at the smallest power of two
    >= 2 (length - 1) and doubles while an eigenvalue lies below -1e-10 times
    the largest, and EmbeddingNotPSD is raised past the first power of two
    >= 8 length. Slowly decaying covariances can reach that: the tabulated
    values of an AR(2) with roots of modulus 0.99 on a path of length 41 do.
    The covariances come from the grid, so a density below 1e-9 of its
    maximum there raises NonPositiveDensity. A replicate takes 2m draws, the
    real and imaginary parts of the m-point FFT input, and each chunk is one
    FFT along the rows. `gapinterp simulate` draws paths over exactly the
    indices A and its estimate read: K and the support of
    `estimate_weights_from_characteristic`.
    """
    if length < 1 or n_replicates < 1:
        raise InvalidParameters("length and n_replicates must be positive")
    if seed < 0:
        raise InvalidParameters(f"seed must be non-negative, got {seed}")
    causal_ar = (isinstance(f, RationalAR) and not f.alpha.imag.any()
                 and np.max(np.abs(f._eigenvalues), initial=0.0) < 1.0)
    draw, width = (_ar_sampler if causal_ar else _circulant_sampler)(f, length)
    rng = np.random.default_rng(seed)
    rows = max(1, CHUNK_VALUES // width)
    return (draw(rng, min(rows, n_replicates - start)) for start in range(0, n_replicates, rows))


def _ar_sampler(f: RationalAR, length: int):
    """draw(rng, rows) giving rows AR paths, and the draws per path.

    A path starts stationary: y(0..p-1) = L e, L the Cholesky factor of the
    Yule-Walker covariances [r(j - i)], is y(m) = sum_k a_m,k y(m - k) +
    sqrt(v_m) e(m) with the order-m predictors a_m and error variances v_m
    of the Levinson step-down of alpha; from t = p on it is lfilter's
    y(t) = sum_k alpha_k y(t - k) + sqrt(sigma2) e(t). A step is one vector
    over a chunk's rows (Python cost per step), summed in the direct form II
    transposed order ((a_m y(t-m) + a_(m-1) y(t-m+1)) + ...) + sqrt(v_m) e(t),
    so a row does not depend on its chunk.
    """
    p = f.order
    coefs, var = [f.alpha.real], [f.sigma2]
    for _ in range(p):  # step down from order m to m - 1
        a, k = coefs[0][:-1], coefs[0][-1]  # |k| < 1 for every root inside the circle
        coefs.insert(0, (a + k * a[::-1]) / (1 - k * k))
        var.insert(0, var[0] / (1 - k * k))
    coefs = [c.tolist() for c in coefs]
    scale = np.sqrt(np.array(var)[np.minimum(np.arange(length), p)])

    def draw(rng, rows):
        y = np.empty((length, rows))  # time-major
        np.multiply(scale[:, None], rng.standard_normal((rows, length)).T, out=y)
        steps = list(y)
        acc, term = np.empty(rows), np.empty(rows)
        for t in range(1, length if p else 1):  # y(0) and white noise are e scaled
            a = coefs[min(t, p)]
            np.multiply(a[-1], steps[t - len(a)], out=acc)
            for k in range(len(a) - 1, 0, -1):
                acc += np.multiply(a[k - 1], steps[t - k], out=term)
            steps[t] += acc
        return y.T

    return draw, length


def _circulant_sampler(f: SpectralDensity, length: int):
    """draw(rng, rows) giving rows circulant-embedding paths, and the draws
    per path. Each embedding size m reads `covariances(f, m // 2)`, the
    quadrature on max(DEFAULT_GRID, 4 m) points."""
    m = 1 << max(2 * length - 3, 0).bit_length()  # the least power of two >= 2 (length - 1)
    while True:
        r = covariances(f, m // 2)
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


def estimate_weights_from_characteristic(solution) -> dict:
    """Observation weights of the solved estimate: every Fourier coefficient
    h(j) of the spectral characteristic that the solution holds
    (`solution.h_coeffs`) at an index j outside K. When 1/f has degree p these
    are all the nonzero ones, on [min K - p, max K + p]; for a Tabulated one,
    those of the grid FFT, whose error on the grid is Delta to rounding."""
    missing = set(solution.indices)
    return {j: v for j, v in solution.h_coeffs.items() if j not in missing}
