"""Classical mean-square optimal interpolation over a gap set.

The optimal estimate of the functional A = sum_{j in K} a(j) xi(j) from the
observations on S = Z \\ K is characterized in the spectral domain by

    h(e^{i lambda}) = A(e^{i lambda}) - C(e^{i lambda}) / f(lambda),

where C carries coefficients c solving the Gram system B c = a with
B[u][v] = b(t_u - t_v), b = Fourier coefficients of 1/f. The error is
Delta = <c, a> = sum_j c(j) conj(a(j)). Over the sorted gap set B is a band
matrix of half-bandwidth at most p when 1/f has degree p (RationalAR,
InversePolynomial; p = n - 1 for Tabulated), and one banded Cholesky solves
it in O(n p^2).

The Fourier coefficients of h are the finite convolution
h(j) = a(j) - sum_k c(k) b(j - k). They are exact whenever 1/f is a finite
trigonometric polynomial (RationalAR, InversePolynomial). A solution computes
`h_coeffs` and the grid values `h_grid` on first access, not in `solve`;
`h_grid` needs 2 max|j| < grid_size and raises InvalidParameters otherwise.

Infinite gaps (S1-S3) are cut at depths T = 25, 50, ..., 6400, doubling
until the error plateaus and the weights beyond T are negligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .densities import (
    DEFAULT_GRID,
    FourierCoeffs,
    SpectralDensity,
    Tabulated,
    evaluate_trig_poly,
    inverse_fourier_coeffs,
)
from .errors import (
    GridMismatch,
    InvalidParameters,
    LagOutOfRange,
    NotConverged,
    NotPositiveDefinite,
)
from .patterns import FunctionalWeights, ObservationPattern, missing_indices, weight_vector

TRUNCATION_SCHEDULE = tuple(25 * 2 ** k for k in range(9))  # 25, 50, ..., 6400
PLATEAU_RTOL = 1e-8
# lags of 1/f held beyond the gap span: for Tabulated input h_coeffs covers
# [min K - 64, max K + 64]
CHARACTERISTIC_MARGIN = 64


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix B[u][v] = b(t_u - t_v) over the ordered missing set t."""

    matrix: np.ndarray
    indices: tuple


def build_gram(pattern: ObservationPattern, b: FourierCoeffs) -> GramMatrix:
    """Assemble the dense B over the canonical missing-index order; the
    reference form of the entry rule that `solve_gram` applies to a band."""
    idx = missing_indices(pattern)
    lags = np.subtract.outer(idx, idx)
    if np.max(np.abs(lags)) > b.half_length:
        raise LagOutOfRange(
            f"needed lag {np.max(np.abs(lags))} exceeds coefficient half-length {b.half_length}"
        )
    half = b.half_length
    matrix = b.values[lags + half]
    return GramMatrix(matrix=np.asarray(matrix, dtype=complex), indices=tuple(idx))


def solve_gram(indices, a: np.ndarray, b: FourierCoeffs) -> np.ndarray:
    """Solve B c = a, B[u][v] = b(t_u - t_v), by a banded Cholesky over the
    sorted indices, and return c in the order of `indices`.

    Sorted distinct integers satisfy |u - v| <= |t_u - t_v|, so the
    half-bandwidth is at most p, the largest lag with b(p) != 0, and the solve
    costs O(n p^2). A failed factorization raises NotPositiveDefinite.
    """
    t = np.asarray(indices)
    order = np.argsort(t)
    t = t[order]
    n, half = t.size, b.half_length
    if t[-1] - t[0] > half:
        raise LagOutOfRange(f"needed lag {t[-1] - t[0]} exceeds coefficient half-length {half}")
    support = np.flatnonzero(b.values[half:])
    u = min(int(support[-1]) if support.size else 0, n - 1)
    # lower band ab[k, j] = B[j + k, j]; LAPACK reads no entry past row n - 1,
    # so clipping those rows into range only fills the unread corner
    rows = np.minimum(np.arange(u + 1)[:, None] + np.arange(n), n - 1)
    ab = b.values[t[rows] - t + half]
    try:
        c_sorted = scipy.linalg.solveh_banded(ab, a[order], lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"coefficient matrix is not positive definite: {exc}") from exc
    c = np.empty_like(c_sorted)
    c[order] = c_sorted
    return c


@dataclass(frozen=True)
class InterpolationSolution:
    """Solved coefficients c and error delta for the density f, whose 1/f has
    the Fourier coefficients b (lags -L..L). The spectral characteristic is
    derived from these fields on first access."""

    indices: tuple
    c: np.ndarray
    a: np.ndarray
    delta: float
    grid_size: int
    f: SpectralDensity
    b: FourierCoeffs
    convergence: dict = field(default_factory=dict)

    def coefficient(self, j: int) -> complex:
        pos = self.indices.index(j)
        return complex(self.c[pos])

    @cached_property
    def h_coeffs(self) -> dict:
        """h(j) = a(j) - sum_k c(k) b(j - k), with b cut to its support
        [-p, p], p the largest lag with b(p) != 0. When p < L, 1/f is a
        trigonometric polynomial of degree p and the lags [min K - p, max K + p]
        hold every nonzero h(j). When p = L (Tabulated), only the lags
        [max K - L, min K + L], where every b(j - k) is held, are returned."""
        idx = np.asarray(self.indices)
        lo, hi, half = int(idx.min()), int(idx.max()), self.b.half_length
        support = np.flatnonzero(self.b.values[half:])
        p = int(support[-1]) if support.size else 0
        c_spread = np.zeros(hi - lo + 1, dtype=complex)
        c_spread[idx - lo] = self.c
        conv = np.convolve(c_spread, self.b.values[half - p: half + p + 1])
        cut = hi - lo if p == half else 0
        conv = conv[cut: conv.size - cut]
        first = lo - p + cut
        a_spread = np.zeros_like(conv)
        a_spread[idx - first] = self.a
        return dict(zip(range(first, first + conv.size), (a_spread - conv).tolist()))

    @cached_property
    def h_grid(self) -> np.ndarray:
        """h = A - C / f on the angular grid of grid_size points."""
        a_grid = poly_on_grid(self.indices, self.a, self.grid_size)
        c_grid = poly_on_grid(self.indices, self.c, self.grid_size)
        return a_grid - c_grid / self.f.on_grid(self.grid_size)


def poly_on_grid(indices, coeffs, grid_size: int) -> np.ndarray:
    idx = np.asarray(indices, dtype=int)
    half = int(np.abs(idx).max()) if idx.size else 0
    spread = np.zeros(2 * half + 1, dtype=complex)
    spread[idx + half] += coeffs  # K holds no index twice
    return evaluate_trig_poly(spread, grid_size)


def solve(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    f: SpectralDensity,
    grid_size: int = DEFAULT_GRID,
) -> InterpolationSolution:
    """Solve B c = a for the coefficients and the error."""
    idx = missing_indices(pattern)
    a = weight_vector(weights, pattern)
    max_lag = max(max(idx) - min(idx), 1)
    half = max(min(max_lag + CHARACTERISTIC_MARGIN, grid_size // 4), max_lag)
    b = inverse_fourier_coeffs(f, half_length=half, grid_size=grid_size, check_tail=False)
    c = solve_gram(idx, a, b)
    return InterpolationSolution(
        indices=tuple(idx), c=c, a=a, delta=error_value(c, a), grid_size=grid_size, f=f, b=b,
    )


def error_value(c: np.ndarray, a: np.ndarray) -> float:
    """Delta = <c, a> = sum_j c(j) conj(a(j)). B is Hermitian positive
    definite, so an imaginary part beyond rounding raises NotPositiveDefinite."""
    inner = complex(np.sum(c * np.conj(a)))
    scale = max(float(np.max(np.abs(a))) ** 2 * a.size, 1e-300)
    if abs(inner.imag) > 1e-10 * max(abs(inner), scale):
        raise NotPositiveDefinite(f"error inner product has imaginary part {inner.imag:.3e}")
    return float(inner.real)


def mse_of_characteristic(
    h_grid: np.ndarray,
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    f: SpectralDensity,
) -> float:
    """Delta(h; f) = (1/2pi) int |A - h|^2 f dlambda for an arbitrary pair."""
    grid_size = h_grid.size
    f_grid = density_on_grid(f, grid_size)
    idx = missing_indices(pattern)
    a = weight_vector(weights, pattern)
    a_grid = poly_on_grid(idx, a, grid_size)
    return float(np.mean(np.abs(a_grid - h_grid) ** 2 * f_grid))


def density_on_grid(f: SpectralDensity, grid_size: int) -> np.ndarray:
    """Values of f on the grid of a characteristic; a Tabulated density finer
    than that grid is refused rather than downsampled."""
    if isinstance(f, Tabulated) and f.values.size > grid_size:
        raise GridMismatch(
            "tabulated density is finer than the characteristic grid; "
            "downsampling would alias"
        )
    f_grid = f.on_grid(grid_size)
    if f_grid.size != grid_size:
        raise GridMismatch("density grid does not match the characteristic grid")
    return f_grid


def solve_truncated(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    f: SpectralDensity,
    schedule=TRUNCATION_SCHEDULE,
    grid_size: int = DEFAULT_GRID,
) -> InterpolationSolution:
    """Solve an infinite-pattern problem at increasing truncation depths and
    stop at the first depth whose error matches the previous depth's within
    PLATEAU_RTOL while the weights beyond it carry less than 1e-10 of their
    l2 mass. NotConverged is raised only when the schedule is exhausted."""
    if not pattern.is_infinite:
        raise InvalidParameters("truncation schedule applies to infinite patterns only")
    schedule = sorted(set(int(t) for t in schedule))
    if len(schedule) < 2:
        raise InvalidParameters("schedule needs at least two depths")
    deltas = []
    for depth in schedule:
        truncated = pattern.with_truncation(depth)
        solution = solve(truncated, weights, f, grid_size=grid_size)
        gap = abs(solution.delta - deltas[-1]) if deltas else np.inf
        deltas.append(solution.delta)
        tail = weights.tail_fraction(truncated)
        converged = gap <= PLATEAU_RTOL * max(abs(solution.delta), 1e-300) and tail < 1e-10
        if converged:
            break
    report = {
        "schedule": schedule[: len(deltas)],
        "deltas": deltas,
        "final_gap": gap,
        "tail_fraction": tail,
        "converged": converged,
    }
    if not converged:
        raise NotConverged("truncated error sequence did not plateau", diagnostics=report)
    return replace(solution, convergence=report)
