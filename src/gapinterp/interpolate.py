"""Classical mean-square optimal interpolation over a gap set.

The optimal estimate of the functional A = sum_{j in K} a(j) xi(j) from the
observations on S = Z \\ K is characterized in the spectral domain by

    h(e^{i lambda}) = A(e^{i lambda}) - C(e^{i lambda}) / f(lambda),

where C carries coefficients c solving the Gram system B c = a with
B[u][v] = b(t_u - t_v), b = Fourier coefficients of 1/f. The error is
Delta = <c, a> = sum_j c(j) conj(a(j)).

The Fourier coefficients of h are the finite convolution
h(j) = a(j) - sum_k c(k) b(j - k). They are exact whenever 1/f is a finite
trigonometric polynomial (RationalAR, InversePolynomial). A solution computes
`h_coeffs` and the grid values `h_grid` on first access, not in `solve`.
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

TRUNCATION_SCHEDULE = (25, 50, 100, 200, 400)
PLATEAU_RTOL = 1e-8
# lags of 1/f held beyond the gap span: h_coeffs covers [min K - 64, max K + 64]
CHARACTERISTIC_MARGIN = 64


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix B[u][v] = b(t_u - t_v) over the ordered missing set t."""

    matrix: np.ndarray
    indices: tuple

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return solve_hermitian(self.matrix, rhs)


def solve_hermitian(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a Hermitian positive-definite system by Cholesky; a failed
    factorization surfaces as NotPositiveDefinite."""
    try:
        cf = scipy.linalg.cho_factor(matrix, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"coefficient matrix is not positive definite: {exc}") from exc
    return scipy.linalg.cho_solve(cf, rhs, check_finite=False)


def build_gram(pattern: ObservationPattern, b: FourierCoeffs) -> GramMatrix:
    """Assemble B over the canonical missing-index order."""
    idx = missing_indices(pattern)
    lags = np.subtract.outer(idx, idx)
    if np.max(np.abs(lags)) > b.half_length:
        raise LagOutOfRange(
            f"needed lag {np.max(np.abs(lags))} exceeds coefficient half-length {b.half_length}"
        )
    half = b.half_length
    matrix = b.values[lags + half]
    return GramMatrix(matrix=np.asarray(matrix, dtype=complex), indices=tuple(idx))


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
        """h(j) = a(j) - sum_k c(k) b(j - k) on the lags j in
        [max K - L, min K + L], where every b(j - k) is held. When 1/f is a
        trigonometric polynomial of degree p <= L - span, every nonzero h(j)
        is among them."""
        idx = np.asarray(self.indices)
        lo, hi, half = int(idx.min()), int(idx.max()), self.b.half_length
        c_spread = np.zeros(hi - lo + 1, dtype=complex)
        c_spread[idx - lo] = self.c
        conv = np.convolve(c_spread, self.b.values)[hi - lo: 2 * half + 1]
        a_spread = np.zeros_like(conv)
        a_spread[idx - hi + half] = self.a
        return dict(zip(range(hi - half, lo + half + 1), (a_spread - conv).tolist()))

    @cached_property
    def h_grid(self) -> np.ndarray:
        """h = A - C / f on the angular grid of grid_size points."""
        a_grid = _poly_on_grid(self.indices, self.a, self.grid_size)
        c_grid = _poly_on_grid(self.indices, self.c, self.grid_size)
        return a_grid - c_grid / self.f.on_grid(self.grid_size)


def _poly_on_grid(indices, coeffs, grid_size: int) -> np.ndarray:
    half = max(abs(j) for j in indices) if indices else 0
    spread = np.zeros(2 * half + 1, dtype=complex)
    for j, v in zip(indices, coeffs):
        spread[j + half] += v
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
    gram = build_gram(pattern, b)
    c = gram.solve(a)
    inner = complex(np.sum(c * np.conj(a)))
    scale = max(float(np.max(np.abs(a))) ** 2 * len(idx), 1e-300)
    if abs(inner.imag) > 1e-10 * max(abs(inner), scale):
        raise NotPositiveDefinite(f"error inner product has imaginary part {inner.imag:.3e}")
    return InterpolationSolution(
        indices=tuple(idx), c=c, a=a, delta=float(inner.real), grid_size=grid_size, f=f, b=b,
    )


def mse_of_characteristic(
    h_grid: np.ndarray,
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    f: SpectralDensity,
) -> float:
    """Delta(h; f) = (1/2pi) int |A - h|^2 f dlambda for an arbitrary pair."""
    grid_size = h_grid.size
    if isinstance(f, Tabulated) and f.values.size > grid_size:
        raise GridMismatch(
            "tabulated density is finer than the characteristic grid; "
            "downsampling would alias"
        )
    f_grid = f.on_grid(grid_size)
    if f_grid.size != grid_size:
        raise GridMismatch("density grid does not match the characteristic grid")
    idx = missing_indices(pattern)
    a = weight_vector(weights, pattern)
    a_grid = _poly_on_grid(idx, a, grid_size)
    return float(np.mean(np.abs(a_grid - h_grid) ** 2 * f_grid))


def solve_truncated(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    f: SpectralDensity,
    schedule=TRUNCATION_SCHEDULE,
    grid_size: int = DEFAULT_GRID,
) -> InterpolationSolution:
    """Solve an infinite-pattern problem at increasing truncation depths and
    require a relative plateau of the error sequence."""
    if not pattern.is_infinite:
        raise InvalidParameters("truncation schedule applies to infinite patterns only")
    schedule = sorted(set(int(t) for t in schedule))
    if len(schedule) < 2:
        raise InvalidParameters("schedule needs at least two depths")
    deltas = []
    solution = None
    for depth in schedule:
        solution = solve(pattern.with_truncation(depth), weights, f, grid_size=grid_size)
        deltas.append(solution.delta)
    tail = weights.tail_fraction(pattern.with_truncation(schedule[-1]))
    gap = abs(deltas[-1] - deltas[-2])
    converged = gap <= PLATEAU_RTOL * max(abs(deltas[-1]), 1e-300) and tail < 1e-10
    report = {
        "schedule": schedule,
        "deltas": deltas,
        "final_gap": gap,
        "tail_fraction": tail,
        "converged": converged,
    }
    if not converged:
        raise NotConverged("truncated error sequence did not plateau", diagnostics=report)
    return replace(solution, convergence=report)
