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

Infinite gaps (S1-S3) go through `solve_truncated`. When 1/f has degree p
(RationalAR, InversePolynomial) the infinite blocks are cut once, at the
depth D where the cut moves Delta by about TAIL_RTOL relative: the exact
solution decays there like max(rho, |z|)^s over the roots z of 1/f inside
the unit circle, so D follows from that rate and is checked on the solved c.
The solution's grid doubles until it holds K (2 max|j| < grid_size).
Tabulated densities are cut at depths T = 25, 50, ..., 6400, doubling until
the error plateaus and the weights beyond T are negligible, and at most as
deep as the grid's quadrature reaches (a span of K up to grid_size / 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .densities import (
    DEFAULT_GRID,
    FourierCoeffs,
    InversePolynomial,
    RationalAR,
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
from .patterns import FunctionalWeights, ObservationPattern, missing_indices

TRUNCATION_SCHEDULE = tuple(25 * 2 ** k for k in range(9))  # 25, 50, ..., 6400
PLATEAU_RTOL = 1e-8
# lags of 1/f held beyond the gap span: for Tabulated input h_coeffs covers
# [min K - 64, max K + 64]
CHARACTERISTIC_MARGIN = 64
# the exact path cuts an infinite block where the cut moves Delta by about
# TAIL_RTOL relative (times max f / min f), far below rounding
TAIL_RTOL = 1e-17
# the deepest cut per block: decays slower than 0.9998 per step are refused,
# as the doubling refuses tails past its last depth
MAX_DEPTH = 100_000
# the Cholesky routines scipy.linalg.solveh_banded picks for complex input:
# ?ptsv for a tridiagonal band, ?pbsv otherwise
_PTSV, _PBSV = scipy.linalg.get_lapack_funcs(("ptsv", "pbsv"), (np.empty(1, dtype=complex),))


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
    u = min(_degree(b), n - 1)
    # lower band ab[k, j] = B[j + k, j]; LAPACK reads no entry past row n - 1,
    # so clipping those rows into range only fills the unread corner
    rows = np.minimum(np.arange(u + 1)[:, None] + np.arange(n), n - 1)
    ab = b.values[t[rows] - t + half]
    # the routine scipy.linalg.solveh_banded would pick
    if u == 1:
        _, _, c_sorted, info = _PTSV(ab[0].real, ab[1, :-1], a[order])
    else:
        _, c_sorted, info = _PBSV(ab, a[order], lower=1)
    if info > 0:
        raise NotPositiveDefinite(
            f"coefficient matrix is not positive definite: {info}th leading minor "
            "not positive definite"
        )
    c = np.empty_like(c_sorted)
    c[order] = c_sorted
    return c


def _degree(b: FourierCoeffs) -> int:
    """The largest lag p with b(p) != 0."""
    support = np.flatnonzero(b.values[b.half_length:])
    return int(support[-1]) if support.size else 0


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
        p = _degree(self.b)
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
    a = weights.on(idx)
    b = inverse_fourier_coeffs(f, _half_length(idx, grid_size), grid_size)
    c = solve_gram(idx, a, b)
    return InterpolationSolution(
        indices=tuple(idx), c=c, a=a, delta=error_value(c, a), grid_size=grid_size, f=f, b=b,
    )


def _half_length(idx, grid_size: int) -> int:
    """Lags of 1/f a solution holds: the span of K plus a margin, capped at
    a quarter of the grid unless the span itself is larger."""
    max_lag = max(max(idx) - min(idx), 1)
    return max(min(max_lag + CHARACTERISTIC_MARGIN, grid_size // 4), max_lag)


def error_value(c: np.ndarray, a: np.ndarray) -> float:
    """Delta = <c, a> = sum_j c(j) conj(a(j)). B is Hermitian positive
    definite, so an imaginary part beyond rounding raises NotPositiveDefinite."""
    inner = complex(np.vdot(a, c))
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
    a = weights.on(idx)
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
    grid_size: int = DEFAULT_GRID,
    rtol: float = TAIL_RTOL,
) -> InterpolationSolution:
    """Solve an infinite-pattern problem (S1-S3); the density type picks the path.

    When 1/f has finite degree (RationalAR, InversePolynomial), the blocks
    are cut once, where the cut moves Delta by about rtol (max f / min f)
    relative, and one banded solve gives the result (see `_single_cut`):
    with the default rtol it equals the infinite problem's to rounding.
    `convergence` is {"method": "exact_tail", "converged": True, "depth": D},
    and `grid_size` is doubled as often as K needs (2 max|j| < grid_size).

    A Tabulated density is solved at the depths T = 25, 50, ..., 6400 and
    stops at the first whose error matches the previous depth's within
    PLATEAU_RTOL while the weights beyond it carry less than 1e-10 of their
    l2 mass. Its quadrature of 1/f holds a span of K up to grid_size / 4, so
    no deeper cut is tried: NotConverged is raised, with the depths, errors,
    last gap and tail fraction, when no depth the grid holds has converged.
    `convergence` records the "doubling" method and the same values.
    """
    if not pattern.is_infinite:
        raise InvalidParameters("solve_truncated applies to infinite patterns only")
    if not 0 < rtol < 1:
        raise InvalidParameters(f"rtol must lie in (0, 1), got {rtol}")
    if isinstance(f, (RationalAR, InversePolynomial)):
        return _single_cut(pattern, weights, f, grid_size, rtol)
    depths, deltas, gap, tail, converged = [], [], None, None, False
    for depth in TRUNCATION_SCHEDULE:
        truncated = pattern.with_truncation(depth)
        idx = missing_indices(truncated)
        if 4 * (max(idx) - min(idx)) > grid_size:
            break
        solution = solve(truncated, weights, f, grid_size=grid_size)
        if deltas:
            gap = abs(solution.delta - deltas[-1])
        depths.append(depth)
        deltas.append(solution.delta)
        tail = weights.tail_fraction(truncated)
        converged = (gap is not None and tail < 1e-10
                     and gap <= PLATEAU_RTOL * max(abs(solution.delta), 1e-300))
        if converged:
            break
    report = {
        "method": "doubling",
        "depth": depths[-1] if depths else None,
        "schedule": depths,
        "deltas": deltas,
        "final_gap": gap,
        "tail_fraction": tail,
        "converged": converged,
    }
    if not converged:
        raise NotConverged(f"truncated error sequence did not plateau at depths a grid of "
                           f"{grid_size} points holds", diagnostics=report)
    return replace(solution, convergence=report)


def _single_cut(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    f: SpectralDensity,
    grid_size: int,
    rtol: float,
) -> InterpolationSolution:
    """Solve an S1-S3 problem whose 1/f has degree p, cut where the cut no
    longer matters.

    Cutting the blocks at depth D moves Delta by <w, a_w - B_wK c> over the
    dropped tail w of the exact c, that is by about c(D) (a(D) + c(D))
    relative to max|c| max|a|, times a factor below
    (max f / min f) / (1 - radius^2). Both decay past the explicit weights
    like radius^s, radius = max(rho, |z|) over the roots z of 1/f inside the
    unit circle, so D starts at decay(rtol / 10, radius^2) past them and
    doubles until the shares of c and a at the p outermost indices of each
    block, c_D and a_D, satisfy c_D max(c_D, a_D) <= rtol. The cut solution's edge understates the
    exact c there by about 1 - radius^2 (measured: Delta within 1.5e-15 of a
    solve at depth 20000 for alpha = rho = 0.995, where that factor is 1e-2),
    which the default rtol, well below rounding, absorbs. One banded
    Cholesky over the cut K then gives c, and h vanishes on K to rounding;
    the grid grows by doubling until it holds h (2 max|j| < grid_size).
    """
    if isinstance(f, InversePolynomial):
        f.inverse_on_grid(grid_size)  # refuse a 1/f that is not positive before its roots
    C, rho = weights.geometric or (0.0, 0.0)
    radius = max(rho, _slowest_root(f))
    # b(m) vanishes past the nominal degree p
    p = f.order if isinstance(f, RationalAR) else f.inv_coeffs.half_length
    reach = weights.reach(pattern)
    if reach > TRUNCATION_SCHEDULE[-1]:
        raise InvalidParameters(f"explicit weights reach {reach} indices into an infinite "
                                f"block; at most {TRUNCATION_SCHEDULE[-1]} are supported")
    # a tenth of rtol leaves room for the constants of the slowest mode
    depth = max(reach, p, 1) + _decay(0.1 * rtol, radius ** 2)
    q = max(p, 1)
    while True:
        _check_depth(depth)
        idx = missing_indices(pattern.with_truncation(depth))
        a = weights.on(idx)
        b = inverse_fourier_coeffs(f, _half_length(idx, grid_size), grid_size)
        c = solve_gram(idx, a, b)
        # canonical order: central, then each held block with its outermost
        # q indices last
        ends = pattern.N + 1 + depth * np.arange(1, pattern.has_left + pattern.has_right + 1)
        edge = (ends[:, None] - np.arange(1, q + 1)).ravel()
        c_edge, a_edge = _edge_share(c, edge), _edge_share(a, edge)
        if c_edge * max(c_edge, a_edge) <= rtol:
            break
        depth *= 2
    extent = max(pattern.M1 + depth if pattern.has_left else 0,
                 pattern.N + pattern.M2 + depth if pattern.has_right else pattern.N)
    while 2 * extent >= grid_size:
        grid_size *= 2
    return InterpolationSolution(
        indices=tuple(idx), c=c, a=a, delta=error_value(c, a), grid_size=grid_size, f=f,
        b=b, convergence={"method": "exact_tail", "converged": True, "depth": depth},
    )


def _slowest_root(f: SpectralDensity) -> float:
    """The largest modulus of a root of 1/f inside the unit circle; a start
    for the depth, which `_single_cut` checks. For RationalAR these are the
    roots of the monic z^p - alpha_1 z^(p-1) - ... - alpha_p (or their
    reflections 1/conj(z)), kept by its constructor; they stay accurate when
    alpha_p is tiny, where the polynomial of b (a tiny lead) would lose them."""
    if isinstance(f, RationalAR):
        r = np.abs(f._eigenvalues)
        outside = r > 1.0
        r[outside] = 1.0 / r[outside]
        return float(np.max(r, initial=0.0))
    b = f.inv_coeffs
    # a lead below rounding of b(0) only adds a root pair near 0 and infinity
    # (a subnormal one overflows the companion matrix), so it is dropped
    lags = np.flatnonzero(np.abs(b.values[b.half_length:]) > 1e-16 * abs(b[0]))
    p = int(lags[-1]) if lags.size else 0
    # roots pair as (z, 1/conj(z)): p lie inside
    roots = np.roots(b.values[b.half_length - p: b.half_length + p + 1])
    return float(np.sort(np.abs(roots))[p - 1]) if p else 0.0


def _edge_share(v: np.ndarray, edge: np.ndarray) -> float:
    """max |v| over the edge positions, relative to max |v| (0 for v = 0)."""
    top = float(np.max(np.abs(v)))
    return float(np.max(np.abs(v[edge]))) / top if top > 0 else 0.0


def _check_depth(depth: int) -> None:
    """Refuse a tail that needs more than MAX_DEPTH indices per block, or
    whose values never fall below the level (a NaN never does)."""
    if depth > MAX_DEPTH:
        raise NotConverged(f"the exact tail needs more than {MAX_DEPTH} indices per block",
                           diagnostics={"depth": depth})


def _decay(level: float, radius: float) -> int:
    """Steps after which radius^s falls below level (1 for radius 0, past
    MAX_DEPTH for radius 1, which a root on the unit circle would give)."""
    if radius <= 0:
        return 1
    if radius >= 1:
        return MAX_DEPTH + 1
    return math.ceil(math.log(level) / math.log(radius))
