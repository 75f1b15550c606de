"""Classical mean-square optimal interpolation over a gap set.

The optimal estimate of the functional A = sum_{j in K} a(j) xi(j) from the
observations on S = Z \\ K is characterized in the spectral domain by

    h(e^{i lambda}) = A(e^{i lambda}) - C(e^{i lambda}) / f(lambda),

where C carries coefficients c solving the Gram system B c = a with
B[u][v] = b(t_u - t_v), b = Fourier coefficients of 1/f. The error is
Delta = <c, a> = sum_j c(j) conj(a(j)). Over the sorted gap set B is a band
matrix of half-bandwidth at most p when 1/f has degree p (RationalAR,
InversePolynomial; p = n - 1 for Tabulated), and one banded Cholesky solves
it in O(n p^2) arithmetic, which for a small p is not what a solve costs.
Measured on one core (x86-64 Xeon, Python 3.11, numpy 2.4, scipy 1.17,
OpenBLAS; best of 31 runs, thread CPU time), `solve` on S6 with an AR(2) 1/f
and explicit weights takes about 31 us at n = 32 and 43 us at n = 96, 0.19 us
per index, below ARRAY_MIN = 128 indices, where `_gap_set` makes K's int
array with one np.fromiter of K's tuple and the Gram takes LAPACK's complex
routine. From ARRAY_MIN on `_gap_set` builds the array from the blocks' ranges
and a real band with real weights takes the real routine: about 0.14 us per
index with real weights, 0.16 us with complex ones and 0.08 us with geometric
ones, which read the array too (n = 2000: about 305, 355 and 203 us, against
375, 380 and 330 us on the path below ARRAY_MIN). At n = 2000 the Cholesky
itself takes 86 us real and 137 us complex. The large path's fixed work
(building the array from the ranges, the realness checks) pays from about 100
indices for geometric weights and about 170 for real ones, which are within
2.5 us of the small path from 96 to 192; complex weights, which stay on the
complex routine, break even at about 450 to 500. `_gap_set` is the only place
that chooses K's form; `solve` and `solve_truncated` hand its int array to the
Gram solve and to a geometric profile.

An explicit map is gathered on the tuple of K at every size, by
`FunctionalWeights.on_gap_set`: a map that holds exactly K is read with one
dict lookup per index, and building the weights, building K and gathering
take 15, 40 and 146 us at n = 128, 512 and 2000 (a geometric profile: 9, 16
and 49 us); a map of any other size is first given int keys and checked
with a set difference, 26, 77 and 290 us.

A solution holds all of a finite-degree 1/f, and the Fourier coefficients of
h are then the exact convolution h(j) = a(j) - sum_k c(k) b(j - k); those of
a Tabulated h come from one FFT of h on the grid. A solution computes
`h_coeffs` and the grid values `a_grid` and `h_grid` on first access, not in
`solve`. Every solution keeps the grid it is given, and its grid values are
exact at the grid points for any span of K (`poly_on_grid`).

Infinite gaps (S1-S3) go through `solve_truncated`, one loop for every
density: the infinite blocks are cut at a depth D where the cut moves Delta
by about TAIL_RTOL relative, started from the decay of the weights and of
the roots of 1/f, and doubled until the solved c and the weights are small
enough at the block edges, up to one deepest depth, which also bounds the
explicit weights; each depth is solved as `solve` solves a finite pattern.
The density changes only the loop's inputs: a RationalAR or
InversePolynomial gives the exact 1/f, its roots and the deepest depth
MAX_DEPTH; a Tabulated density gives one grid quadrature of 1/f, cut to each
depth, no roots, and a deepest depth no larger, where K spans grid_size / 4.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .densities import (
    DEFAULT_GRID,
    FourierCoeffs,
    InversePolynomial,
    RationalAR,
    SpectralDensity,
    inverse_fourier_coeffs,
    poly_on_grid,
)
from .errors import (
    InvalidParameters,
    LagOutOfRange,
    NonFiniteSolution,
    NotConverged,
    NotPositiveDefinite,
)
from .patterns import FunctionalWeights, ObservationPattern, missing_indices

# the exact path cuts an infinite block where the cut moves Delta by about
# TAIL_RTOL relative (times max f / min f), far below rounding
TAIL_RTOL = 1e-17
# the deepest cut per block, and the deepest explicit weight: a decay slower
# than about 0.9998 per step is refused after a solve at this depth
MAX_DEPTH = 100_000
# from this many indices on, `_gap_set` builds K's int array from the blocks'
# ranges, not from K's tuple, and a real band and right-hand side go to the
# real Cholesky routines; a smaller K keeps the complex ones (timed at
# |K| = 32 to 2000: see the module docstring)
ARRAY_MIN = 128
# the Cholesky routines scipy.linalg.solveh_banded picks: ?ptsv for a
# tridiagonal band, ?pbsv otherwise, complex and real
_PTSV, _PBSV = scipy.linalg.get_lapack_funcs(("ptsv", "pbsv"), (np.empty(1, dtype=complex),))
_DPTSV, _DPBSV = scipy.linalg.get_lapack_funcs(("ptsv", "pbsv"), (np.empty(1),))


def solve_gram(indices, a: np.ndarray, b: FourierCoeffs) -> np.ndarray:
    """Solve B c = a, B[u][v] = b(t_u - t_v), by a banded Cholesky over the
    sorted indices (an int array, a list or a tuple), and return c in the order
    of `indices`.

    Sorted distinct integers satisfy |u - v| <= |t_u - t_v|, so the
    half-bandwidth is at most p = b.degree, the largest lag with b(p) != 0, and
    the arithmetic is O(n p^2). The indices are read with one np.asarray, which
    costs nothing on the int array `solve` passes (`_gap_set`) and converts a
    list or tuple, and ordered by a stable sort, which runs in O(n) on the
    sorted blocks of K. From ARRAY_MIN indices on, a band whose lags 0..p and a
    right-hand side that are both exactly real go to LAPACK's real routine, in
    about 0.6 of the complex one's time (an AR(2) band at n = 2000: 95 against
    152 us); c then differs from the complex routine's by rounding. A failed
    factorization raises NotPositiveDefinite.
    """
    t = np.asarray(indices, dtype=int)
    n = t.size
    order = np.argsort(t, kind="stable")  # K's blocks are sorted runs
    t = t[order]
    half = b.half_length
    if t[-1] - t[0] > half:
        raise LagOutOfRange(f"needed lag {t[-1] - t[0]} exceeds coefficient half-length {half}")
    u = min(b.degree, n - 1)
    rhs = a[order]
    # the band reads b at the lags 0..span, nonzero only up to b.degree
    real = (n >= ARRAY_MIN and not b.values[half: half + b.degree + 1].imag.any()
            and not rhs.imag.any())
    values, rhs = (b.values.real, rhs.real) if real else (b.values, rhs)
    # lower band ab[k, j] = B[j + k, j]; LAPACK reads no entry past row n - 1,
    # so clipping those rows into range only fills the unread corner
    rows = np.minimum(np.arange(u + 1)[:, None] + np.arange(n), n - 1)
    ab = values[t[rows] - t + half]
    # the routine scipy.linalg.solveh_banded would pick
    if u == 1:
        _, _, c_sorted, info = (_DPTSV if real else _PTSV)(ab[0].real, ab[1, :-1], rhs)
    else:
        _, c_sorted, info = (_DPBSV if real else _PBSV)(ab, rhs, lower=1)
    if info > 0:
        raise NotPositiveDefinite(
            f"coefficient matrix is not positive definite: {info}th leading minor "
            "not positive definite"
        )
    c = np.empty(n, dtype=complex)
    c[order] = c_sorted
    return c


@dataclass(frozen=True)
class InterpolationSolution:
    """Solved coefficients c and error delta for the density f, whose 1/f has
    the Fourier coefficients b (`inverse_fourier_coeffs` at the span of K).
    The spectral characteristic is derived from these fields on first access,
    on the grid of grid_size points as given, exact there for any span of K."""

    indices: tuple
    c: np.ndarray
    a: np.ndarray
    delta: float
    grid_size: int
    f: SpectralDensity
    b: FourierCoeffs
    convergence: dict = field(default_factory=dict)

    @cached_property
    def h_coeffs(self) -> dict:
        """h(j) = a(j) - sum_k c(k) b(j - k), one convolution, when 1/f has
        degree p (RationalAR, InversePolynomial): b holds all of it, and the
        lags [min K - p, max K + p] every nonzero h(j). For Tabulated, h(j)
        comes from one FFT of `h_grid` over the grid_size lags centred on K,
        kept from the first to the last above the rounding of C/f,
        2^-52 sum |c(k)| max(1/f); h on K, which vanishes to rounding, is
        read off the same FFT."""
        idx = np.asarray(self.indices)
        lo, hi = int(idx.min()), int(idx.max())
        if isinstance(self.f, (RationalAR, InversePolynomial)):
            half, p = self.b.half_length, self.b.degree
            c_spread = np.zeros(hi - lo + 1, dtype=complex)
            c_spread[idx - lo] = self.c
            conv = np.convolve(c_spread, self.b.values[half - p: half + p + 1])
            first = lo - p
            a_spread = np.zeros_like(conv)
            a_spread[idx - first] = self.a
            h = a_spread - conv
        else:  # e^{-ij lambda_g} = (-1)^j e^{-2 pi i j g / G} on the grid from -pi
            G = self.grid_size
            first = (lo + hi) // 2 - G // 2
            lags = np.arange(first, first + G)
            h = np.where(lags % 2, -1.0, 1.0) * np.fft.fft(self.h_grid)[lags % G] / G
            rounding = 2.0 ** -52 * np.abs(self.c).sum() * self.f.inverse_on_grid(G).max()
            kept = np.flatnonzero(np.abs(h) > rounding)
            if not kept.size:  # h = 0: zero weights
                return {}
            h, first = h[kept[0]: kept[-1] + 1], first + int(kept[0])
        return dict(zip(range(first, first + h.size), h.tolist()))

    @cached_property
    def a_grid(self) -> np.ndarray:
        """A = sum a(j) e^{ij lambda} on the angular grid of grid_size points."""
        return poly_on_grid(self.indices, self.a, self.grid_size)

    @cached_property
    def h_grid(self) -> np.ndarray:
        """h = A - C / f on the angular grid of grid_size points."""
        c_grid = poly_on_grid(self.indices, self.c, self.grid_size)
        return self.a_grid - c_grid / self.f.on_grid(self.grid_size)


def solve(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    f: SpectralDensity,
    grid_size: int = DEFAULT_GRID,
) -> InterpolationSolution:
    """Solve B c = a for the coefficients and the error."""
    blocks = pattern.blocks()
    return _solved(blocks, weights, f, inverse_fourier_coeffs(f, _span(blocks), grid_size),
                   grid_size)


def _solved(blocks, weights: FunctionalWeights, f: SpectralDensity, b: FourierCoeffs,
            grid_size: int, **convergence) -> InterpolationSolution:
    """The solution over the gap set of the blocks, with b holding 1/f at their span."""
    if grid_size < 1:  # a finite-degree 1/f needs no grid until h is asked for
        raise InvalidParameters(f"a grid needs at least one point, got {grid_size}")
    indices, k, a = _gap_set(blocks, weights)
    c = solve_gram(k, a, b)
    return InterpolationSolution(indices=indices, c=c, a=a, delta=error_value(c, a),
                                 grid_size=grid_size, f=f, b=b, convergence=convergence)


def _gap_set(blocks, weights: FunctionalWeights) -> tuple:
    """K in canonical order from the pattern's blocks, as the solution's tuple and
    as the int array the Gram solve reads, and the weights on K. This is the one
    place K's form is chosen: below ARRAY_MIN indices the array is one
    np.fromiter of the tuple, from ARRAY_MIN on one concatenation of the
    blocks' ranges. An explicit map is gathered on the tuple, by dict lookups
    (`on_gap_set`); a geometric profile reads the array."""
    indices = (*blocks[0], *blocks[1], *blocks[2])
    k = (np.fromiter(indices, int, count=len(indices)) if len(indices) < ARRAY_MIN
         else np.concatenate([np.arange(r.start, r.stop, r.step) for r in blocks]))
    return indices, k, weights.on_gap_set(indices if weights.geometric is None else k)


def _span(blocks) -> int:
    """max K - min K, the largest lag the Gram reads, from the pattern's blocks."""
    central, left, right = blocks
    return (right[-1] if right else central[-1]) - (left[-1] if left else 0)


def error_value(c: np.ndarray, a: np.ndarray) -> float:
    """Delta = <c, a> = sum_j c(j) conj(a(j)). B is Hermitian positive
    definite, so an imaginary part beyond rounding raises NotPositiveDefinite.
    A Delta that is not finite raises NonFiniteSolution; it is whenever some
    c(j) is (a 1/f near the float underflow overflows c), since a 0 * inf
    term is NaN, and when the sum overflows though every c(j) is finite (large
    weights), which its message then says."""
    inner = complex(np.vdot(a, c))
    if not cmath.isfinite(inner):
        bad = int(np.count_nonzero(~np.isfinite(c)))
        raise NonFiniteSolution(
            f"the error value is not finite ({bad} of {c.size} coefficients are not)" if bad
            else f"the error value overflowed, though all {c.size} coefficients are finite",
            diagnostics={"non_finite": bad, "unknowns": c.size})
    # the bound is at least 1e-10 |inner|, so the scale is read only past that
    if abs(inner.imag) > 1e-10 * abs(inner):
        scale = max(float(np.max(np.abs(a))) ** 2 * a.size, 1e-300)
        if abs(inner.imag) > 1e-10 * max(abs(inner), scale):
            raise NotPositiveDefinite(f"error inner product has imaginary part {inner.imag:.3e}")
    return inner.real  # a Python float: inner is a Python complex


def power_of_two(a: np.ndarray) -> float:
    """The largest power of two not above max|a| (1 for a = 0). Dividing a by it
    is exact and brings max|a| into [1, 2), so that the squares of a neither
    underflow (below about 1e-154) nor overflow."""
    top = float(np.max(np.abs(a)))
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if top > 0 else 1.0


def scaled_norm(a: np.ndarray) -> float:
    """||a||_2, taken on a / power_of_two(a), so that it does not underflow
    where the squares of a do; 0 for a = 0. The scaling is exact, so wherever
    np.linalg.norm(a) neither underflows nor overflows the two agree to the bit."""
    unit = power_of_two(a)
    return unit * float(np.linalg.norm(a / unit))


def mse_of_characteristic(
    h_grid: np.ndarray,
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    f: SpectralDensity,
) -> float:
    """Delta(h; f) = (1/2pi) int |A - h|^2 f dlambda for an arbitrary pair on the grid
    of h_grid, with f read there by on_grid as `solve` reads it."""
    grid_size = h_grid.size
    idx = missing_indices(pattern)
    a = weights.on_gap_set(idx)
    a_grid = poly_on_grid(idx, a, grid_size)
    return float(np.mean(np.abs(a_grid - h_grid) ** 2 * f.on_grid(grid_size)))


def solve_truncated(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    f: SpectralDensity,
    grid_size: int = DEFAULT_GRID,
) -> InterpolationSolution:
    """Solve an infinite-pattern problem (S1-S3), cut where the cut moves
    Delta by about TAIL_RTOL (max f / min f) relative, whatever the density:
    the solution `gapinterp interpolate` reports and `verify` and `simulate` check.

    Cutting the blocks at depth D moves Delta by <w, a_w - B_wK c> over the
    dropped tail w of the exact c, that is by about c(D) (a(D) + c(D))
    relative to max|c| max|a|, times a factor below
    (max f / min f) / (1 - radius^2). Both decay past the explicit weights
    like radius^s, radius = max(rho, |z|) over the roots z of 1/f inside the
    unit circle, so D starts at decay(TAIL_RTOL / 10, radius^2) past them (and
    at least q) and doubles until the shares of c and a at the q outermost
    indices of each block, c_D and a_D, satisfy c_D max(c_D, a_D) <= TAIL_RTOL;
    q = max(p, 1), or for Tabulated the gcd below.
    The cut solution's edge understates the exact c there by about
    1 - radius^2 (measured: Delta within 1.5e-15 of a solve at depth 20000
    for alpha = rho = 0.995, where that factor is 1e-2), which TAIL_RTOL,
    well below rounding, absorbs. Each depth is one banded Cholesky
    over the cut K, and h vanishes on K to rounding.

    Only the loop's inputs depend on the density. When 1/f has degree p
    (RationalAR, InversePolynomial), b is its whole exact expansion, the
    roots are those of 1/f, and h is exact on the `grid_size` points at any
    depth. Any other density (Tabulated) takes b from one grid quadrature
    at the lags up to grid_size / 4, cut to the span of each depth's K (the
    b `solve` takes there, bit for bit), has no roots (D starts from the
    weights' decay alone) and p = 0. Its q is the gcd of the lags m with
    |b(m)| > 1e-13 b(0): a 1/f on the multiples of q alone (the even lags,
    say) splits K into q systems by index mod q, each with its own outermost
    index. D doubles at most to one deepest depth, MAX_DEPTH, or for
    Tabulated the least of that and the depth whose span reaches
    grid_size / 4. That depth is solved once, and then NotConverged is raised
    with it and `grid_size` in its diagnostics; explicit weights deeper are
    refused (InvalidParameters). Each depth is built as `solve` builds its
    solution, with `convergence` {"depth": D}.
    """
    if not pattern.is_infinite:
        raise InvalidParameters("solve_truncated applies to infinite patterns only")
    sides = pattern.has_left + pattern.has_right
    if isinstance(f, (RationalAR, InversePolynomial)):
        # all of 1/f, of nominal degree p, read on no grid: an InversePolynomial's
        # 1/f was certified positive on the whole circle when it was built
        held = inverse_fourier_coeffs(f, 0)
        p, root, deepest = held.half_length, _slowest_root(f), MAX_DEPTH
        q = max(p, 1)
    else:  # 4 * span <= grid_size, span = N + M1 + M2 + sides * D over the held blocks
        # each depth's quadrature is a prefix of the same FFT
        p, root, held = 0, 0.0, inverse_fourier_coeffs(f, grid_size // 4, grid_size)
        fixed = (pattern.N + (pattern.M1 if pattern.has_left else 0)
                 + (pattern.M2 if pattern.has_right else 0))
        deepest = min(MAX_DEPTH, (grid_size // 4 - fixed) // sides)
        # a 1/f on the multiples of q alone splits each block into q systems,
        # each with its own outermost index
        mag = np.abs(held.values[held.half_length:])
        q = math.gcd(*np.flatnonzero(mag > 1e-13 * mag[0]).tolist()) or 1
    _, rho = weights.geometric or (0.0, 0.0)
    reach = weights.reach(pattern)
    if max(reach, 1) > deepest:
        raise InvalidParameters(f"the cut holds at most {deepest} indices per infinite block; "
                                f"the weights need {max(reach, 1)}")
    # a tenth of TAIL_RTOL leaves room for the constants of the slowest mode
    depth = max(reach, q) + _decay(0.1 * TAIL_RTOL, max(rho, root) ** 2)
    while True:
        depth = min(depth, deepest)
        blocks = pattern.with_truncation(depth).blocks()
        sol = _solved(blocks, weights, f, held.resized(max(_span(blocks), p)), grid_size,
                      depth=depth)
        # canonical order: central, then each held block with its outermost
        # q indices last
        ends = pattern.N + 1 + depth * np.arange(1, sides + 1)
        edge = (ends[:, None] - np.arange(1, min(q, depth) + 1)).ravel()
        c_edge, a_edge = _edge_share(sol.c, edge), _edge_share(sol.a, edge)
        if c_edge * max(c_edge, a_edge) <= TAIL_RTOL:
            return sol
        if depth == deepest:
            raise NotConverged(f"the cut has not converged at depth {depth}, the deepest it takes",
                               diagnostics={"depth": depth, "grid_size": grid_size})
        depth *= 2


def _slowest_root(f: SpectralDensity) -> float:
    """The largest modulus of a root of 1/f inside the unit circle; a start
    for the depth, which `solve_truncated` checks. For RationalAR these are
    the roots of the monic z^p - alpha_1 z^(p-1) - ... - alpha_p (or their
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


def _decay(level: float, radius: float) -> int | float:
    """Steps after which radius^s falls below level (1 for radius 0, inf for
    radius 1, which neither rho < 1 nor a validated root gives)."""
    if radius <= 0:
        return 1
    if radius >= 1:
        return math.inf
    return math.ceil(math.log(level) / math.log(radius))
