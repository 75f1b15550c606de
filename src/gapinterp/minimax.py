"""Least-favourable spectral densities and minimax-robust interpolation.

Three uncertainty classes for the unknown density f are supported, all
expressed through g = 1/f on the grid:

    D0Minus  mean(g) >= p,
    DW       fixed cosine moments (1/2pi) int g cos(n lambda) = b(n), n <= W,
    DVU      v <= f <= u pointwise and mean(g) = p.

For D0Minus an anchored closed form exists: with the anchor n* at the extreme
missing index (largest for left-sided and two-sided gaps, smallest for
right-sided ones), b0(n - n*) = b0(n* - n) = p a(n)/a(n*) for n in K and zero
elsewhere gives a stationary point of the error functional, with coefficient
vector c = (a(n*)/p) e_{n*} and error a(n*)^2 / p.

A caution that shapes the numerics here: the stationary point need not be the
global maximizer over D0Minus, because the constraint set {mean(1/f) >= p} is
not convex in f and the error functional can grow without bound along
directions where 1/f approaches zero on part of the circle. The closed form is
a KKT point; the saddle inequality Delta(h0; f) <= delta0 is guaranteed on the
sub-family 1/f = 1/f0 + (nonnegative trig polynomial), which is what
saddle_check samples. No numerical maximizer runs over D0Minus or DW: their
suprema on the grid are unbounded, so an ascent stops at a value set by the
grid and the floor on g. numerical_lf covers DVU only, whose bounds keep g in a
box; lf_dvu calls it wherever the closed form does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .densities import (
    DEFAULT_GRID,
    FourierCoeffs,
    InversePolynomial,
    SpectralDensity,
    Tabulated,
    angular_grid,
    check_positive,
    evaluate_trig_poly,
    factorize_inverse,
    grid_fourier_coefficients,
    minimality_value,
)
from .errors import (
    InfeasibleClass,
    InvalidParameters,
    MaskViolation,
    NewtonNotConverged,
    NotConverged,
    NotCovered,
    NotPositive,
    NotPositiveDefinite,
    PositivityLost,
    WeightsNotPositive,
)
from .interpolate import (
    InterpolationSolution,
    density_on_grid,
    poly_on_grid,
    solve,
    solve_gram,
)
from .patterns import (
    FunctionalWeights,
    ObservationPattern,
    missing_indices,
    weight_vector,
)

OPT_GRID = 512
PG_TOL = 1e-7
MAX_ITERS = 10000
_FLOOR = 1e-9
# sampled class members that saddle_check holds on the grid at once; its
# memory stays O(SADDLE_BLOCK * grid size) for any number of samples
SADDLE_BLOCK = 32


# ---------------------------------------------------------------------------
# uncertainty classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class D0Minus:
    """Densities with mean of 1/f at least p."""

    p: float

    def __post_init__(self):
        if self.p <= 0:
            raise InvalidParameters("p must be positive")


@dataclass(frozen=True)
class DW:
    """Densities whose 1/f has prescribed cosine moments b_given(0..W)."""

    b_given: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b_given, dtype=float))
        object.__setattr__(self, "b_given", b)
        if b.size < 1 or b[0] <= 0:
            raise InvalidParameters("moment sequence must start with b(0) > 0")
        # strict positivity of the sequence: the associated trig polynomial
        # must be positive on the grid
        vals = evaluate_trig_poly(self.inverse_poly().values, max(DEFAULT_GRID, 8 * b.size)).real
        if np.min(vals) <= 0:
            raise InvalidParameters("moment sequence is not strictly positive")

    @property
    def W(self) -> int:
        return self.b_given.size - 1

    def inverse_poly(self) -> FourierCoeffs:
        b = self.b_given
        return FourierCoeffs(np.concatenate([b[:0:-1], b]).astype(complex))


@dataclass(frozen=True)
class DVU:
    """Densities squeezed between v and u with mean of 1/f equal to p."""

    v: SpectralDensity
    u: SpectralDensity
    p: float

    def __post_init__(self):
        if self.p <= 0:
            raise InvalidParameters("p must be positive")

    def validate(self, grid_size: int = DEFAULT_GRID) -> tuple[np.ndarray, np.ndarray]:
        """The grid values (v, u) of the bounds, once checked: 0 < v <= u (a v that is zero
        somewhere raises InvalidParameters) and p within the range of mean(1/f)."""
        v = self.v.on_grid(grid_size)
        u = self.u.on_grid(grid_size)
        if not np.min(v) > 0:
            raise InvalidParameters(f"lower density must be positive, its minimum is {np.min(v):.3e}")
        if np.any(v > u * (1 + 1e-12)):
            raise InvalidParameters("lower density exceeds upper density")
        lo, hi = float(np.mean(1.0 / u)), float(np.mean(1.0 / v))
        if not (lo - 1e-12 <= self.p <= hi + 1e-12):
            raise InfeasibleClass(
                f"p={self.p} outside the attainable inverse-mean range [{lo:.6g}, {hi:.6g}]"
            )
        return v, u


@dataclass(frozen=True)
class LeastFavourableResult:
    f0: SpectralDensity
    b0: FourierCoeffs
    h0_grid: np.ndarray
    delta0: float
    validity: dict
    lagrange: dict
    solution: InterpolationSolution
    mechanism: str
    grid_size: int
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def anchor_index(pattern: ObservationPattern) -> int:
    """Extreme missing index at which the stationary coefficient vector
    concentrates: the largest for patterns with a left gap block, the
    smallest for purely right-sided ones."""
    idx = missing_indices(pattern)
    if pattern.kind in ("S2", "S5"):
        return min(idx)
    if pattern.kind in ("S1", "S4"):
        return max(i for i in idx if i <= pattern.N)  # = N
    if pattern.kind == "S6":
        return max(idx)
    raise NotCovered(f"no anchored closed form for pattern kind {pattern.kind}")


def _real_positive_weights(weights: FunctionalWeights, pattern: ObservationPattern) -> np.ndarray:
    a = weight_vector(weights, pattern)
    if np.max(np.abs(a.imag)) > 1e-14 * max(float(np.max(np.abs(a))), 1.0):
        raise WeightsNotPositive("closed form requires real weights")
    if np.min(a.real) <= 0:
        raise WeightsNotPositive("closed form requires strictly positive weights")
    return a.real


def _result_from_density(
    pattern, weights, f0, b0, validity, lagrange, mechanism, grid_size, diagnostics=None
):
    sol = solve(pattern, weights, f0, grid_size=grid_size)
    return LeastFavourableResult(
        f0=f0, b0=b0, h0_grid=sol.h_grid, delta0=sol.delta,
        validity=validity, lagrange=lagrange, solution=sol,
        mechanism=mechanism, grid_size=grid_size,
        diagnostics=diagnostics or {},
    )


# ---------------------------------------------------------------------------
# D0Minus closed form
# ---------------------------------------------------------------------------

def lf_d0minus(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    cls: D0Minus,
    grid_size: int = DEFAULT_GRID,
) -> LeastFavourableResult:
    """The anchored closed form (module docstring). Weights that are not real and positive
    raise WeightsNotPositive, and a form whose 1/f is not positive on the grid raises
    PositivityLost with the minimum of 1/f as diagnostics["inv_min"]."""
    if pattern.kind == "S3":
        raise NotCovered("two-sided infinite gaps have no anchored closed form")
    a = _real_positive_weights(weights, pattern)
    idx = missing_indices(pattern)
    anchor = anchor_index(pattern)
    a_anchor = float(a[idx.index(anchor)])
    b0 = FourierCoeffs.from_dict({sign * (anchor - n): cls.p * a_n / a_anchor
                                  for n, a_n in zip(idx, a) for sign in (1, -1)})

    inv_vals = b0.evaluate(grid_size)
    if not np.min(inv_vals) > _FLOOR * np.max(inv_vals):
        raise PositivityLost("the anchored closed form is not a valid density for these weights",
                             diagnostics={"inv_min": float(np.min(inv_vals))})
    # gamma of the one-sided factorization may live only on the anchor-relative lags of K
    allowed = {abs(anchor - n) for n in idx}
    mask = frozenset(n for n in range(b0.half_length + 1) if n not in allowed)
    try:
        factorize_inverse(b0, mask=mask, grid_size=grid_size)
        factorization_ok = True
    except (NotPositive, MaskViolation):
        factorization_ok = False

    validity = {"closed_form_applicable": True, "positivity_ok": True,
                "bounds_ok": True, "factorization_ok": factorization_ok}
    lagrange = {"alpha": a_anchor / cls.p, "anchor": anchor}
    f0 = InversePolynomial(b0)
    result = _result_from_density(
        pattern, weights, f0, b0, validity, lagrange, "closed_form", grid_size
    )
    expected = a_anchor ** 2 / cls.p
    if abs(result.delta0 - expected) > 1e-8 * max(expected, 1.0):
        raise NotConverged(
            "closed-form error value disagrees with the solved system",
            diagnostics={"delta_solved": result.delta0, "delta_formula": expected},
        )
    return result


# ---------------------------------------------------------------------------
# DW: moment-constrained class
# ---------------------------------------------------------------------------

def _dw_structure(pattern: ObservationPattern, W: int):
    """Split K for the moment-constrained class: the support of the stationary
    coefficient vector and the unknown coefficient lags of 1/f.

    The coefficient vector must concentrate on missing indices within W of
    the anchor (so that the squared coefficient polynomial has degree <= W),
    and the inverse density carries unknown coefficients at the missing-index
    magnitudes beyond W. Geometries whose system is singular for any weights
    are refused: a non-square system, an unknown lag that is no distance from
    a row outside the support to a support index (a zero column), and such a
    row none of whose distances to the support is an unknown lag (a zero row).
    Returns K, the support mask, the unknown lags and the distances from the
    rows outside the support to the support indices.
    """
    idx = np.asarray(missing_indices(pattern))
    on_support = np.abs(idx - anchor_index(pattern)) <= W
    k_abs = np.unique(np.abs(idx))
    unknown_lags = k_abs[k_abs > W]
    n_p = int(np.count_nonzero(on_support))
    if n_p + unknown_lags.size != idx.size:
        raise NotCovered(
            f"moment order W={W} leaves a non-square coefficient system "
            f"({n_p} + {unknown_lags.size} unknowns for {idx.size} equations) "
            "for this gap geometry"
        )
    dist = np.abs(np.subtract.outer(idx[~on_support], idx[on_support]))
    idle_lags = np.setdiff1d(unknown_lags, dist)
    idle_rows = idx[~on_support][~np.isin(dist, unknown_lags).any(axis=1)]
    if idle_lags.size or idle_rows.size:
        raise NotCovered(
            f"moment order W={W} leaves a coefficient system that is singular for any "
            f"weights (unknown lags in no equation: {idle_lags.tolist()}; equations "
            f"with no unknown lag, by index: {idle_rows.tolist()}) for this gap geometry"
        )
    return idx, on_support, unknown_lags, dist


def lf_dW(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    cls: DW,
    grid_size: int = DEFAULT_GRID,
) -> LeastFavourableResult:
    """Least favourable density of DW for S4-S6: the coefficient vector c on the
    missing indices within W of the anchor, and the unknown lags x of 1/f beyond W
    (_dw_structure), that solve B(x) c = a.

    The system is block-triangular, so two linear solves give it exactly. The
    anchor is the extreme missing index on its side, so two support indices are
    at most W apart: the support rows hold given moments only, and c solves them
    alone. The other rows are then linear in x, each unknown lag l weighted by
    the sum of c over the support indices at distance l from the row. W >= span
    is the same solve with no unknown lags (mechanism `degenerate`: the error is
    the same for every member of the class); otherwise the mechanism is `newton`.
    lagrange["newton_residual"] is max|B c - a| / max|a|; a singular block or a
    residual above 1e-10 raises NewtonNotConverged, and a 1/f that is not
    positive on the grid raises PositivityLost."""
    if pattern.kind not in ("S4", "S5", "S6"):
        raise NotCovered("moment-constrained analysis is implemented for finite gap patterns")
    if pattern.kind in ("S4", "S6") and pattern.M1 < pattern.N:
        raise NotCovered("analysis requires the left gap offset M1 >= N")
    if pattern.kind == "S6" and pattern.N + pattern.M2 < pattern.M1 + pattern.N1:
        raise NotCovered("analysis requires N + M2 >= M1 + N1")
    a_vec = weight_vector(weights, pattern)
    if np.max(np.abs(a_vec.imag)) > 1e-14 * max(float(np.max(np.abs(a_vec))), 1.0):
        raise NotCovered("moment-constrained solver handles real weights only")
    a = a_vec.real

    W = cls.W
    idx, on, unknown_lags, dist = _dw_structure(pattern, W)
    span = int(idx.max() - idx.min())
    half = max(span, W)
    vals = np.zeros(2 * half + 1)  # b0(-half..half): given moments, zero elsewhere
    m = np.arange(-W, W + 1)
    vals[m + half] = cls.b_given[np.abs(m)]
    lags = np.subtract.outer(idx, idx) + half
    B = vals[lags]
    # hits[u, l]: the sum of c over the support indices at distance l from row u
    hits = np.zeros((dist.shape[0], half + 1))
    try:
        c = np.linalg.solve(B[np.ix_(on, on)], a[on])
        np.add.at(hits, (np.arange(dist.shape[0])[:, None], dist), c)
        x = np.linalg.solve(hits[:, unknown_lags], a[~on] - B[np.ix_(~on, on)] @ c)
    except np.linalg.LinAlgError as exc:
        raise NewtonNotConverged("singular coefficient system") from exc
    vals[half + unknown_lags] = vals[half - unknown_lags] = x
    # relative to the largest weight, so that the test does not depend on the scale of a
    scale = max(float(np.max(np.abs(a))), np.finfo(float).tiny)
    residual = float(np.max(np.abs(vals[lags[:, on]] @ c - a))) / scale
    if not residual <= 1e-10:
        raise NewtonNotConverged(f"coefficient system residual {residual:.3e} above 1e-10",
                                 diagnostics={"residual": residual})

    b0 = FourierCoeffs(vals.astype(complex))
    inv_vals = b0.evaluate(grid_size)
    if np.min(inv_vals) <= _FLOOR * np.max(inv_vals):
        raise PositivityLost(
            f"solved inverse density dips to {np.min(inv_vals):.3e}; the structured "
            "stationary point is not a valid density for these inputs"
        )
    degenerate = W >= span
    validity = {"closed_form_applicable": True, "positivity_ok": True,
                "bounds_ok": True, "degenerate": degenerate}
    lagrange = {"p": dict(zip(idx[on].tolist(), c.tolist())),
                "solved_lags": dict(zip(unknown_lags.tolist(), x.tolist())),
                "newton_residual": residual}
    return _result_from_density(pattern, weights, InversePolynomial(b0), b0, validity, lagrange,
                                "degenerate" if degenerate else "newton", grid_size)


# ---------------------------------------------------------------------------
# DVU: banded class
# ---------------------------------------------------------------------------

def lf_dvu(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    cls: DVU,
    grid_size: int = DEFAULT_GRID,
) -> LeastFavourableResult:
    v, u = cls.validate(grid_size)

    if np.max(np.abs(u - v)) <= 1e-12 * np.max(u):  # pinned: the class holds v alone
        f_star = cls.v
        if abs(minimality_value(f_star, grid_size) - cls.p) > 1e-8 * cls.p:
            raise InfeasibleClass("pinned class does not meet the inverse-mean constraint")
        b0 = FourierCoeffs(
            grid_fourier_coefficients(f_star.inverse_on_grid(grid_size), min(256, grid_size // 4))
        )
        validity = {"closed_form_applicable": True, "positivity_ok": True,
                    "bounds_ok": True, "pinned": True}
        return _result_from_density(
            pattern, weights, f_star, b0, validity, {}, "pinned", grid_size
        )

    try:
        base = lf_d0minus(pattern, weights, D0Minus(p=cls.p), grid_size=grid_size)
        f0_vals = base.f0.on_grid(grid_size)
        tol = 1e-12 * float(np.max(u))
        if np.all(f0_vals >= v - tol) and np.all(f0_vals <= u + tol):
            return replace(base, lagrange={**base.lagrange, "lower_active": [], "upper_active": []})
    except (WeightsNotPositive, PositivityLost):  # no closed form for these weights
        pass
    return numerical_lf(pattern, weights, cls)


# ---------------------------------------------------------------------------
# numerical maximizer
# ---------------------------------------------------------------------------

def _shift_clip(g: np.ndarray, lo, hi, p: float) -> np.ndarray:
    """clip(g + s, lo, hi) for the shift s that gives it mean p; lo <= hi,
    both finite, and mean(lo) <= p <= mean(hi).

    sum clip(g + s, lo, hi) is nondecreasing and piecewise linear in s, with
    slope the number of entries strictly inside (lo, hi). A Newton step
    s + (p G - sum) / n_free lands on the root of the piece it starts from,
    so the root is exact once a step keeps the active set (Cominetti,
    Mascarenhas & Silva 2014); a step from a flat piece, or out of the
    bracket of the root, bisects instead.
    """
    target = p * g.size
    dlo = lo - g
    # the sum is sum(lo) <= target at the left end and >= target at the right
    left = float(np.minimum.reduce(dlo))
    right = (float(np.maximum.reduce(dlo)) + target
             - float(np.add.reduce(np.broadcast_to(lo, g.shape))))
    left, right = left - 1e-15 * abs(left), right + 1e-15 * abs(right)
    s = min(max(p - float(np.add.reduce(g)) / g.size, left), right)
    x = np.empty_like(g)
    newton_from = None
    for _ in range(200):
        np.add(g, s, out=x)
        above, below = x > lo, x < hi
        np.minimum(np.maximum(x, lo, out=x), hi, out=x)
        r = target - float(np.add.reduce(x))
        counts = (np.count_nonzero(above), np.count_nonzero(below))
        # membership moves one way with s, so equal counts mean the Newton
        # step stayed on its piece
        if r == 0.0 or counts == newton_from:
            return x
        left, right = (s, right) if r > 0 else (left, s)
        n_free = np.count_nonzero(np.logical_and(above, below, out=above))
        step = s + r / n_free if n_free else left
        newton_from = counts if left < step < right else None
        s = step if newton_from is not None else 0.5 * (left + right)
        if not left < s < right:  # the bracket holds no float between its ends
            return x
    raise NotConverged("shift-clip projection did not converge", diagnostics={"shift": s})


def _project_dw(g: np.ndarray, moment_rows: np.ndarray, b_given: np.ndarray,
                floor: float) -> np.ndarray:
    """Alternate the least-squares fit of rows @ g = b_given with the floor, at most 50
    times, for each row of g (a 1-D g is one row). A row leaves the loop at the first fit
    whose minimum is at least floor; the rows still below it are clipped and fitted again.
    The rows cos(n lambda)/G, n = 0..W, are orthogonal when 2W < G, with squared norms
    1/G (n = 0) and 1/(2G), so the fit needs no Gram solve. Every caller first evaluates
    the moment polynomial on the same grid, which refuses 2W >= G."""
    out = np.array(g, dtype=float, ndmin=2)
    inv_norms = out.shape[-1] * np.minimum(np.arange(1, b_given.size + 1), 2.0)
    todo, rows = np.arange(out.shape[0]), out  # rows: the rows of out still fitted
    for _ in range(50):
        rows -= (inv_norms * (rows @ moment_rows.T - b_given)) @ moment_rows
        low = np.min(rows, axis=-1) < floor
        if rows is not out:
            out[todo] = rows
        if not np.any(low):
            break
        todo, rows = todo[low], np.maximum(rows[low], floor)
    else:
        out[todo] = rows
    return out.reshape(np.shape(g))


def numerical_lf(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    cls: DVU,
) -> LeastFavourableResult:
    """Maximize the interpolation error over DVU by projected gradient ascent
    on the grid values of g = 1/f, on max(OPT_GRID, 4 span) points, until the
    projected step is below PG_TOL mean(g) or for at most MAX_ITERS steps.

    The error Delta(g) = <B(g)^{-1} a, a> has gradient -|C(lambda_j)|^2 / G
    with respect to g_j, where C carries the solved coefficients. Each step
    is projected back onto the class by the exact shift and clip of
    _shift_clip, and the ascent starts at the projected midpoint of the box
    [1/u, 1/v]. Any other class raises NotCovered: the suprema over D0Minus
    and DW are unbounded on the grid, and their closed forms are lf_d0minus
    and lf_dW. The result lists in lagrange the grid points where f0 is
    within 1e-6 max(u) of v (lower_active) or of u (upper_active).
    """
    if not isinstance(cls, DVU):
        raise NotCovered(f"numerical_lf maximizes over DVU only, not {type(cls).__name__}")
    idx = missing_indices(pattern)
    a = weight_vector(weights, pattern)
    span = (max(idx) - min(idx)) if idx else 0
    G = max(OPT_GRID, 4 * span)
    v, u = cls.validate(G)
    lo, hi = 1.0 / u, 1.0 / v
    g = _shift_clip(0.5 * (lo + hi), lo, hi, cls.p)

    exps = np.exp(1j * np.outer(idx, angular_grid(G)))  # C(lambda) = c @ exps

    def objective(gv):
        b = FourierCoeffs(grid_fourier_coefficients(gv, span))
        c = solve_gram(idx, a, b)
        delta = float(np.real(np.sum(c * np.conj(a))))
        grad = -np.abs(c @ exps) ** 2 / G
        return delta, grad

    delta, grad = objective(g)
    step = 0.1 * max(np.mean(g), 1e-6) / max(float(np.max(np.abs(grad))), 1e-300)
    scale = max(float(np.mean(g)), 1e-12)
    for it in range(1, MAX_ITERS + 1):
        g_trial = _shift_clip(g + step * grad, lo, hi, cls.p)
        pg_norm = float(np.max(np.abs(g_trial - g))) / max(step, 1e-300)
        if pg_norm * step < PG_TOL * scale:
            break
        delta_trial, grad_trial = objective(g_trial)
        if delta_trial >= delta - 1e-14 * max(abs(delta), 1.0):
            g, delta, grad = g_trial, delta_trial, grad_trial
            step *= 1.2
        else:
            step *= 0.5
            if step < 1e-16 * scale:
                break

    converged = pg_norm * step < PG_TOL * scale
    diagnostics = {"iterations": it, "projected_gradient": pg_norm * step / scale,
                   "converged": bool(converged)}
    if not converged:
        raise NotConverged("projected gradient ascent did not converge", diagnostics=diagnostics)

    f0 = Tabulated(1.0 / g)
    rtol = 1e-6 * float(np.max(u))
    lagrange = {"lower_active": np.flatnonzero(f0.values <= v + rtol).tolist(),
                "upper_active": np.flatnonzero(f0.values >= u - rtol).tolist()}
    half = min(span + 64, G // 2 - 1)
    b0 = FourierCoeffs(grid_fourier_coefficients(g, half))
    validity = {"closed_form_applicable": False, "positivity_ok": True,
                "bounds_ok": True, "degenerate": False}
    return _result_from_density(pattern, weights, f0, b0, validity, lagrange,
                                "numerical", G, diagnostics)


# ---------------------------------------------------------------------------
# sampling and saddle verification
# ---------------------------------------------------------------------------

def _member_sampler(cls, result: LeastFavourableResult, grid_size: int, max_lag: int):
    """Return draw(rng, rows), which gives the next `rows` random class members as
    (g, b): g = 1/f of each member as a row of a (rows, grid_size) array, and b the grid
    Fourier coefficients of g at lags -max_lag..max_lag, one row per member, or None
    where only an FFT of g gives them. Everything that does not depend on the draws is
    computed here, once per sampler.

    For D0Minus the draw stays in the sub-family 1/f = 1/f0 + s |P|^2 with
    deg P <= 5, on which the saddle inequality is guaranteed; the class as a
    whole is non-convex and contains members with larger error against the
    robust characteristic. Each member's degree, coefficients and amplitude
    are drawn in turn. |P|^2 is then known by its coefficients r(m), |m| <= 5:
    its grid values come from one real (rows, 11) @ (11, G) product against the
    table [1, 2 cos m lambda, 2 sin m lambda], and its grid coefficients are r
    summed over the lags congruent mod G with the sign (-1)^(k - m) of the grid
    starting at -pi, which keeps them exact on any grid. s sets mean(s |P|^2)
    to the drawn fraction of mean(1/f0), and b = b0 + s r, with b0 of the result
    taken as the coefficients of 1/f0, as every least-favourable function
    returns it.

    DW members are one block of normal draws (the numbers of row-by-row
    draws), made even in lambda and projected together by _project_dw; the
    amplitude is halved only for the rows whose projection dips below a tenth
    of the least moment polynomial value. DVU members are one uniform block,
    shifted and clipped row by row.
    """
    G = grid_size
    lam = angular_grid(G)
    if isinstance(cls, D0Minus):
        base = result.f0.inverse_on_grid(G)
        base_mean = np.mean(base)
        waves = np.arange(1, 6)[:, None] * lam
        table = np.concatenate((np.ones((1, G)), 2.0 * np.cos(waves), 2.0 * np.sin(waves)))
        # fold[m + 5, k] = (-1)^(k - m) where k = m (mod G), for k = 0..max_lag
        m = np.arange(-5, 6)[:, None]
        diff = np.arange(max_lag + 1) - m
        fold = np.where(diff % G == 0, np.where(diff % 2 == 0, 1.0, -1.0), 0.0)
        b0 = result.b0.resized(max_lag).values

        def draw(rng, rows):
            coeffs = np.zeros((rows, 6), dtype=complex)
            amp = np.empty(rows)
            for k in range(rows):
                deg = rng.integers(1, 6)
                coeffs[k, : deg + 1] = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
                amp[k] = rng.uniform(0.0, 1.0)
            # r(m) = sum_k p_k conj(p_{k+m}), the coefficient of e^{im lambda} in |P|^2
            r = np.stack([np.sum(coeffs[:, : 6 - n] * np.conj(coeffs[:, n:]), axis=-1)
                          for n in range(6)], axis=-1)
            right = np.concatenate((np.conj(r[:, :0:-1]), r), axis=-1) @ fold
            scale = amp * base_mean / np.maximum(right[:, 0].real, 1e-300)
            bump = np.concatenate((r.real, -r[:, 1:].imag), axis=-1) @ table
            b = np.concatenate((np.conj(right[:, :0:-1]), right), axis=-1)
            return base + scale[:, None] * bump, b0 + scale[:, None] * b

        return draw
    if isinstance(cls, DW):
        moment_rows = np.stack([np.cos(n * lam) / G for n in range(cls.W + 1)])
        g = cls.inverse_poly().evaluate(G)
        base_min = float(np.min(g))

        def draw(rng, rows):
            direction = rng.standard_normal(size=(rows, G))  # the numbers of rng.normal
            # keep the draw an even function of lambda: the class pins cosine
            # moments only, and the degeneracy statements live in the even family
            half = (G + 1) // 2
            even = 0.5 * (direction[:, 1:half] + direction[:, : G - half: -1])
            direction[:, 1:half] = even
            direction[:, : G - half: -1] = even
            top = np.maximum(np.max(direction, axis=-1), -np.min(direction, axis=-1))
            direction /= np.maximum(top, 1e-300)[:, None]
            amp = 0.5 * base_min
            out = _project_dw(g + amp * direction, moment_rows, cls.b_given, _FLOOR)
            todo = np.flatnonzero(np.min(out, axis=-1) < 0.1 * base_min)
            while todo.size:  # halve the amplitude of the rows that dip
                amp *= 0.5
                if amp <= 1e-6 * base_min:
                    out[todo] = g
                    break
                trial = _project_dw(g + amp * direction[todo], moment_rows, cls.b_given, _FLOOR)
                kept = np.min(trial, axis=-1) >= 0.1 * base_min
                out[todo[kept]] = trial[kept]
                todo = todo[~kept]
            return out, None

        return draw
    if isinstance(cls, DVU):
        lo = 1.0 / cls.u.on_grid(G)
        hi = 1.0 / cls.v.on_grid(G)
        return lambda rng, rows: (np.stack([_shift_clip(g, lo, hi, cls.p)
                                            for g in rng.uniform(lo, hi, size=(rows, G))]), None)
    raise InvalidParameters(f"unsupported class {type(cls).__name__}")


def sample_density(cls, result: LeastFavourableResult, rng: np.random.Generator,
                   grid_size: int | None = None) -> SpectralDensity:
    """Draw a random class member on grid_size points (by default the result's grid):
    the member that saddle_check draws next from the same rng (see _member_sampler)."""
    G = result.grid_size if grid_size is None else grid_size
    g, _ = _member_sampler(cls, result, G, 0)(rng, 1)
    return Tabulated(1.0 / g[0])


def _perturbed_errors(e: np.ndarray, f_grid: np.ndarray, lags: np.ndarray,
                      coeffs: np.ndarray) -> np.ndarray:
    """Delta(h0 + dh; f) = mean(|e - dh|^2 f), e = A - h0 on the grid of f, for each row
    dh = sum_j coeffs[:, j] e^{i lags[:, j] lambda}, as a quadratic form in the
    coefficients: mean(|e|^2 f) - 2 Re sum_j c_j Q(-j) + sum_{j,k} c_j conj(c_k) F(k - j),
    with Q and F the grid Fourier coefficients of conj(e) f and of f. They come from
    one FFT each, at lags taken mod G, so the form is exact on every grid."""
    G = f_grid.size
    spectra = np.fft.fft(np.stack((np.conj(e) * f_grid, f_grid)), axis=-1) / G

    def at(spectrum, m):  # e^{i m pi} from the grid starting at -pi
        return np.where(m % 2 == 0, 1.0, -1.0) * spectrum[m % G]

    linear = np.sum(coeffs * at(spectra[0], -lags), axis=-1).real
    quad = np.einsum("ra,rab,rb->r", coeffs, at(spectra[1], lags[:, None, :] - lags[:, :, None]),
                     np.conj(coeffs)).real
    return np.mean((e.real ** 2 + e.imag ** 2) * f_grid) - 2.0 * linear + quad


def _gram_errors(indices, a: np.ndarray, b: np.ndarray, grid_size: int) -> np.ndarray:
    """Delta = a^H B^{-1} a, the error of solve_gram, for every row of
    coefficients b (rows, 2L + 1), B[u, v] = b(t_u - t_v): one stacked
    Cholesky B = L L^H and one stacked solve of L y = a give Delta = |y|^2.
    The stack is cut into chunks of at most SADDLE_BLOCK * grid_size matrix
    entries, the memory bound of saddle_check. A failed factorization raises
    NotPositiveDefinite."""
    t = np.asarray(indices)
    lags = np.subtract.outer(t, t) + (b.shape[-1] - 1) // 2
    step = max(1, SADDLE_BLOCK * grid_size // t.size ** 2)
    out = np.empty(b.shape[0])
    for k in range(0, b.shape[0], step):
        try:
            chol = np.linalg.cholesky(b[k: k + step, lags])
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(f"coefficient matrix is not positive definite: {exc}") from exc
        y = np.linalg.solve(chol, a[:, None])[..., 0]
        out[k: k + step] = np.sum(y.real ** 2 + y.imag ** 2, axis=-1)
    return out


def saddle_check(
    result: LeastFavourableResult,
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    cls,
    n_samples: int = 100,
    seed: int = 0,
) -> dict:
    """Numerically probe the saddle inequalities around (h0, f0).

    Reports, over n_samples random class members f: how often
    Delta(h0; f) <= delta0 (robustness of the characteristic, checked on the
    guaranteed sub-family for D0Minus), how often the classical error under f
    stays below delta0 (least-favourability), and whether perturbing h0 in
    admissible directions can only increase the error under f0.

    The members are drawn first, SADDLE_BLOCK at a time, as rows of g = 1/f
    on the grid (the same draws as sample_density from the same rng). Each
    block is then checked together: Delta(h0; f) for every row is one
    weighted row mean of f against |A - h0|^2, the coefficients b of every g
    are those _member_sampler gives (D0Minus) or come from one real FFT along
    the rows (DW, DVU), and the classical errors from one stacked Cholesky
    solve (_gram_errors). Each perturbation dh of h0 has min(5, #observed)
    random coefficients at observed lags j, |j| <= max|K| + 10 (at most the
    degree the grid resolves), scaled to rms 0.1 ||a|| (by Parseval, the root
    of the sum of their squared moduli); its error under f0 is the quadratic
    form of _perturbed_errors in those coefficients, with no grid pass per
    perturbation. n_samples < 1 or seed < 0 raises InvalidParameters.
    """
    if n_samples < 1:
        raise InvalidParameters(f"saddle check needs at least one sample, got {n_samples}")
    if seed < 0:
        raise InvalidParameters(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    G = result.grid_size
    delta0 = result.delta0
    tol = 1e-8 * max(delta0, 1.0)
    idx = missing_indices(pattern)
    a = weight_vector(weights, pattern)
    e = poly_on_grid(idx, a, G) - result.h0_grid
    upper_weight = np.abs(e) ** 2
    span = max(max(idx) - min(idx), 1)
    if 4 * span > G:
        # the quadrature guard of inverse_fourier_coeffs for tabulated densities
        raise InvalidParameters(f"grid of {G} points is too coarse for gap span {span}")

    draw = _member_sampler(cls, result, G, span)
    excess = np.empty(n_samples)
    deltas = np.empty(n_samples)
    for start in range(0, n_samples, SADDLE_BLOCK):
        stop = min(start + SADDLE_BLOCK, n_samples)
        g, b = draw(rng, stop - start)
        f = 1.0 / g
        if np.min(f) < 0:
            raise InvalidParameters("tabulated density has negative values")
        check_positive(f)
        excess[start:stop] = np.mean(upper_weight * f, axis=-1) - delta0
        if b is None:
            b = grid_fourier_coefficients(g, span)
        deltas[start:stop] = _gram_errors(idx, a, b, G)

    reach = min(max(abs(min(idx)), abs(max(idx))) + 10, (G - 1) // 2)
    lags = np.arange(-reach, reach + 1)
    observed = lags[~np.isin(lags, idx)]
    n_pert = min(n_samples, 50)
    n_pick = min(5, observed.size)
    picks = np.empty((n_pert, n_pick), dtype=int)
    coeffs = np.empty((n_pert, n_pick), dtype=complex)
    for k in range(n_pert):
        picks[k] = rng.choice(observed, size=n_pick, replace=False)
        coeffs[k] = rng.normal(size=2 * n_pick).view(complex)  # (re, im) pairs
    scale = np.sqrt(float(np.sum(np.abs(a) ** 2)))
    rms = np.sqrt(np.sum(coeffs.real ** 2 + coeffs.imag ** 2, axis=-1, keepdims=True))
    coeffs *= 0.1 * scale / np.maximum(rms, 1e-300)
    vals = _perturbed_errors(e, density_on_grid(result.f0, G), picks, coeffs)

    upper_pass = int(np.count_nonzero(excess <= tol))
    lower_pass = int(np.count_nonzero(vals >= delta0 - 1e-10 * max(delta0, 1.0)))
    return {
        "n_samples": n_samples,
        "upper_pass": upper_pass,
        "dominance_pass": int(np.count_nonzero(deltas <= delta0 + tol)),
        "lower_pass": lower_pass,
        "n_perturbations": n_pert,
        "worst_upper_excess": float(np.max(excess)),
        "all_pass": upper_pass == n_samples and lower_pass == n_pert,
    }
