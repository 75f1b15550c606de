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
saddle_check samples, and the numerical maximizer warm-starts at the closed
form, where the projected gradient vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .densities import (
    DEFAULT_GRID,
    Factorization,
    FourierCoeffs,
    InversePolynomial,
    SpectralDensity,
    Tabulated,
    angular_grid,
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
    NonPositiveDensity,
    NotConverged,
    NotCovered,
    NotPositive,
    PositivityLost,
    WeightsNotPositive,
)
from .interpolate import (
    InterpolationSolution,
    mse_of_characteristic,
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
        coeffs = np.concatenate([b[:0:-1], b])
        vals = evaluate_trig_poly(coeffs.astype(complex), max(DEFAULT_GRID, 8 * b.size)).real
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

    def validate(self, grid_size: int = DEFAULT_GRID) -> None:
        v = self.v.on_grid(grid_size)
        u = self.u.on_grid(grid_size)
        if np.any(v > u * (1 + 1e-12)):
            raise InvalidParameters("lower density exceeds upper density")
        lo, hi = float(np.mean(1.0 / u)), float(np.mean(1.0 / v))
        if not (lo - 1e-12 <= self.p <= hi + 1e-12):
            raise InfeasibleClass(
                f"p={self.p} outside the attainable inverse-mean range [{lo:.6g}, {hi:.6g}]"
            )

    def is_pinned(self, grid_size: int = DEFAULT_GRID) -> bool:
        v = self.v.on_grid(grid_size)
        u = self.u.on_grid(grid_size)
        return bool(np.max(np.abs(u - v)) <= 1e-12 * np.max(u))


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


def _closed_form_b0(pattern: ObservationPattern, a: np.ndarray, p: float) -> FourierCoeffs:
    idx = missing_indices(pattern)
    anchor = anchor_index(pattern)
    a_anchor = a[idx.index(anchor)]
    entries: dict[int, complex] = {}
    for n, a_n in zip(idx, a):
        lag = anchor - n
        entries[lag] = p * a_n / a_anchor
        entries[-lag] = p * a_n / a_anchor
    return FourierCoeffs.from_dict(entries)


def _gamma_mask(pattern: ObservationPattern, b0: FourierCoeffs) -> frozenset:
    """Indices of the one-sided factorization forced to zero by the gap
    structure: gamma may live only on the anchor-relative lags of K."""
    idx = missing_indices(pattern)
    anchor = anchor_index(pattern)
    allowed = {abs(anchor - n) for n in idx}
    return frozenset(n for n in range(b0.half_length + 1) if n not in allowed)


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
    if pattern.kind == "S3":
        raise NotCovered("two-sided infinite gaps have no anchored closed form; use numerical_lf")
    a = _real_positive_weights(weights, pattern)
    idx = missing_indices(pattern)
    anchor = anchor_index(pattern)
    a_anchor = float(a[idx.index(anchor)])
    b0 = _closed_form_b0(pattern, a, cls.p)

    inv_vals = b0.evaluate(grid_size).real
    positivity_ok = bool(np.min(inv_vals) > _FLOOR * np.max(inv_vals))

    factorization_ok = False
    if positivity_ok:
        try:
            factorize_inverse(b0, mask=_gamma_mask(pattern, b0), grid_size=grid_size)
            factorization_ok = True
        except (NotPositive, MaskViolation):
            pass

    validity = {
        "closed_form_applicable": positivity_ok,
        "positivity_ok": positivity_ok,
        "bounds_ok": True,
        "factorization_ok": factorization_ok,
    }
    lagrange = {"alpha": a_anchor / cls.p, "anchor": anchor}
    if not positivity_ok:
        # diagnostic result: the constructed trig polynomial is not a valid
        # inverse density, so no error value or characteristic is attached
        return LeastFavourableResult(
            f0=None, b0=b0, h0_grid=None,
            delta0=float("nan"), validity=validity, lagrange=lagrange,
            solution=None, mechanism="closed_form_invalid", grid_size=grid_size,
            diagnostics={"inv_min": float(np.min(inv_vals))},
        )

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
    """Support of the stationary coefficient vector and the unknown
    coefficient lags for the moment-constrained class.

    The coefficient vector must concentrate on missing indices within W of
    the anchor (so that the squared coefficient polynomial has degree <= W),
    and the inverse density carries unknown coefficients at the missing-index
    magnitudes beyond W. The construction yields a square system only for
    part of the parameter range; outside it we refuse rather than guess.
    """
    idx = missing_indices(pattern)
    anchor = anchor_index(pattern)
    support = [n for n in idx if abs(n - anchor) <= W]
    k_abs = sorted({abs(n) for n in idx})
    unknown_lags = [l for l in k_abs if l > W]
    if len(support) + len(unknown_lags) != len(idx):
        raise NotCovered(
            f"moment order W={W} leaves a non-square coefficient system "
            f"({len(support)} + {len(unknown_lags)} unknowns for {len(idx)} equations) "
            "for this gap geometry"
        )
    return idx, anchor, support, unknown_lags


def _dw_b0_coeffs(b_given: np.ndarray, unknown_lags, x: np.ndarray, half: int) -> np.ndarray:
    """Full coefficient array b0(-half..half): given moments up to W, solved
    values at the unknown lags, zero elsewhere."""
    W = b_given.size - 1
    vals = np.zeros(2 * half + 1)
    for m in range(-min(W, half), min(W, half) + 1):
        vals[m + half] = b_given[abs(m)]
    for l, xv in zip(unknown_lags, x):
        if l <= half:
            vals[l + half] = xv
            vals[-l + half] = xv
    return vals


def lf_dW(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    cls: DW,
    grid_size: int = DEFAULT_GRID,
    max_newton: int = 200,
) -> LeastFavourableResult:
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

    idx = missing_indices(pattern)
    W = cls.W
    span = max(idx) - min(idx)
    lagrange: dict = {}

    if W >= span:
        # every needed coefficient lag is pinned by the moment constraints,
        # so the error is constant over the class
        b0 = cls.inverse_poly()
        vals = b0.evaluate(grid_size).real
        if np.min(vals) <= _FLOOR * np.max(vals):
            raise PositivityLost("given moments define a non-positive inverse density")
        f0 = InversePolynomial(b0)
        validity = {
            "closed_form_applicable": True,
            "positivity_ok": True,
            "bounds_ok": True,
            "degenerate": True,
        }
        return _result_from_density(
            pattern, weights, f0, b0, validity, lagrange, "degenerate", grid_size
        )

    idx, anchor, support, unknown_lags = _dw_structure(pattern, W)
    n_idx = len(idx)
    n_p = len(support)
    n_x = len(unknown_lags)
    half = span
    pos = {n: k for k, n in enumerate(idx)}
    support_slots = [pos[n] for n in support]

    def assemble(x):
        vals = _dw_b0_coeffs(cls.b_given, unknown_lags, x, half)
        lagmat = np.subtract.outer(idx, idx)
        return vals[lagmat + half]

    def residual(p_vec, x):
        B = assemble(x)
        c = np.zeros(n_idx)
        c[support_slots] = p_vec
        return B @ c - a, B, c

    # initial guess: coefficients from the leading block (whose lags are all
    # known), unknown high-lag coefficients at zero
    B_init = assemble(np.zeros(n_x))
    lead = np.ix_(support_slots, support_slots)
    p_vec = np.linalg.solve(B_init[lead], a[support_slots])
    x = np.zeros(n_x)

    res, B, c = residual(p_vec, x)
    best = float(np.linalg.norm(res))
    iters = 0
    while best > 1e-12 and iters < max_newton:
        iters += 1
        jac = np.zeros((n_idx, n_p + n_x))
        jac[:, :n_p] = B[:, support_slots]
        for col, l in enumerate(unknown_lags):
            for u in range(n_idx):
                acc = 0.0
                for slot, n in zip(support_slots, support):
                    if abs(idx[u] - n) == l:
                        acc += c[slot]
                jac[u, n_p + col] = acc
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise NewtonNotConverged(
                f"singular Jacobian at residual {best:.3e}",
                diagnostics={"residual": best, "iterations": iters},
            ) from exc
        damping = 1.0
        while damping > 1e-8:
            p_try = p_vec + damping * step[:n_p]
            x_try = x + damping * step[n_p:]
            res_try, B_try, c_try = residual(p_try, x_try)
            if np.linalg.norm(res_try) < best:
                p_vec, x, res, B, c = p_try, x_try, res_try, B_try, c_try
                best = float(np.linalg.norm(res))
                break
            damping *= 0.5
        else:
            break

    if best > 1e-10:
        raise NewtonNotConverged(
            f"coefficient system residual {best:.3e} above 1e-10",
            diagnostics={"residual": best, "iterations": iters},
        )

    b0 = FourierCoeffs(_dw_b0_coeffs(cls.b_given, unknown_lags, x, half).astype(complex))
    vals = b0.evaluate(grid_size).real
    if np.min(vals) <= _FLOOR * np.max(vals):
        raise PositivityLost(
            f"solved inverse density dips to {np.min(vals):.3e}; the structured "
            "stationary point is not a valid density for these inputs"
        )
    f0 = InversePolynomial(b0)
    validity = {
        "closed_form_applicable": True,
        "positivity_ok": True,
        "bounds_ok": True,
        "degenerate": False,
    }
    lagrange = {
        "p": dict(zip(support, p_vec.tolist())),
        "solved_lags": dict(zip(unknown_lags, x.tolist())),
        "newton_residual": best,
        "newton_iterations": iters,
    }
    return _result_from_density(
        pattern, weights, f0, b0, validity, lagrange, "newton", grid_size,
        diagnostics={"support": support, "unknown_lags": unknown_lags},
    )


# ---------------------------------------------------------------------------
# DVU: banded class
# ---------------------------------------------------------------------------

def lf_dvu(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    cls: DVU,
    grid_size: int = DEFAULT_GRID,
    seed: int = 0,
) -> LeastFavourableResult:
    cls.validate(grid_size)
    v = cls.v.on_grid(grid_size)
    u = cls.u.on_grid(grid_size)

    if cls.is_pinned(grid_size):
        f_star = cls.v
        if abs(minimality_value(f_star, grid_size) - cls.p) > 1e-8 * cls.p:
            raise InfeasibleClass("pinned class does not meet the inverse-mean constraint")
        b0 = FourierCoeffs(
            grid_fourier_coefficients(f_star.inverse_on_grid(grid_size), min(256, grid_size // 4))
        ).symmetrized()
        validity = {
            "closed_form_applicable": True, "positivity_ok": True,
            "bounds_ok": True, "pinned": True,
        }
        return _result_from_density(
            pattern, weights, f_star, b0, validity, {}, "pinned", grid_size
        )

    base = lf_d0minus(pattern, weights, D0Minus(p=cls.p), grid_size=grid_size)
    if base.validity["positivity_ok"]:
        f0_vals = base.f0.on_grid(grid_size)
        tol = 1e-12 * float(np.max(u))
        bounds_ok = bool(np.all(f0_vals >= v - tol) and np.all(f0_vals <= u + tol))
        if bounds_ok:
            return replace(base, lagrange={**base.lagrange, "lower_active": [], "upper_active": []})

    result = numerical_lf(pattern, weights, cls, seed=seed)
    f0_vals = result.f0.on_grid(result.grid_size)
    v_opt = cls.v.on_grid(result.grid_size)
    u_opt = cls.u.on_grid(result.grid_size)
    rtol = 1e-6 * float(np.max(u_opt))
    lagrange = dict(result.lagrange)
    lagrange["lower_active"] = np.flatnonzero(f0_vals <= v_opt + rtol).tolist()
    lagrange["upper_active"] = np.flatnonzero(f0_vals >= u_opt - rtol).tolist()
    return replace(result, lagrange=lagrange)


# ---------------------------------------------------------------------------
# numerical maximizer
# ---------------------------------------------------------------------------

def _project_d0minus(g: np.ndarray, p: float, floor: float) -> np.ndarray:
    # scipy.optimize is imported on first use, so that importing the package
    # does not load it for callers that never project
    from scipy.optimize import brentq

    g = np.maximum(g, floor)
    if np.mean(g) >= p:
        return g
    hi = p - np.min(g) + 1.0

    def gap(s):
        return np.mean(np.maximum(g + s, floor)) - p

    s = brentq(gap, 0.0, hi)
    return np.maximum(g + s, floor)


def _project_dvu(g: np.ndarray, lo: np.ndarray, hi: np.ndarray, p: float) -> np.ndarray:
    from scipy.optimize import brentq

    def gap(s):
        return np.mean(np.clip(g + s, lo, hi)) - p

    smin = float(np.min(lo - g)) - 1.0
    smax = float(np.max(hi - g)) + 1.0
    s = brentq(gap, smin, smax)
    return np.clip(g + s, lo, hi)


def _project_dw(g: np.ndarray, moment_rows: np.ndarray, b_given: np.ndarray,
                floor: float) -> np.ndarray:
    gram = moment_rows @ moment_rows.T
    for _ in range(50):
        g = g - moment_rows.T @ np.linalg.solve(gram, moment_rows @ g - b_given)
        if np.min(g) >= floor:
            break
        g = np.maximum(g, floor)
    return g


def numerical_lf(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    cls,
    grid_size: int = OPT_GRID,
    max_iters: int = MAX_ITERS,
    pg_tol: float = PG_TOL,
    seed: int = 0,
    warm_start: np.ndarray | None = None,
) -> LeastFavourableResult:
    """Maximize the interpolation error over the class by projected gradient
    ascent on the grid values of g = 1/f.

    The error Delta(g) = <B(g)^{-1} a, a> has gradient -|C(lambda_j)|^2 / G
    with respect to g_j, where C carries the solved coefficients. For D0Minus
    the ascent is warm-started at the anchored closed form whenever that form
    is a valid density: the projected gradient vanishes there exactly, and
    starting elsewhere can drift toward unbounded ridges of the non-convex
    feasible set.
    """
    idx = missing_indices(pattern)
    a = weight_vector(weights, pattern)
    span = (max(idx) - min(idx)) if idx else 0
    if grid_size < 4 * max(span, 1):
        grid_size = 4 * span
    G = grid_size
    lam = angular_grid(G)
    floor = _FLOOR

    degenerate = False
    if isinstance(cls, D0Minus):
        project = lambda g: _project_d0minus(g, cls.p, floor)
        g = np.full(G, cls.p)
        try:
            base = lf_d0minus(pattern, weights, cls, grid_size=G)
            if base.validity["positivity_ok"]:
                g = base.f0.inverse_on_grid(G)
        except WeightsNotPositive:
            pass
    elif isinstance(cls, DW):
        moment_rows = np.stack([np.cos(n * lam) / G for n in range(cls.W + 1)])
        project = lambda g: _project_dw(g, moment_rows, cls.b_given, floor)
        g = cls.inverse_poly().evaluate(G).real
        if np.min(g) <= 0:
            raise InfeasibleClass("given moments define a non-positive inverse density")
        degenerate = cls.W >= span
    elif isinstance(cls, DVU):
        cls.validate(G)
        lo = 1.0 / cls.u.on_grid(G)
        hi = 1.0 / cls.v.on_grid(G)
        project = lambda g: _project_dvu(g, lo, hi, cls.p)
        g = 0.5 * (lo + hi)
    else:
        raise InvalidParameters(f"unsupported class {type(cls).__name__}")

    if warm_start is not None:
        g = np.asarray(warm_start, dtype=float)
        if g.size != G:
            raise InvalidParameters("warm start size does not match the optimization grid")
    g = project(g)

    exps = np.exp(1j * np.outer(idx, lam))  # C(lambda) = c @ exps

    def objective(gv):
        b = FourierCoeffs(grid_fourier_coefficients(gv, span)).symmetrized()
        c = solve_gram(idx, a, b)
        delta = float(np.real(np.sum(c * np.conj(a))))
        grad = -np.abs(c @ exps) ** 2 / G
        return delta, grad

    delta, grad = objective(g)
    step = 0.1 * max(np.mean(g), 1e-6) / max(float(np.max(np.abs(grad))), 1e-300)
    scale = max(float(np.mean(g)), 1e-12)
    pg_norm = np.inf
    it = 0
    for it in range(1, max_iters + 1):
        g_trial = project(g + step * grad)
        pg_norm = float(np.max(np.abs(g_trial - g))) / max(step, 1e-300)
        if pg_norm * step < pg_tol * scale:
            break
        delta_trial, grad_trial = objective(g_trial)
        if delta_trial >= delta - 1e-14 * max(abs(delta), 1.0):
            g, delta, grad = g_trial, delta_trial, grad_trial
            step *= 1.2
        else:
            step *= 0.5
            if step < 1e-16 * scale:
                break

    converged = pg_norm * step < pg_tol * scale or degenerate or it == 0
    diagnostics = {
        "iterations": it,
        "projected_gradient": pg_norm * step / scale,
        "degenerate": degenerate,
        "converged": bool(converged),
    }
    if not converged:
        raise NotConverged("projected gradient ascent did not converge", diagnostics=diagnostics)

    half = min(span + 64, G // 2 - 1)
    b0 = FourierCoeffs(grid_fourier_coefficients(g, half)).symmetrized()
    f0 = Tabulated(1.0 / g)
    sol = solve(pattern, weights, f0, grid_size=G)
    validity = {
        "closed_form_applicable": False,
        "positivity_ok": True,
        "bounds_ok": True,
        "degenerate": degenerate,
    }
    return LeastFavourableResult(
        f0=f0, b0=b0, h0_grid=sol.h_grid, delta0=sol.delta,
        validity=validity, lagrange={}, solution=sol,
        mechanism="numerical", grid_size=G, diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# sampling and saddle verification
# ---------------------------------------------------------------------------

def sample_density(cls, result: LeastFavourableResult, rng: np.random.Generator,
                   grid_size: int | None = None) -> SpectralDensity:
    """Draw a random class member.

    For D0Minus the draw stays in the sub-family 1/f = 1/f0 + (nonnegative
    random trig polynomial), on which the saddle inequality is guaranteed;
    the class as a whole is non-convex and contains members with larger
    error against the robust characteristic.
    """
    G = grid_size or result.grid_size
    lam = angular_grid(G)
    if isinstance(cls, D0Minus):
        base = result.f0.inverse_on_grid(G)
        deg = rng.integers(1, 6)
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        poly = np.zeros(G, dtype=complex)
        for n, cc in enumerate(coeffs):
            poly += cc * np.exp(-1j * n * lam)
        bump = np.abs(poly) ** 2
        bump *= rng.uniform(0.0, 1.0) * np.mean(base) / max(np.mean(bump), 1e-300)
        return Tabulated(1.0 / (base + bump))
    if isinstance(cls, DW):
        moment_rows = np.stack([np.cos(n * lam) / G for n in range(cls.W + 1)])
        g = cls.inverse_poly().evaluate(G).real
        direction = rng.normal(size=G)
        # keep the draw an even function of lambda: the class pins cosine
        # moments only, and the degeneracy statements live in the even family
        direction = 0.5 * (direction + direction[(-np.arange(G)) % G])
        direction /= max(np.max(np.abs(direction)), 1e-300)
        base_min = float(np.min(g))
        amp = 0.5 * base_min
        while amp > 1e-6 * base_min:
            trial = _project_dw(g + amp * direction, moment_rows, cls.b_given, _FLOOR)
            if np.min(trial) >= 0.1 * base_min:
                return Tabulated(1.0 / trial)
            amp *= 0.5
        return Tabulated(1.0 / g)
    if isinstance(cls, DVU):
        lo = 1.0 / cls.u.on_grid(G)
        hi = 1.0 / cls.v.on_grid(G)
        g = rng.uniform(lo, hi)
        g = _project_dvu(g, lo, hi, cls.p)
        return Tabulated(1.0 / g)
    raise InvalidParameters(f"unsupported class {type(cls).__name__}")


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
    A `closed_form_invalid` result has no f0 to probe: PositivityLost.
    """
    if result.f0 is None:
        raise PositivityLost("the anchored closed form is not a valid density for these weights",
                             diagnostics=result.diagnostics)
    rng = np.random.default_rng(seed)
    G = result.grid_size
    tol = 1e-8 * max(result.delta0, 1.0)

    upper_pass = 0
    dominance_pass = 0
    worst_excess = -np.inf
    for _ in range(n_samples):
        f = sample_density(cls, result, rng, grid_size=G)
        val = mse_of_characteristic(result.h0_grid, pattern, weights, f)
        excess = val - result.delta0
        worst_excess = max(worst_excess, excess)
        if excess <= tol:
            upper_pass += 1
        if solve(pattern, weights, f, grid_size=G).delta <= result.delta0 + tol:
            dominance_pass += 1

    # perturb h0 by trig polynomials supported on observed indices
    idx = set(missing_indices(pattern))
    lam = angular_grid(G)
    observed = [j for j in range(-(max(abs(min(idx)), abs(max(idx))) + 10),
                                 max(abs(min(idx)), abs(max(idx))) + 11) if j not in idx]
    lower_pass = 0
    n_pert = min(n_samples, 50)
    scale = np.sqrt(float(np.sum(np.abs(weight_vector(weights, pattern)) ** 2)))
    for _ in range(n_pert):
        picks = rng.choice(observed, size=min(5, len(observed)), replace=False)
        dh = np.zeros(G, dtype=complex)
        for j in picks:
            dh += (rng.normal() + 1j * rng.normal()) * np.exp(1j * j * lam)
        dh *= 0.1 * scale / max(float(np.max(np.abs(dh))), 1e-300)
        val = mse_of_characteristic(result.h0_grid + dh, pattern, weights, result.f0)
        if val >= result.delta0 - 1e-10 * max(result.delta0, 1.0):
            lower_pass += 1

    return {
        "n_samples": n_samples,
        "upper_pass": upper_pass,
        "dominance_pass": dominance_pass,
        "lower_pass": lower_pass,
        "n_perturbations": n_pert,
        "worst_upper_excess": float(worst_excess),
        "all_pass": upper_pass == n_samples and lower_pass == n_pert,
    }
