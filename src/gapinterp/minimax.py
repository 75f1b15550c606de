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
a KKT point. The saddle inequality Delta(h0; f) <= delta0 holds on the
sub-family 1/f >= 1/f0 by monotonicity, and over D0Minus and DW as a whole the
supremum of Delta(h0; f) is unbounded: saddle_check states the first and gives
a witness family for the second, and bounds the DVU supremum exactly by a
vertex of its polytope, without sampling any member. No numerical maximizer
runs over D0Minus or DW, since an ascent would stop at a value set by the
grid and the floor on g. numerical_lf covers DVU only, whose bounds keep g in
a box; lf_dvu calls it wherever the closed form does not apply. Since the
error is convex in g, numerical_lf climbs from vertex to vertex of the DVU
polytope, each the fractional knapsack that also gives saddle_check's vertex.
Its start is the member lo + t (hi - lo) with mean p, and where the climb
stops it restarts from the certificate's vertex while that raises the
error. It ends at a local maximum; saddle_check's bracket is the guarantee.
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
    grid_fourier_coefficients,
    minimality_value,
    poly_on_grid,
)
from .errors import (
    InfeasibleClass,
    InvalidParameters,
    NonPositiveDensity,
    NotConverged,
    NotCovered,
    PositivityLost,
    WeightsNotPositive,
)
from .interpolate import (
    InterpolationSolution,
    error_value,
    power_of_two,
    solve,
    solve_gram,
)
from .patterns import (
    FunctionalWeights,
    ObservationPattern,
    missing_indices,
)

OPT_GRID = 512


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
        if not np.all(np.isfinite(b)):  # refused before the polynomial is evaluated
            raise InvalidParameters("moment sequence is not strictly positive: not all finite")
        if np.max(np.abs(b)) > np.finfo(float).max / (2 * b.size):
            raise InvalidParameters("moment sequence too large: its polynomial, up to "
                                    "(2W + 1) max|b(m)|, could overflow")
        # strict positivity of the sequence: its polynomial must be a valid 1/f
        try:
            InversePolynomial(self.inverse_poly())
        except NonPositiveDensity:
            raise InvalidParameters("moment sequence is not strictly positive") from None

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
        """The grid values (v, u) of the bounds, once checked: v > 0 on the grid (a v that is
        zero somewhere raises InvalidParameters), v <= u at the nodes of each tabulated bound
        (on the grid when neither is tabulated), and p within 1e-12 relative of the range of
        mean(1/f), so that the decision does not depend on the units of f. The
        interpolant of a table rings between its nodes, so u is raised to v on the grid
        wherever the two cross there."""
        v = self.v.on_grid(grid_size)
        if not np.min(v) > 0:
            raise InvalidParameters(f"lower density must be positive, its minimum is {np.min(v):.3e}")
        nodes = {b.values.size for b in (self.v, self.u) if isinstance(b, Tabulated)} or {grid_size}
        if any(np.any(self.v.on_grid(n) > self.u.on_grid(n) * (1 + 1e-12)) for n in nodes):
            raise InvalidParameters("lower density exceeds upper density")
        u = np.maximum(self.u.on_grid(grid_size), v)
        lo, hi = float(np.mean(1.0 / u)), float(np.mean(1.0 / v))
        if not (lo * (1 - 1e-12) <= self.p <= hi * (1 + 1e-12)):
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
    concentrates, read from the pattern's fields without building K: the
    smallest, 0, for purely right-sided patterns (S2, S5); for those with a
    left gap block the largest, N for S1 and S4 (the end of the central
    block) and N + M2 + N2 for S6, or N when its right block is empty. S3,
    two-sided and infinite, raises NotCovered with or without T."""
    if pattern.kind in ("S2", "S5"):
        return 0
    if pattern.kind == "S6" and pattern.N2:
        return pattern.N + pattern.M2 + pattern.N2
    if pattern.kind in ("S1", "S4", "S6"):
        return pattern.N
    raise NotCovered(f"no anchored closed form for pattern kind {pattern.kind}")


def _real(a: np.ndarray, refusal: Exception) -> np.ndarray:
    """The real parts of the weights a; an imaginary part above 1e-14 max|a|,
    whatever the units of a, raises `refusal`."""
    if np.max(np.abs(a.imag)) > 1e-14 * float(np.max(np.abs(a))):
        raise refusal
    return a.real


def _member_error(g: np.ndarray, k: np.ndarray, a: np.ndarray, span: int) -> tuple:
    """The classical error of the grid member 1/g for K = k (an int array) and
    the weights a: the grid Fourier coefficients of g up to the lag span, one
    Gram solve and its error value. Returns the error and the solved c."""
    c = solve_gram(k, a, FourierCoeffs(grid_fourier_coefficients(g, span)))
    return error_value(c, a), c


def _closed_form_density(b0: FourierCoeffs, refusal: str) -> InversePolynomial:
    """InversePolynomial(b0), whose refusal (NonPositiveDensity) is raised as
    PositivityLost(refusal) with the same bracket as diagnostics (inv_min among them)."""
    try:
        return InversePolynomial(b0)
    except NonPositiveDensity as exc:
        raise PositivityLost(refusal, diagnostics=exc.diagnostics) from None


def _result_from_density(pattern, weights, f0, lagrange, mechanism, grid_size,
                         diagnostics=None):
    sol = solve(pattern, weights, f0, grid_size=grid_size)
    return LeastFavourableResult(
        f0=f0, b0=sol.b, h0_grid=sol.h_grid, delta0=sol.delta, lagrange=lagrange, solution=sol,
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
    raise WeightsNotPositive, and a form whose 1/f is not positive on the circle raises
    PositivityLost with the minimum of 1/f on the deciding grid as diagnostics["inv_min"]."""
    if pattern.kind == "S3":
        raise NotCovered("two-sided infinite gaps have no anchored closed form")
    idx = missing_indices(pattern)
    a = _real(weights.on_gap_set(idx), WeightsNotPositive("closed form requires real weights"))
    if np.min(a) <= 0:
        raise WeightsNotPositive("closed form requires strictly positive weights")
    anchor = anchor_index(pattern)
    a_anchor = float(a[idx.index(anchor)])
    b0 = FourierCoeffs.from_dict({sign * (anchor - n): cls.p * a_n / a_anchor
                                  for n, a_n in zip(idx, a) for sign in (1, -1)})
    f0 = _closed_form_density(b0, "the anchored closed form is not a valid density "
                                  "for these weights")
    lagrange = {"alpha": a_anchor / cls.p, "anchor": anchor}
    result = _result_from_density(pattern, weights, f0, lagrange, "closed_form", grid_size)
    expected = a_anchor ** 2 / cls.p
    if abs(result.delta0 - expected) > 1e-8 * expected:
        raise NotConverged(
            "closed-form error value disagrees with the solved system",
            diagnostics={"delta_solved": result.delta0, "delta_formula": expected},
        )
    return result


# ---------------------------------------------------------------------------
# DW: moment-constrained class
# ---------------------------------------------------------------------------

def _dw_structure(idx: np.ndarray, anchor: int, W: int):
    """Split K, the int array idx, for the moment-constrained class: the support
    of the stationary coefficient vector and the unknown coefficient lags of 1/f.

    The coefficient vector must concentrate on missing indices within W of
    the anchor (so that the squared coefficient polynomial has degree <= W),
    and the inverse density carries unknown coefficients at the missing-index
    magnitudes beyond W. Geometries whose system is singular for any weights
    are refused: a non-square system, and rows outside the support whose
    distances to the support indices hold fewer unknown lags than there are
    rows (_hall_violation; an unknown lag at no such distance, a zero column,
    is one case).
    Returns the support mask, the unknown lags and the distances from the
    rows outside the support to the support indices.
    """
    on_support = np.abs(idx - anchor) <= W
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
    rows, lags = _hall_violation([np.intersect1d(d, unknown_lags) for d in dist])
    if rows:
        raise NotCovered(
            f"moment order W={W} leaves a coefficient system that is singular for any "
            f"weights (unknown lags in no equation: {np.setdiff1d(unknown_lags, dist).tolist()}; "
            f"the equations at indices {idx[~on_support][rows].tolist()} hold only the "
            f"unknown lags {lags}) for this gap geometry"
        )
    return on_support, unknown_lags, dist


def _hall_violation(adjacency) -> tuple[list, list]:
    """Match every row to a column of its own, adjacency[u] holding the columns
    of row u, by augmenting paths found breadth-first (Kuhn 1955). Returns
    ([], []) when all rows match, and otherwise a set of rows and their
    columns, one fewer than the rows: Hall's condition fails there, so any
    square matrix with this pattern of nonzeros is singular."""
    owner, matched = {}, {}  # column -> row, row -> column
    for root in range(len(adjacency)):
        parent, rows, free = {}, [root], None  # parent: column -> row it was reached from
        for row in rows:  # rows grows as the search reaches matched columns
            for col in map(int, adjacency[row]):
                if col not in parent:
                    parent[col] = row
                    if col not in owner:
                        free = col
                        break
                    rows.append(owner[col])
            if free is not None:
                break
        if free is None:
            return sorted(rows), sorted(parent)
        while free is not None:  # flip the path from the root to the free column
            row = parent[free]
            owner[free], free, matched[row] = row, matched.get(row), free
    return [], []


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
    residual that is not at most 1e-10 (NaN when moments near the underflow
    overflow c) raises NotConverged, and a 1/f that is not positive on the circle
    raises PositivityLost (_closed_form_density)."""
    if pattern.kind not in ("S4", "S5", "S6"):
        raise NotCovered("moment-constrained analysis is implemented for finite gap patterns")
    if pattern.kind in ("S4", "S6") and pattern.M1 < pattern.N:
        raise NotCovered("analysis requires the left gap offset M1 >= N")
    if pattern.kind == "S6" and pattern.N + pattern.M2 < pattern.M1 + pattern.N1:
        raise NotCovered("analysis requires N + M2 >= M1 + N1")
    k = missing_indices(pattern)
    a = _real(weights.on_gap_set(k),
              NotCovered("moment-constrained solver handles real weights only"))
    idx, W = np.asarray(k), cls.W
    on, unknown_lags, dist = _dw_structure(idx, anchor_index(pattern), W)
    span = int(idx.max() - idx.min())
    half = max(span, W)
    # b0(-half..half): given moments, zero elsewhere
    vals = cls.inverse_poly().resized(half).values.real.copy()
    lags = np.subtract.outer(idx, idx) + half
    B = vals[lags]
    # hits[u, l]: the sum of c over the support indices at distance l from row u
    hits = np.zeros((dist.shape[0], half + 1))
    # relative to the largest weight, so that the test does not depend on the scale of a
    scale = max(float(np.max(np.abs(a))), np.finfo(float).tiny)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            c = np.linalg.solve(B[np.ix_(on, on)], a[on])
            np.add.at(hits, (np.arange(dist.shape[0])[:, None], dist), c)
            x = np.linalg.solve(hits[:, unknown_lags], a[~on] - B[np.ix_(~on, on)] @ c)
        except np.linalg.LinAlgError as exc:
            raise NotConverged("singular coefficient system") from exc
        vals[half + unknown_lags] = vals[half - unknown_lags] = x
        residual = float(np.max(np.abs(vals[lags[:, on]] @ c - a))) / scale
    if not residual <= 1e-10:
        raise NotConverged(f"coefficient system residual {residual:.3e} above 1e-10",
                           diagnostics={"residual": residual} if np.isfinite(residual) else {})

    f0 = _closed_form_density(FourierCoeffs(vals.astype(complex)), "the structured "
                              "stationary point is not a valid density for these inputs")
    lagrange = {"p": dict(zip(idx[on].tolist(), c.tolist())),
                "solved_lags": dict(zip(unknown_lags.tolist(), x.tolist())),
                "newton_residual": residual}
    return _result_from_density(pattern, weights, f0, lagrange,
                                "degenerate" if W >= span else "newton", grid_size)


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
        if abs(minimality_value(cls.v, grid_size) - cls.p) > 1e-8 * cls.p:
            raise InfeasibleClass("pinned class does not meet the inverse-mean constraint")
        return _result_from_density(pattern, weights, cls.v, {}, "pinned", grid_size)

    try:
        base = lf_d0minus(pattern, weights, D0Minus(p=cls.p), grid_size=grid_size)
        f0_vals = base.f0.on_grid(grid_size)
        tol = 1e-12 * float(np.max(u))
        if np.all(f0_vals >= v - tol) and np.all(f0_vals <= u + tol):
            return replace(base, lagrange={**base.lagrange, "lower_active": [], "upper_active": []})
    except (WeightsNotPositive, PositivityLost, NotCovered):  # no closed form here
        pass
    return numerical_lf(pattern, weights, cls)


# ---------------------------------------------------------------------------
# DVU vertices and the numerical maximizer
# ---------------------------------------------------------------------------

def _knapsack(gain: np.ndarray, lo: np.ndarray, hi: np.ndarray, p: float) -> np.ndarray:
    """The g in {lo <= g <= hi, mean(g) = p} that maximizes -sum gain g, for lo <= hi
    and mean(lo) <= p <= mean(hi): a fractional knapsack (Dantzig 1957). From g = hi,
    points are lowered to lo in decreasing order of gain, the last one part of the
    way, so g is a vertex of the class polytope."""
    order = np.argsort(-gain, kind="stable")
    cap = (hi - lo)[order]
    need = min(max(float(np.sum(hi)) - p * hi.size, 0.0), float(np.sum(cap)))
    drop = np.clip(need - (np.cumsum(cap) - cap), 0.0, cap)
    g = np.empty_like(hi)
    g[order] = np.where(drop >= cap, lo[order], hi[order] - drop)
    return g


def _dvu_vertex(w: np.ndarray, lo: np.ndarray, hi: np.ndarray, p: float):
    """Maximize the mean of the chord of w/g on [lo, hi] over lo <= g <= hi,
    mean(g) = p. The chord w/hi + w (hi - g) / (lo hi) is linear in g, so this
    is the _knapsack for gain w / (lo hi) = w u v. Returns the vertex g and the
    chord's mean there, which bounds mean(w/g) over the class since the chord
    lies above the convex w/g; the two agree at every point of the vertex but
    the one off its bounds."""
    gain = w / (lo * hi)
    g = _knapsack(gain, lo, hi, p)
    return g, (float(np.sum(w / hi)) + float(gain @ (hi - g))) / hi.size


def numerical_lf(
    pattern: ObservationPattern,
    weights: FunctionalWeights,
    cls: DVU,
) -> LeastFavourableResult:
    """Maximize the interpolation error over DVU by vertex ascent on the grid
    values of g = 1/f, on max(OPT_GRID, 4 span) points.

    The error Delta(g) = <B(g)^{-1} a, a> is convex in g, with gradient
    -|C(lambda_j)|^2 / G with respect to g_j, where C carries the solved
    coefficients, on the grid by one inverse FFT (poly_on_grid). So Delta
    lies above its linearization at g, whose maximum over the class polytope
    {lo <= g <= hi, mean(g) = p}, lo = 1/u and hi = 1/v, is the vertex
    _knapsack(|C|^2, lo, hi, p). The ascent starts
    at lo + t (hi - lo), with t in [0, 1] setting the mean to p (white noise
    1/p for constant bounds), and moves to that vertex while one Gram solve
    there finds Delta strictly larger. Where it stops it tries the vertex of
    the saddle certificate, _knapsack(|C|^2 g^2 / (lo hi), lo, hi, p), and
    climbs on from there if Delta is larger. Delta grows strictly at every
    move among finitely many vertices, so the ascent ends, with no tolerance
    and no step limit; diagnostics["iterations"] counts its Gram solves.

    delta0 is a local maximum: maximizing a convex function over a polytope
    is NP-hard in general. Its guarantee is saddle_check's minimax_bracket,
    whose vertex_classical the certificate restart keeps at most delta0
    to rounding.
    Any other class raises NotCovered: the suprema over D0Minus and DW are
    unbounded on the grid, and their closed forms are lf_d0minus and lf_dW.
    The result lists in lagrange the grid points where f0 is within
    1e-6 max(u) of v (lower_active) or of u (upper_active).
    """
    if not isinstance(cls, DVU):
        raise NotCovered(f"numerical_lf maximizes over DVU only, not {type(cls).__name__}")
    idx = missing_indices(pattern)
    a = weights.on_gap_set(idx)
    k = np.asarray(idx)
    span = int(k.max() - k.min())
    G = max(OPT_GRID, 4 * span)
    v, u = cls.validate(G)
    lo, hi = 1.0 / u, 1.0 / v
    mean_lo = float(np.mean(lo))
    t = (cls.p - mean_lo) / max(float(np.mean(hi)) - mean_lo, np.finfo(float).tiny)
    g = lo + min(max(t, 0.0), 1.0) * (hi - lo)

    def error_and_gain(gv):
        delta, c = _member_error(gv, k, a, span)
        return delta, np.abs(poly_on_grid(k, c, G)) ** 2

    delta, gain = error_and_gain(g)
    solves = 1
    while True:
        # the vertex of the linearization at g, then the certificate's vertex
        for vertex_gain in (gain, gain * g ** 2 / (lo * hi)):
            g_next = _knapsack(vertex_gain, lo, hi, cls.p)
            delta_next, gain_next = error_and_gain(g_next)
            solves += 1
            if delta_next > delta:
                break
        else:  # neither raises Delta: a local maximum
            break
        g, delta, gain = g_next, delta_next, gain_next

    f0 = Tabulated(1.0 / g)
    slack = 1e-6 * float(np.max(u))
    lagrange = {"lower_active": np.flatnonzero(f0.values <= v + slack).tolist(),
                "upper_active": np.flatnonzero(f0.values >= u - slack).tolist()}
    return _result_from_density(pattern, weights, f0, lagrange, "numerical", G,
                                {"iterations": solves})


# ---------------------------------------------------------------------------
# saddle certificates
# ---------------------------------------------------------------------------

def saddle_check(result: LeastFavourableResult, cls) -> dict:
    """Certify the saddle inequalities around (h0, f0) on the result's grid of G
    points for the problem it solved: K, a and A (a_grid) from result.solution, f0
    by on_grid(G) as the solve read it. e = A - h0, w = |e|^2; no member is drawn
    (n_samples 0).

    Lower side: for dh on the observed lags, Delta(h0 + dh; f0) =
    Delta(h0; f0) + mean(|dh|^2 f0) - 2 Re sum_j conj(dh_j) r_j, with r the
    grid Fourier coefficients of e f0. lower_residual = max_{j not in K}
    |r_j| / ||a||_2, from one FFT, has the units of f0 and passes at
    1e-10 max f0.

    Upper side: sup_f Delta(h0; f) = sup mean(w f) is at most upper_bound.
    - D0Minus, sub-family 1/f >= 1/f0: mean(w f0), attained at f0, by
      monotonicity, which bounds the classical error there too.
    - DVU, whole class: mean(w/g) is convex in g = 1/f, so the maximum sits at
      a vertex of {1/u <= g <= 1/v, mean g = p} (Rockafellar 1970, Cor.
      32.3.2); upper_bound is the chord bound of _dvu_vertex. Its vertex member
      has the error vertex_error and the classical error vertex_classical
      (one Gram solve), so minimax_bracket = [max(delta0, vertex_classical),
      upper_bound] holds min_h sup_f Delta(h; f).
    - D0Minus and DW, whole class: unbounded (upper_bound None for DW). The
      witness g0 - t cos(m (lambda - lambda*)), g0 = 1/f0, m = 1 (D0Minus) or
      W + 1 (DW), keeps every constrained moment; with lambda* where g0 is
      least on the grid, it is positive for t < t_max = g0(lambda*) and its
      error is at least growth / (t_max - t), growth = w(lambda*) / G
      (class_bounded is None if growth is 0).

    upper_pass is upper_bound <= delta0 (1 + 1e-8): it covers the sub-family
    for D0Minus and the whole class for DVU and DW (which never passes).
    all_pass is upper_pass and lower_pass. Every number is taken on e, a and
    c divided by the power of two of max|a| (power_of_two, exact), so that no
    decision depends on the units of the weights, even where their squares
    underflow; the report gives the numbers in the caller's units. A grid of
    fewer than 4 span(K) points raises InvalidParameters.
    """
    G = result.grid_size
    sol = result.solution
    k = np.asarray(sol.indices)
    span = max(int(k.max() - k.min()), 1)
    if 4 * span > G:
        # the quadrature guard of inverse_fourier_coeffs for tabulated densities
        raise InvalidParameters(f"grid of {G} points is too coarse for gap span {span}")
    unit = power_of_two(sol.a)

    def caller(x):  # a scaled error in the caller's units
        return x * unit * unit

    a, delta0 = sol.a / unit, result.delta0 / unit / unit
    e = (sol.a_grid - result.h0_grid) / unit
    w = e.real ** 2 + e.imag ** 2
    f0 = result.f0.on_grid(G)
    r = np.abs(np.fft.fft(e * f0))  # G |r_j| at the lags j mod G
    r[np.mod(k, G)] = 0.0
    lower_residual = float(np.max(r)) / (G * max(float(np.linalg.norm(a)),
                                                 float(np.finfo(float).tiny)))
    report = {"n_samples": 0, "lower_residual": lower_residual,
              "lower_pass": lower_residual <= 1e-10 * float(np.max(f0))}
    if isinstance(cls, DVU):
        v, u = cls.validate(G)
        g, bound = _dvu_vertex(w, 1.0 / u, 1.0 / v, cls.p)
        classical, _ = _member_error(g, k, a, span)
        report.update(upper_set="class", class_bounded=True, upper_bound=caller(bound),
                      vertex_error=caller(float(np.mean(w / g))),
                      vertex_classical=caller(classical),
                      minimax_bracket=[max(result.delta0, caller(classical)), caller(bound)])
    elif isinstance(cls, (D0Minus, DW)):
        g0 = 1.0 / f0
        j = int(np.argmin(g0))
        growth = float(w[j]) / G
        sub_family = isinstance(cls, D0Minus)
        bound = float(np.mean(w * f0)) if sub_family else None
        report.update(
            upper_set="sub_family" if sub_family else "class",
            class_bounded=False if growth > 0 else None,
            upper_bound=caller(bound) if sub_family else None,
            witness={"m": 1 if sub_family else cls.W + 1, "lambda": float(angular_grid(G)[j]),
                     "t_max": float(g0[j]), "growth": caller(growth)},
        )
    else:
        raise InvalidParameters(f"unsupported class {type(cls).__name__}")
    # plain bools and floats only: the report is written as strict JSON
    report["upper_pass"] = bound is not None and bool(bound <= delta0 * (1 + 1e-8))
    report["all_pass"] = report["upper_pass"] and report["lower_pass"]
    return report
