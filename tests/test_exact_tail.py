"""Solves of the infinite gap sets S1-S3, cut where the cut no longer
matters: for densities whose 1/f has finite degree checked against deep
truncations and the projection oracle, for tabulated ones against the AR
density the table was sampled from."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapinterp import interpolate
from gapinterp.densities import (
    DEFAULT_GRID,
    FourierCoeffs,
    InversePolynomial,
    RationalAR,
    Tabulated,
    certify_positive,
)
from gapinterp.errors import InvalidParameters, NotConverged, SupportMismatch
from gapinterp.interpolate import solve, solve_truncated
from gapinterp.oracle import build_problem, project
from gapinterp.patterns import FunctionalWeights, ObservationPattern, missing_indices

DEEP = 6400  # the reference depth


def cond(f):
    g = f.on_grid(4096)
    return float(g.max() / g.min())


def check_against_deep(pattern, weights, f, rtol=1e-13):
    """Delta within rtol * (max f / min f) of the solve at T = 6400; K, c and a
    held to the reported depth; h within 1e-12 |a| on K."""
    sol = solve_truncated(pattern, weights, f)
    deep = solve(pattern.with_truncation(DEEP), weights, f)
    depth = sol.convergence["depth"]
    assert sol.convergence == {"depth": depth}
    assert sol.indices == tuple(missing_indices(pattern.with_truncation(depth)))
    assert sol.c.shape == sol.a.shape == (len(sol.indices),)
    scale = max(abs(deep.delta), 1e-300)
    assert abs(sol.delta - deep.delta) <= rtol * cond(f) * scale
    top = float(np.max(np.abs(sol.a)))
    norm_a = top * float(np.linalg.norm(np.abs(sol.a) / top)) if top > 0 else 0.0  # no underflow
    h = sol.h_coeffs
    assert max(abs(h.get(j, 0.0)) for j in sol.indices) <= 1e-12 * norm_a
    # the cut drops only a tail that moves Delta below rounding: past the
    # depth, the deep c is small against itself and against a (the rule reads
    # the cut solution, whose edge understates c by about 1 - radius^2)
    held = set(sol.indices)
    out = np.array([j not in held for j in deep.indices])
    c_out, a_out = (float(np.max(np.abs(v[out]), initial=0.0) / max(np.max(np.abs(v)), 1e-300))
                    for v in (deep.c, deep.a))
    assert c_out * max(c_out, a_out) <= 1e-13
    return sol


def ar2_with_roots(r1, r2):
    """AR(2) whose polynomial 1 - a1 z - a2 z^2 has the inverse roots r1, r2."""
    return RationalAR(alpha=np.array([r1 + r2, -r1 * r2]))


def positive_inverse_poly(gamma):
    """1/f = |sum gamma_n e^{-in lambda}|^2, Hermitian coefficients."""
    q = gamma.size - 1
    b = np.array([np.sum(gamma[max(0, -m): q + 1 - max(0, m)] *
                         np.conj(gamma[max(0, m): q + 1 + min(0, m)]))
                  for m in range(-q, q + 1)])
    return InversePolynomial(FourierCoeffs(0.5 * (b + np.conj(b[::-1]))))


complex_unit = st.tuples(st.floats(0.05, 0.9), st.floats(-np.pi, np.pi)).map(
    lambda rt: rt[0] * np.exp(1j * rt[1]))
# RationalAR takes its roots from the monic companion matrix, so tiny and
# subnormal roots, and products of two that underflow, are accepted; tiny
# roots give a tiny b(p)
real_root = st.floats(-0.9, 0.9)

densities = st.one_of(
    real_root.map(lambda a: RationalAR(alpha=np.array([a]))),
    complex_unit.map(lambda z: RationalAR(alpha=np.array([z]))),
    st.tuples(real_root, real_root).map(lambda r: ar2_with_roots(*r)),
    complex_unit.map(lambda z: ar2_with_roots(z, np.conj(z))),
    st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), min_size=1, max_size=3).map(
        lambda g: positive_inverse_poly(np.array([2.0] + [complex(*z) for z in g]))),
)

patterns = st.builds(
    lambda kind, n, m1, m2: ObservationPattern(kind, N=n, M1=m1, M2=m2, T=1),
    st.sampled_from(["S1", "S2", "S3"]), st.integers(0, 3), st.integers(1, 4), st.integers(1, 4),
)


class TestOneInverseCheck:
    @settings(max_examples=40, deadline=None)
    @given(pattern=patterns, f=densities, rho=st.floats(0.3, 0.99))
    def test_same_bytes_as_solve_at_the_depth(self, pattern, f, rho):
        # `solve` builds b through inverse_fourier_coeffs; the cut loop
        # resizes one exact expansion per depth and must give the same bytes
        weights = FunctionalWeights(geometric=(1.0, rho))
        sol = solve_truncated(pattern, weights, f)
        ref = solve(pattern.with_truncation(sol.convergence["depth"]), weights, f,
                    grid_size=DEFAULT_GRID)
        assert sol.indices == ref.indices
        assert sol.c.tobytes() == ref.c.tobytes()
        assert sol.delta == ref.delta

    @settings(max_examples=20, deadline=None)
    @given(pattern=patterns, rho=st.floats(0.3, 0.99),
           gamma=st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
                          min_size=1, max_size=3))
    def test_inverse_polynomial_checked_once_per_solve(self, pattern, rho, gamma):
        # certified once, when it is built; the solve reads 1/f on no grid
        checks, grids = [], []
        evaluate = InversePolynomial.inverse_on_grid

        def counting_check(b):
            checks.append(b)
            return certify_positive(b)

        def counting_grid(self, grid_size=DEFAULT_GRID):
            grids.append(grid_size)
            return evaluate(self, grid_size)

        with mock.patch("gapinterp.densities.certify_positive", counting_check), \
                mock.patch.object(InversePolynomial, "inverse_on_grid", counting_grid):
            f = positive_inverse_poly(np.array([2.0] + [complex(*z) for z in gamma]))
            solve_truncated(pattern, FunctionalWeights(geometric=(1.0, rho)), f)
        assert len(checks) == 1 and grids == []


class TestAgainstDeepTruncation:
    @settings(max_examples=60, deadline=None)
    @given(pattern=patterns, f=densities, rho=st.floats(0.3, 0.99),
           C=st.floats(0.2, 3.0))
    def test_geometric_weights(self, pattern, f, rho, C):
        check_against_deep(pattern, FunctionalWeights(geometric=(C, rho)), f)

    @settings(max_examples=30, deadline=None)
    @given(pattern=patterns, f=densities, data=st.data())
    def test_explicit_weights_reaching_into_the_blocks(self, pattern, f, data):
        # weights on the central block and up to 12 indices into each side
        # block; past them every row of a block is unforced
        central, left, right = pattern.with_truncation(12).blocks()
        pool = [*central, *left, *right]
        chosen = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
        values = {j: complex(data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2)))
                  for j in chosen}
        check_against_deep(pattern, FunctionalWeights(values=values), f)

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.97])
    def test_resonance(self, kind, rho):
        # alpha = rho puts rho on a root of the characteristic polynomial,
        # where a root-based basis divides by zero
        p = ObservationPattern(kind, N=2, M1=2, M2=3, T=1)
        check_against_deep(p, FunctionalWeights(geometric=(1.3, rho)), RationalAR(alpha=rho))

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    @pytest.mark.parametrize("alpha", [(1.0, -0.25), (1.8, -0.81)])
    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.97])
    def test_repeated_roots(self, kind, alpha, rho):
        # double roots 0.5 and 0.9; with rho on them, triple roots
        p = ObservationPattern(kind, N=1, M1=3, M2=2, T=1)
        check_against_deep(p, FunctionalWeights(geometric=(0.7, rho)),
                           RationalAR(alpha=np.array(alpha)))

    def test_white_noise(self):
        # degree 0: c = a / b(0) and the blocks hold no coupling
        f = InversePolynomial(FourierCoeffs(np.array([2.0])))
        p = ObservationPattern("S3", N=1, M1=1, M2=2, T=1)
        sol = check_against_deep(p, FunctionalWeights(geometric=(1.0, 0.6)), f)
        assert np.allclose(sol.c, sol.a / 2.0, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    def test_subnormal_lead(self, kind):
        # b(1) = 2.2e-308 i: dividing by it overflowed the companion matrix
        f = positive_inverse_poly(np.array([2.0, 1.1125369292536007e-308j]))
        p = ObservationPattern(kind, N=0, M1=1, M2=1, T=1)
        check_against_deep(p, FunctionalWeights(geometric=(1.0, 0.5)), f)

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    @pytest.mark.parametrize("alpha", [[5e-324], [0.5, 5e-324], [0.9, -2.2e-310]])
    def test_subnormal_ar_coefficient(self, kind, alpha):
        # np.roots of phi divided by the subnormal lead and overflowed; the
        # monic companion keeps the root near 0
        p = ObservationPattern(kind, N=2, M1=2, M2=3, T=1)
        check_against_deep(p, FunctionalWeights(geometric=(1.0, 0.7)),
                           RationalAR(alpha=np.array(alpha)))

    @pytest.mark.parametrize("sigma2", [1e-90, 1e90])
    def test_scale_of_the_density(self, sigma2):
        # Delta = a^H B^-1 a scales with f; the depth of the cut does not
        alpha = np.array([-0.489 + 0.678j, -0.489 + 0.678j])
        p = ObservationPattern("S1", N=1, M1=1, T=1)
        w = FunctionalWeights(values={0: 1.0, 1: 0.5})
        unit = solve_truncated(p, w, RationalAR(alpha=alpha))
        scaled = solve_truncated(p, w, RationalAR(alpha=alpha, sigma2=sigma2))
        assert abs(scaled.delta / sigma2 - unit.delta) <= 1e-13 * unit.delta

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    def test_zero_scale(self, kind):
        p = ObservationPattern(kind, N=1, M1=2, M2=2, T=1)
        sol = solve_truncated(p, FunctionalWeights(geometric=(0.0, 0.8)),
                              RationalAR(alpha=np.array([0.6, -0.3])))
        assert sol.delta == 0.0
        assert not np.any(sol.c)


class TestAgainstProjection:
    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    @pytest.mark.parametrize("f", [RationalAR(alpha=0.5), RationalAR(alpha=np.array([0.3 + 0.4j])),
                                   ar2_with_roots(0.5, -0.4)], ids=["ar1", "ar1c", "ar2"])
    def test_projection_at_the_depth(self, kind, f):
        p = ObservationPattern(kind, N=1, M1=2, M2=1, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.6))
        sol = solve_truncated(p, w, f)
        proj = project(build_problem(p.with_truncation(sol.convergence["depth"]), w, f,
                                     window=80))
        assert abs(sol.delta - proj["mse"]) <= 1e-8 * proj["mse"]


class TestPathChoice:
    def test_no_truncation_loop(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the exact path solves no truncated problem")

        monkeypatch.setattr(interpolate, "solve", refuse)
        p = ObservationPattern("S3", N=1, M1=2, M2=2, T=1)
        solve_truncated(p, FunctionalWeights(geometric=(1.0, 0.97)), RationalAR(alpha=0.5))

    def test_tabulated_runs_the_doubling_loop(self, monkeypatch):
        # the same loop on quadrature b: it starts from the weights' decay
        # alone (1 + 30, 0.5^60 < 1e-18), blind to the AR root 0.8, and
        # doubles twice to 124, where the edge rule holds; its solve there is
        # the one `solve` gives on the cut pattern
        p = ObservationPattern("S1", N=0, M1=1, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        f = Tabulated(RationalAR(alpha=0.8).on_grid(4096))
        cuts = []
        gram = interpolate.solve_gram
        monkeypatch.setattr(interpolate, "solve_gram",
                            lambda idx, a, b: cuts.append(len(idx)) or gram(idx, a, b))
        sol = solve_truncated(p, w, f)
        assert cuts == [1 + 31, 1 + 62, 1 + 124]
        assert sol.convergence == {"depth": 124}
        ref = solve(p.with_truncation(124), w, f)
        assert np.array_equal(sol.c, ref.c) and sol.delta == ref.delta
        assert sol.grid_size == 4096

    def test_root_near_the_unit_circle_refused_past_max_depth(self, monkeypatch):
        # 1/f with a root at r = 0.9999 is positive (min / max 2.5e-9), and its
        # tail needs 1 + 207223 indices, r^(2 D) < 1e-18: the cut is solved once
        # at MAX_DEPTH, the deepest it takes, and refused there
        r = 0.9999
        f = InversePolynomial(FourierCoeffs.from_dict({0: 1 + r * r, 1: -r, -1: -r}))
        p = ObservationPattern("S2", N=0, M2=1)
        cuts = []
        gram = interpolate.solve_gram
        monkeypatch.setattr(interpolate, "solve_gram",
                            lambda idx, a, b: cuts.append(len(idx)) or gram(idx, a, b))
        with pytest.raises(NotConverged) as info:
            solve_truncated(p, FunctionalWeights(geometric=(1.0, 0.5)), f)
        assert cuts == [1 + interpolate.MAX_DEPTH]
        assert info.value.diagnostics == {"depth": interpolate.MAX_DEPTH,
                                          "grid_size": DEFAULT_GRID}

    def test_finite_pattern_refused(self):
        with pytest.raises(InvalidParameters, match="infinite patterns only"):
            solve_truncated(ObservationPattern("S4", N=0, M1=1, N1=1),
                            FunctionalWeights(values={0: 1.0}), RationalAR(alpha=0.5))

    def test_weights_on_observed_indices_refused(self):
        p = ObservationPattern("S2", N=1, M2=3, T=1)  # 2..4 observed
        with pytest.raises(SupportMismatch):
            solve_truncated(p, FunctionalWeights(values={0: 1.0, 3: 1.0}), RationalAR(alpha=0.5))

    def test_weights_deeper_than_the_schedule_refused(self):
        # index 5 + 9999 is 10000 deep into the right block: solved, and the
        # solve at the depth it reports; one past MAX_DEPTH is refused
        p = ObservationPattern("S2", N=1, M2=3)
        f = RationalAR(alpha=0.5)
        w = FunctionalWeights(values={0: 1.0, 5 + 9999: 1.0})
        sol = solve_truncated(p, w, f)
        ref = solve(p.with_truncation(sol.convergence["depth"]), w, f)
        assert sol.indices == ref.indices and np.array_equal(sol.c, ref.c)
        assert sol.delta == ref.delta
        deepest = FunctionalWeights(values={0: 1.0, 5 + interpolate.MAX_DEPTH: 1.0})
        with pytest.raises(InvalidParameters, match=f"at most {interpolate.MAX_DEPTH}"):
            solve_truncated(p, deepest, f)


tabulated_roots = st.one_of(
    st.tuples(st.floats(-0.95, 0.95)),
    st.tuples(st.floats(-0.95, 0.95), st.floats(-0.95, 0.95)),
    st.tuples(st.floats(0.05, 0.95), st.floats(0.01, np.pi - 0.01)).map(
        lambda rt: (rt[0] * np.exp(1j * rt[1]), rt[0] * np.exp(-1j * rt[1]))),
)


@st.composite
def tabulated_weights(draw, pattern):
    """Geometric weights, or explicit ones on the central block and up to 60
    indices deep into each infinite block."""
    if draw(st.booleans()):
        return FunctionalWeights(geometric=(draw(st.floats(0.5, 2.0)),
                                            draw(st.floats(0.3, 0.97))))
    held = missing_indices(pattern.with_truncation(60))
    picked = draw(st.lists(st.sampled_from(held), min_size=1, max_size=6, unique=True))
    return FunctionalWeights(values={j: draw(st.floats(0.5, 2.0)) for j in picked})


class TestTabulated:
    """Tabulated S1-S3 through the same cut loop, on the quadrature of 1/f,
    against the exact answer of the AR density the table was sampled from."""

    @settings(max_examples=60, deadline=None)
    @given(pattern=patterns, roots=tabulated_roots, grid=st.sampled_from([2048, 4096, 8192]),
           data=st.data())
    def test_matches_the_sampled_ar_or_refuses(self, pattern, roots, grid, data):
        f = RationalAR(alpha=np.real(-np.poly(np.array(roots))[1:]))
        weights = data.draw(tabulated_weights(pattern))
        exact = solve_truncated(pattern, weights, f)
        f_grid = f.on_grid(grid)
        try:
            sol = solve_truncated(pattern, weights, Tabulated(f_grid), grid_size=grid)
        except NotConverged as err:
            assert err.diagnostics["grid_size"] == grid
            return
        assert list(sol.convergence) == ["depth"]
        assert 4 * (max(sol.indices) - min(sol.indices)) <= grid
        assert abs(sol.delta - exact.delta) <= 1e-12 * f_grid.max() / f_grid.min() * exact.delta

    @pytest.mark.parametrize("alpha, weights", [
        ([0, 0.25], {0: 1.0}), ([0, 0.25], {-2: 1.0}), ([0, 0.25], {-3: 1.0}),
        ([0, 0, 0.3], {0: 1.0}), ([0, 0, 0.3], {-2: 1.0}), ([0, 0, 0.3], {-3: 1.0}),
    ])
    def test_inverse_on_multiples_of_q(self, alpha, weights):
        # 1/f on the even lags (or the multiples of 3) alone: each block splits
        # into q systems, and the edge read one index, where c vanished at
        # every other depth; the cut stopped at depth 2 or 3 with Delta
        # 0.99634, 0.99634, 0.94118 for the AR's 1, 1.0625, 1 (and 0.99262,
        # 0.91743, 0.99262 for 1, 1, 1.09)
        p = ObservationPattern("S1", N=0, M1=1, T=1)
        w = FunctionalWeights(values=weights)
        f = RationalAR(alpha=np.array(alpha))
        exact = solve_truncated(p, w, f)
        f_grid = f.on_grid(2048)
        sol = solve_truncated(p, w, Tabulated(f_grid), grid_size=2048)
        assert abs(sol.delta - exact.delta) <= 1e-12 * f_grid.max() / f_grid.min() * exact.delta
        # one quadrature cut to each depth is the one `solve` takes there
        ref = solve(p.with_truncation(sol.convergence["depth"]), w, Tabulated(f_grid),
                    grid_size=2048)
        assert sol.c.tobytes() == ref.c.tobytes() and sol.delta == ref.delta

    def test_weights_deeper_than_25(self):
        # weights 32 deep into the right block: the cut starts past them,
        # on the quadrature as on the exact 1/f
        p = ObservationPattern("S2", N=1, M2=3, T=1)
        w = FunctionalWeights(values={0: 1.0, 35: 1.0})
        exact = solve_truncated(p, w, RationalAR(alpha=0.5))
        sol = solve_truncated(p, w, Tabulated(RationalAR(alpha=0.5).on_grid(4096)))
        assert exact.delta == pytest.approx(16 / 7, rel=1e-14)
        assert abs(sol.delta - exact.delta) <= 1e-13 * exact.delta
