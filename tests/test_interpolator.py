"""Gram assembly, coefficient solves, spectral characteristics, and errors."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapinterp.densities import (
    FourierCoeffs,
    InversePolynomial,
    RationalAR,
    Tabulated,
    angular_grid,
    covariance,
    evaluate_trig_poly,
    grid_fourier_coefficients,
    inverse_fourier_coeffs,
)
from gapinterp.errors import GridMismatch, LagOutOfRange, NotConverged, NotPositiveDefinite
from gapinterp.interpolate import (
    PLATEAU_RTOL,
    TRUNCATION_SCHEDULE,
    mse_of_characteristic,
    poly_on_grid,
    solve,
    solve_gram,
    solve_truncated,
)
from gapinterp.patterns import FunctionalWeights, ObservationPattern, missing_indices


def build_gram(pattern, b):
    """The dense B[u][v] = b(t_u - t_v) over the canonical missing-index
    order: the reference that `solve_gram` is checked against."""
    idx = missing_indices(pattern)
    lags = np.subtract.outer(idx, idx)
    if np.max(np.abs(lags)) > b.half_length:
        raise LagOutOfRange(f"needed lag {np.max(np.abs(lags))} exceeds {b.half_length}")
    return b.values[lags + b.half_length]


def tabulated_ar(alpha, grid_size=4096):
    """An AR density given by its grid values, which solve_truncated solves
    by the doubling loop."""
    return Tabulated(RationalAR(alpha=alpha).on_grid(grid_size))


def ones_weights(pattern):
    return FunctionalWeights(values={j: 1.0 for j in missing_indices(pattern)})


def random_coeffs(rng, half):
    """A Hermitian coefficient sequence whose trig polynomial is positive."""
    gamma = rng.normal(size=half + 1) + 1j * rng.normal(size=half + 1)
    gamma[0] = abs(gamma[0]) + 1.0
    lam = angular_grid(2048)
    poly = sum(g * np.exp(-1j * n * lam) for n, g in enumerate(gamma))
    vals = np.abs(poly) ** 2
    from gapinterp.densities import grid_fourier_coefficients

    return FourierCoeffs(grid_fourier_coefficients(vals, half)).symmetrized()


class TestBuildGram:
    def test_entry_rule_simple(self):
        p = ObservationPattern("S4", N=0, M1=2, N1=1)  # K = [0, -3]
        b = inverse_fourier_coeffs(RationalAR(alpha=0.5), half_length=3)
        g = build_gram(p, b)
        assert np.allclose(g, [[1.25, 0.0], [0.0, 1.25]])

    def test_entry_rule_s5(self):
        p = ObservationPattern("S5", N=1, M2=1, N2=1)  # K = [0, 1, 3]
        b = inverse_fourier_coeffs(RationalAR(alpha=0.5), half_length=3)
        g = build_gram(p, b)
        expected = [[1.25, -0.5, 0.0], [-0.5, 1.25, 0.0], [0.0, 0.0, 1.25]]
        assert np.allclose(g, expected)

    def test_white_noise_identity(self):
        p = ObservationPattern("S6", N=1, M1=2, N1=2, M2=1, N2=2)
        b = FourierCoeffs.from_dict({0: 1.0}, half_length=10)
        g = build_gram(p, b)
        assert np.allclose(g, np.eye(len(missing_indices(p))))

    def test_lag_out_of_range(self):
        p = ObservationPattern("S4", N=0, M1=5, N1=1)
        b = FourierCoeffs.from_dict({0: 1.25, 1: -0.5, -1: -0.5})
        with pytest.raises(LagOutOfRange):
            build_gram(p, b)

    def test_hermitian(self):
        rng = np.random.default_rng(5)
        b = random_coeffs(rng, 12)
        p = ObservationPattern("S6", N=1, M1=2, N1=2, M2=2, N2=1)
        g = build_gram(p, b)
        assert np.allclose(g, g.conj().T)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    def test_matches_literal_block_formulas(self, N, M1, N1, M2, N2, seed):
        """The single entry rule reproduces all nine hand-indexed blocks of
        the three-block system."""
        rng = np.random.default_rng(seed)
        b = random_coeffs(rng, N + M1 + N1 + M2 + N2 + 2)
        p = ObservationPattern("S6", N=N, M1=M1, N1=N1, M2=M2, N2=N2)
        G = build_gram(p, b)

        B1 = np.array([[b[i - j] for j in range(N + 1)] for i in range(N + 1)])
        B2 = np.array([[b[M1 + 1 + i + j] for j in range(N1)] for i in range(N + 1)])
        B3 = np.array([[b[-M1 - 1 - i - j] for j in range(N + 1)] for i in range(N1)])
        B4 = np.array([[b[j - i] for j in range(N1)] for i in range(N1)])
        B5 = np.array([[b[-N - M2 - 1 + i - j] for j in range(N2)] for i in range(N + 1)])
        B6 = np.array([[b[N + M2 + 1 + i - j] for j in range(N + 1)] for i in range(N2)])
        B7 = np.array([[b[i - j] for j in range(N2)] for i in range(N2)])
        B8 = np.array([[b[-N - M2 - 1 - j - M1 - 1 - i] for j in range(N2)] for i in range(N1)])
        B9 = np.array([[b[N + M2 + 1 + i + M1 + 1 + j] for j in range(N1)] for i in range(N2)])

        literal = np.block([[B1, B2, B5], [B3, B4, B8], [B6, B9, B7]])
        assert np.allclose(G, literal, atol=1e-14)


class TestSolve:
    def test_example_regression(self):
        f = RationalAR(alpha=0.5)
        p = ObservationPattern("S4", N=1, M1=2, N1=3)
        sol = solve(p, ones_weights(p), f)
        assert abs(sol.coefficient(0) - 4 / 3) < 1e-12
        assert abs(sol.coefficient(1) - 4 / 3) < 1e-12
        assert abs(sol.coefficient(-3) - 28 / 17) < 1e-12
        assert abs(sol.coefficient(-4) - 36 / 17) < 1e-12
        assert abs(sol.coefficient(-5) - 28 / 17) < 1e-12
        assert abs(sol.delta - 412 / 51) < 1e-12

    def test_white_noise(self):
        f = Tabulated(np.ones(4096))
        p = ObservationPattern("S6", N=1, M1=1, N1=2, M2=2, N2=1)
        w = FunctionalWeights(values={j: (k + 1) * 1.0 for k, j in
                                      enumerate(missing_indices(p))})
        sol = solve(p, w, f)
        assert np.allclose(sol.c, sol.a)
        assert abs(sol.delta - float(np.sum(np.abs(sol.a) ** 2))) < 1e-12

    def test_zero_weights(self):
        f = RationalAR(alpha=0.5)
        p = ObservationPattern("S5", N=0, M2=1, N2=1)
        w = FunctionalWeights(values={0: 0.0, 2: 0.0})
        sol = solve(p, w, f)
        assert sol.delta == 0.0
        assert np.max(np.abs(sol.h_grid)) < 1e-14

    def test_linearity(self):
        f = RationalAR(alpha=np.array([0.4, -0.2]))
        p = ObservationPattern("S5", N=1, M2=1, N2=2)
        w1 = FunctionalWeights(values={0: 1.0, 1: 0.5, 3: 0.25, 4: 0.1})
        kappa = 2.0 - 1.0j
        w2 = FunctionalWeights(values={0: kappa, 1: 0.5 * kappa, 3: 0.25 * kappa,
                                       4: 0.1 * kappa})
        s1 = solve(p, w1, f)
        s2 = solve(p, w2, f)
        assert np.allclose(s2.c, kappa * s1.c, atol=1e-12)
        assert abs(s2.delta - abs(kappa) ** 2 * s1.delta) < 1e-10

    def test_gap_coefficients_vanish(self):
        f = RationalAR(alpha=np.array([0.3, 0.2]))
        p = ObservationPattern("S6", N=1, M1=2, N1=2, M2=3, N2=2)
        sol = solve(p, ones_weights(p), f)
        norm_a = np.sqrt(np.sum(np.abs(sol.a) ** 2))
        worst = max(abs(sol.h_coeffs[j]) for j in sol.indices)
        assert worst <= 1e-8 * norm_a

    def test_orthogonality_on_observed(self):
        f = RationalAR(alpha=0.5)
        p = ObservationPattern("S4", N=1, M1=2, N1=3)
        sol = solve(p, ones_weights(p), f)
        lam = angular_grid(sol.grid_size)
        a_grid = sum(a * np.exp(1j * j * lam) for j, a in zip(sol.indices, sol.a))
        resid = (a_grid - sol.h_grid) * f.on_grid(sol.grid_size)
        norm_a = np.sqrt(np.sum(np.abs(sol.a) ** 2))
        observed = [t for t in range(-15, 16) if t not in set(sol.indices)][:20]
        for j in observed:
            val = np.mean(resid * np.exp(-1j * j * lam))
            assert abs(val) <= 1e-8 * norm_a

    def test_two_error_formulas_agree(self):
        f = RationalAR(alpha=np.array([0.3 + 0.1j]))
        p = ObservationPattern("S5", N=1, M2=2, N2=2)
        sol = solve(p, ones_weights(p), f)
        lam = angular_grid(sol.grid_size)
        c_grid = sum(c * np.exp(1j * j * lam) for j, c in zip(sol.indices, sol.c))
        direct = float(np.mean(np.abs(c_grid) ** 2 * f.inverse_on_grid(sol.grid_size)))
        assert abs(direct - sol.delta) < 1e-8 * sol.delta

    def test_mse_formula_matches_solution(self):
        f = RationalAR(alpha=0.5)
        p = ObservationPattern("S4", N=1, M1=2, N1=3)
        w = ones_weights(p)
        sol = solve(p, w, f)
        val = mse_of_characteristic(sol.h_grid, p, w, f)
        assert abs(val - sol.delta) < 1e-8 * sol.delta

    def test_zero_characteristic_white_noise(self):
        p = ObservationPattern("S5", N=1, M2=1, N2=3)
        w = ones_weights(p)
        f = Tabulated(np.ones(4096))
        val = mse_of_characteristic(np.zeros(4096, dtype=complex), p, w, f)
        assert abs(val - 5.0) < 1e-12

    def test_suboptimality_under_other_density(self):
        rng = np.random.default_rng(11)
        p = ObservationPattern("S5", N=1, M2=1, N2=2)
        w = ones_weights(p)
        for _ in range(5):
            a1 = rng.uniform(-0.6, 0.6)
            a2 = rng.uniform(-0.6, 0.6)
            f1 = RationalAR(alpha=a1)
            f2 = RationalAR(alpha=np.array([a2, 0.1]))
            h1 = solve(p, w, f1).h_grid
            best2 = solve(p, w, f2).delta
            assert mse_of_characteristic(h1, p, w, f2) >= best2 - 1e-10

    def test_grid_mismatch(self):
        p = ObservationPattern("S5", N=0, M2=1, N2=1)
        w = ones_weights(p)
        f = Tabulated(np.ones(1024))
        with pytest.raises(GridMismatch):
            mse_of_characteristic(np.zeros(512, dtype=complex), p, w, f)

    def test_s6_with_empty_right_matches_s4(self):
        f = RationalAR(alpha=np.array([0.4]))
        s6 = ObservationPattern("S6", N=1, M1=2, N1=3, M2=1, N2=0)
        s4 = ObservationPattern("S4", N=1, M1=2, N1=3)
        sol6 = solve(s6, ones_weights(s6), f)
        sol4 = solve(s4, ones_weights(s4), f)
        assert np.allclose(sol6.c, sol4.c, atol=1e-12)
        assert abs(sol6.delta - sol4.delta) < 1e-12

    def test_example_additivity(self):
        f = RationalAR(alpha=0.5)
        s4 = ObservationPattern("S4", N=1, M1=2, N1=3)
        s5 = ObservationPattern("S5", N=1, M2=2, N2=3)
        s6 = ObservationPattern("S6", N=1, M1=2, N1=3, M2=2, N2=3)
        central = ObservationPattern("S4", N=1, M1=2, N1=0)
        d4 = solve(s4, ones_weights(s4), f).delta
        d5 = solve(s5, ones_weights(s5), f).delta
        d6 = solve(s6, ones_weights(s6), f).delta
        dc = solve(central, ones_weights(central), f).delta
        assert abs(d6 - (d4 + d5 - dc)) < 1e-10


class TestSolveTruncated:
    def test_plateau_and_convergence(self):
        f = tabulated_ar(0.5)
        p = ObservationPattern("S2", N=1, M2=1, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        sol = solve_truncated(p, w, f)
        deltas = sol.convergence["deltas"]
        assert sol.convergence["converged"]
        assert abs(deltas[-1] - deltas[-2]) <= 1e-8 * deltas[-1]

    def test_zero_tail_weights_stable_in_depth(self):
        f = RationalAR(alpha=0.5)
        p = ObservationPattern("S1", N=1, M1=2, T=1)
        w = FunctionalWeights(values={0: 1.0, 1: 2.0})
        d1 = solve(p.with_truncation(5), w, f).delta
        d2 = solve(p.with_truncation(50), w, f).delta
        assert abs(d1 - d2) < 1e-12

    def test_white_noise_any_depth(self):
        f = Tabulated(np.ones(4096))
        p = ObservationPattern("S3", N=0, M1=1, M2=1, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        sol = solve_truncated(p, w, f)
        expected = sum(0.25 ** abs(j) for j in missing_indices(p.with_truncation(200)))
        assert abs(sol.delta - expected) < 1e-10

    def test_monotone_in_depth(self):
        # deeper truncation adds more unknowns to estimate, never lowering
        # the error for weights fixed on the shallow set
        f = RationalAR(alpha=0.5)
        p = ObservationPattern("S2", N=0, M2=1, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        deltas = [solve(p.with_truncation(t), w, f).delta for t in (5, 10, 20, 40)]
        assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(deltas, deltas[1:]))

    def test_not_converged_raises(self):
        # rho = 0.97 plateaus only past T = 400; at T = 800 the span of K,
        # 1602, is past the 1024 a 4096-point grid's quadrature reaches
        p = ObservationPattern("S3", N=0, M1=1, M2=1, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.97))
        with pytest.raises(NotConverged) as err:
            solve_truncated(p, w, tabulated_ar(0.5))
        report = err.value.diagnostics
        assert report["schedule"] == [25, 50, 100, 200, 400]
        assert report["depth"] == 400 and len(report["deltas"]) == 5
        assert report["final_gap"] > PLATEAU_RTOL * report["deltas"][-1]
        assert 0 < report["tail_fraction"] < 1e-10
        assert report["converged"] is False

    def test_no_depth_within_the_grid(self):
        # at T = 25 the span of K, 52, is past the 16 a 64-point grid reaches
        p = ObservationPattern("S3", N=0, M1=1, M2=1, T=1)
        with pytest.raises(NotConverged) as err:
            solve_truncated(p, FunctionalWeights(geometric=(1.0, 0.5)), Tabulated(np.ones(64)),
                            grid_size=64)
        report = err.value.diagnostics
        assert report["schedule"] == report["deltas"] == []
        assert report["depth"] is report["final_gap"] is report["tail_fraction"] is None

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    def test_doubling_converges_near_unit_decay(self, kind):
        # rho = 0.97 plateaus only past T = 400; on 8192 points the
        # quadrature reaches the span of S3 at T = 800, 1606
        grid = 8192
        p = ObservationPattern(kind, N=1, M1=2, M2=3, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.97))
        sol = solve_truncated(p, w, tabulated_ar(0.5, grid), grid_size=grid)
        deep = solve_truncated(p, w, RationalAR(alpha=0.5))
        assert abs(sol.delta - deep.delta) <= 1e-7 * deep.delta

        depths = sol.convergence["schedule"]
        assert tuple(depths) == TRUNCATION_SCHEDULE[:len(depths)]
        assert 400 < depths[-1] < TRUNCATION_SCHEDULE[-1]
        deltas = sol.convergence["deltas"]
        stops = [abs(d - prev) <= PLATEAU_RTOL * abs(d)
                 and w.tail_fraction(p.with_truncation(t)) < 1e-10
                 for t, prev, d in zip(depths[1:], deltas, deltas[1:])]
        assert stops[-1] and not any(stops[:-1])


class TestSolveGram:
    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["S1", "S2", "S3", "S4", "S5", "S6"]),
        density=st.sampled_from(["ar1_real", "ar1_complex", "ar2", "inverse_poly", "tabulated"]),
        N=st.integers(0, 4), M1=st.integers(1, 6), N1=st.integers(0, 8),
        M2=st.integers(1, 6), N2=st.integers(0, 8), T=st.integers(1, 40),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_dense_solve(self, kind, density, N, M1, N1, M2, N2, T, seed):
        rng = np.random.default_rng(seed)
        # each kind reads only its own fields; S1-S3 are cut at depth T
        p = ObservationPattern(kind, N=N, M1=M1, N1=N1, M2=M2, N2=N2, T=T)
        idx = missing_indices(p)
        w = FunctionalWeights(values={j: complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
                                      for j in idx})
        f, _ = draw_density(density, rng)
        sol = solve(p, w, f)
        dense = np.linalg.solve(build_gram(p, sol.b), sol.a)
        dense_delta = float(np.real(np.sum(dense * np.conj(sol.a))))
        assert sol.indices == tuple(idx)
        assert np.linalg.norm(sol.c - dense) <= 1e-12 * np.linalg.norm(dense)
        assert abs(sol.delta - dense_delta) <= 1e-12 * dense_delta

        # any input order comes back in that order
        perm = rng.permutation(len(idx))
        shuffled = solve_gram(np.asarray(idx)[perm], sol.a[perm], sol.b)
        assert np.linalg.norm(shuffled - sol.c[perm]) <= 1e-12 * np.linalg.norm(dense)

    def test_indefinite_raises(self):
        b = FourierCoeffs.from_dict({0: 1.0, 1: 1.0, -1: 1.0}, half_length=2)
        with pytest.raises(NotPositiveDefinite):
            solve_gram([0, 1, 2], np.ones(3, dtype=complex), b)

    def test_lag_out_of_range(self):
        b = FourierCoeffs.from_dict({0: 1.25, 1: -0.5, -1: -0.5})
        with pytest.raises(LagOutOfRange):
            solve_gram([0, 2], np.ones(2, dtype=complex), b)


def grid_route(sol, f):
    """The characteristic by the grid-and-FFT route: h = A - C/f on the grid
    of sol.grid_size points, then its Fourier coefficients by FFT on the lag
    window |m| <= 2 max|t| + 64. Returns (h on the grid, {lag: coefficient})."""
    half = max(abs(j) for j in sol.indices)

    def on_grid(values):
        spread = np.zeros(2 * half + 1, dtype=complex)
        for j, v in zip(sol.indices, values):
            spread[j + half] += v
        return evaluate_trig_poly(spread, sol.grid_size)

    h_grid = on_grid(sol.a) - on_grid(sol.c) / f.on_grid(sol.grid_size)
    window = min(2 * half + 64, sol.grid_size // 2 - 1)
    vals = grid_fourier_coefficients(h_grid, window)
    return h_grid, {m: complex(vals[m + window]) for m in range(-window, window + 1)}


def draw_density(kind, rng):
    """(density, degree p of 1/f as a trigonometric polynomial, or None)."""
    if kind == "ar1_real":
        return RationalAR(alpha=rng.uniform(0.1, 0.8) * rng.choice([-1, 1]),
                          sigma2=rng.uniform(0.5, 2.0)), 1
    if kind == "ar1_complex":
        return RationalAR(alpha=rng.uniform(0.1, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))), 1
    if kind == "ar2":
        return RationalAR(alpha=np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4)])), 2
    if kind == "inverse_poly":
        q = int(rng.integers(1, 4))
        return InversePolynomial(random_coeffs(rng, q)), q
    f = RationalAR(alpha=np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.2, 0.2)]))
    return Tabulated(f.on_grid(4096)), None


class TestCharacteristic:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["S4", "S5", "S6"]),
        density=st.sampled_from(["ar1_real", "ar1_complex", "ar2", "inverse_poly", "tabulated"]),
        N=st.integers(0, 4), M1=st.integers(1, 6), N1=st.integers(0, 8),
        M2=st.integers(1, 6), N2=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_coefficients_match_grid_route(self, kind, density, N, M1, N1, M2, N2, seed):
        rng = np.random.default_rng(seed)
        left = {"M1": M1, "N1": N1} if kind in ("S4", "S6") else {}
        right = {"M2": M2, "N2": N2} if kind in ("S5", "S6") else {}
        p = ObservationPattern(kind, N=N, **left, **right)
        idx = missing_indices(p)
        w = FunctionalWeights(values={j: complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
                                      for j in idx})
        f, degree = draw_density(density, rng)
        sol = solve(p, w, f)
        h_grid, reference = grid_route(sol, f)
        assert np.array_equal(sol.h_grid, h_grid)

        h = sol.h_coeffs
        tol = 1e-12 * float(np.linalg.norm(sol.a))
        assert max(abs(h[j]) for j in idx) <= tol
        for j in set(h) & set(reference):
            assert abs(h[j] - reference[j]) <= tol
        lo, hi = min(idx), max(idx)
        reach = 64 if degree is None else degree
        assert set(range(lo - reach, hi + reach + 1)) <= set(h)
        if degree is not None:
            assert all(lo - degree <= j <= hi + degree for j, v in h.items() if v != 0)

    def test_replace_recomputes_from_c(self):
        f = RationalAR(alpha=np.array([0.3 + 0.2j, -0.1]))
        p = ObservationPattern("S6", N=1, M1=2, N1=2, M2=1, N2=3)
        sol = solve(p, ones_weights(p), f)
        h, h_grid = dict(sol.h_coeffs), sol.h_grid
        doubled = dataclasses.replace(sol, c=2 * sol.c)
        # h = a - c*b is affine in c: doubling c gives 2h - a
        a = dict(zip(sol.indices, sol.a))
        for j, v in doubled.h_coeffs.items():
            assert abs(v - (2 * h[j] - a.get(j, 0.0))) < 1e-12
        lam = angular_grid(sol.grid_size)
        a_grid = sum(v * np.exp(1j * j * lam) for j, v in a.items())
        assert np.allclose(doubled.h_grid, 2 * h_grid - a_grid, atol=1e-12)
        assert dataclasses.replace(sol).h_coeffs == h

    def test_coefficients_reach_past_the_grid_cap(self):
        # span > G/4 - 64: b is fetched at half-length span, and h must still
        # reach one lag past each end of K, where AR(1) makes it nonzero
        f = RationalAR(alpha=0.5)
        p = ObservationPattern("S3", N=0, M1=1, M2=1, T=3000)
        w = FunctionalWeights(geometric=(1.0, 0.9))
        sol = solve(p, w, f, grid_size=4096)
        b = f.exact_inverse_coeffs()
        a, c = dict(zip(sol.indices, sol.a)), dict(zip(sol.indices, sol.c))
        h = sol.h_coeffs
        lo, hi = min(sol.indices), max(sol.indices)
        assert sorted(h) == list(range(lo - 1, hi + 2))
        assert h[lo - 1] != 0 and h[hi + 1] != 0
        tol = 1e-12 * float(np.linalg.norm(sol.a))
        for j, v in h.items():
            # b(m) = 0 for |m| > 1, so only k = j - 1, j, j + 1 contribute
            direct = a.get(j, 0.0) - sum(c[k] * b[j - k] for k in (j - 1, j, j + 1) if k in c)
            assert abs(v - direct) <= tol

    def test_truncated_keeps_deepest_solution(self):
        f = tabulated_ar(0.5)
        p = ObservationPattern("S2", N=1, M2=1, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        sol = solve_truncated(p, w, f)
        deepest = solve(p.with_truncation(sol.convergence["schedule"][-1]), w, f)
        assert np.array_equal(sol.c, deepest.c)
        assert sol.h_coeffs == deepest.h_coeffs
        assert np.array_equal(sol.h_grid, deepest.h_grid)


def test_poly_on_grid_matches_per_index_loop():
    rng = np.random.default_rng(5)
    p = ObservationPattern("S6", N=2, M1=3, N1=5, M2=1, N2=4)
    idx = missing_indices(p)
    coeffs = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    coeffs[3] = complex(-0.0, -0.0)
    half = max(abs(j) for j in idx)
    spread = np.zeros(2 * half + 1, dtype=complex)
    for j, v in zip(idx, coeffs):
        spread[j + half] += v
    expected = evaluate_trig_poly(spread, 256)
    assert np.array_equal(poly_on_grid(idx, coeffs, 256), expected)
    assert np.array_equal(poly_on_grid(tuple(idx), coeffs, 256), expected)
    assert np.array_equal(poly_on_grid([], np.zeros(0, dtype=complex), 64), np.zeros(64))


FINITE_DENSITIES = ["ar1_real", "ar1_complex", "ar2", "inverse_poly"]


def random_weights(rng, idx):
    return {j: complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)) for j in idx}


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        density=st.sampled_from(FINITE_DENSITIES),
        N=st.integers(0, 4), M1=st.integers(1, 6), N1=st.integers(0, 8),
        M2=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_s6_without_right_block_is_s4(self, density, N, M1, N1, M2, seed):
        rng = np.random.default_rng(seed)
        f, _ = draw_density(density, rng)
        s6 = ObservationPattern("S6", N=N, M1=M1, N1=N1, M2=M2, N2=0)
        s4 = ObservationPattern("S4", N=N, M1=M1, N1=N1)
        w = FunctionalWeights(values=random_weights(rng, missing_indices(s4)))
        sol6, sol4 = solve(s6, w, f), solve(s4, w, f)
        assert sol6.indices == sol4.indices
        assert np.array_equal(sol6.c, sol4.c)
        assert sol6.delta == sol4.delta

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["S1", "S2", "S3", "S4", "S5", "S6"]),
        density=st.sampled_from(FINITE_DENSITIES),
        N=st.integers(0, 4), M1=st.integers(1, 6), N1=st.integers(0, 8),
        M2=st.integers(1, 6), N2=st.integers(0, 8), T=st.integers(1, 30),
        grow_left=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_zero_weight_index_never_lowers_delta(self, kind, density, N, M1, N1, M2, N2, T,
                                                  grow_left, seed):
        rng = np.random.default_rng(seed)
        f, _ = draw_density(density, rng)
        p = ObservationPattern(kind, N=N, M1=M1, N1=N1, M2=M2, N2=N2, T=T)
        # one block one index longer: deeper truncation for S1-S3
        if p.is_infinite:
            q = p.with_truncation(T + 1)
        elif (grow_left and p.has_left) or not p.has_right:
            q = dataclasses.replace(p, N1=N1 + 1)
        else:
            q = dataclasses.replace(p, N2=N2 + 1)
        small = missing_indices(p)
        added = sorted(set(missing_indices(q)) - set(small))
        assert added
        values = random_weights(rng, small)
        d_small = solve(p, FunctionalWeights(values=values), f).delta
        zeros = dict.fromkeys(added, 0.0)
        d_large = solve(q, FunctionalWeights(values={**values, **zeros}), f).delta
        assert d_large >= d_small * (1 - 1e-12)
