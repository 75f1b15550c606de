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
    grid_fourier_coefficients,
    inverse_fourier_coeffs,
)
from gapinterp import interpolate
from gapinterp.errors import (
    InvalidParameters,
    LagOutOfRange,
    NotConverged,
    NotPositiveDefinite,
)
from gapinterp.interpolate import (
    error_value,
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
    on the quadrature of 1/f."""
    return Tabulated(RationalAR(alpha=alpha).on_grid(grid_size))


def cond(f, grid_size=4096):
    """max f / min f on the grid."""
    g = f.on_grid(grid_size)
    return float(g.max() / g.min())


def ones_weights(pattern):
    return FunctionalWeights(values={j: 1.0 for j in missing_indices(pattern)})


def random_coeffs(rng, half):
    """A Hermitian coefficient sequence whose trig polynomial is positive: |poly|^2
    lifted by a tenth of its mean, so a root of poly near the circle cannot take
    its minimum below the POSITIVITY_RTOL that densities refuse."""
    gamma = rng.normal(size=half + 1) + 1j * rng.normal(size=half + 1)
    gamma[0] = abs(gamma[0]) + 1.0
    lam = angular_grid(2048)
    poly = sum(g * np.exp(-1j * n * lam) for n, g in enumerate(gamma))
    vals = np.abs(poly) ** 2 + 0.1 * float(np.sum(np.abs(gamma) ** 2))
    from gapinterp.densities import grid_fourier_coefficients

    b = grid_fourier_coefficients(vals, half)
    return FourierCoeffs(0.5 * (b + np.conj(b[::-1])))


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
        b = FourierCoeffs.from_dict({0: 1.0}).resized(10)
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
        assert abs(sol.c[sol.indices.index(0)] - 4 / 3) < 1e-12
        assert abs(sol.c[sol.indices.index(1)] - 4 / 3) < 1e-12
        assert abs(sol.c[sol.indices.index(-3)] - 28 / 17) < 1e-12
        assert abs(sol.c[sol.indices.index(-4)] - 36 / 17) < 1e-12
        assert abs(sol.c[sol.indices.index(-5)] - 28 / 17) < 1e-12
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

    def test_table_finer_than_grid_read_as_solve_reads_it(self):
        # a 1024-value table on a 512-point grid: solve and mse_of_characteristic
        # both keep its lags below 256, so the characteristic attains delta
        p = ObservationPattern("S5", N=0, M2=1, N2=1)
        w = ones_weights(p)
        lam = angular_grid(1024)
        f = Tabulated(1.5 + np.cos(lam) + 0.4 * np.cos(300 * lam))  # lag 300 is past 256
        sol = solve(p, w, f, grid_size=512)
        value = mse_of_characteristic(sol.h_grid, p, w, f)
        assert abs(value - sol.delta) <= 1e-12 * sol.delta

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


def depths_tried(monkeypatch, pattern):
    """The depths at which solve_truncated solves, read off the sizes of its
    Gram systems (the central block holds N + 1 indices)."""
    sizes = []
    gram = interpolate.solve_gram
    monkeypatch.setattr(interpolate, "solve_gram",
                        lambda idx, a, b: sizes.append(len(idx)) or gram(idx, a, b))
    sides = pattern.has_left + pattern.has_right
    return lambda: [(n - pattern.N - 1) // sides for n in sizes]


class TestSolveTruncated:
    def test_plateau_and_convergence(self):
        # the cut error no longer moves with the depth, and it is the
        # infinite problem's: the AR density the table was sampled from
        f = tabulated_ar(0.5)
        p = ObservationPattern("S2", N=1, M2=1, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        sol = solve_truncated(p, w, f)
        assert sol.convergence == {"depth": 31}
        deeper = solve(p.with_truncation(2 * 31), w, f)
        assert abs(sol.delta - deeper.delta) <= 1e-15 * sol.delta
        exact = solve_truncated(p, w, RationalAR(alpha=0.5))
        assert abs(sol.delta - exact.delta) <= 1e-12 * cond(RationalAR(alpha=0.5)) * exact.delta

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

    def test_not_converged_raises(self, monkeypatch):
        # rho = 0.97 needs D = 682; a 4096-point grid's quadrature holds a
        # span of K up to 1024, 2 + 2 D at D = 511, which is tried once
        p = ObservationPattern("S3", N=0, M1=1, M2=1, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.97))
        tried = depths_tried(monkeypatch, p)
        with pytest.raises(NotConverged) as err:
            solve_truncated(p, w, tabulated_ar(0.5))
        assert err.value.diagnostics == {"depth": 511, "grid_size": 4096}
        assert tried() == [511]
        # the same grid holds D = 682 for S1, whose span is 1 + D
        s1 = ObservationPattern("S1", N=0, M1=1, T=1)
        assert solve_truncated(s1, w, tabulated_ar(0.5)).convergence["depth"] == 682

    def test_no_depth_within_the_grid(self):
        # a 64-point grid holds a span of 16: D = 7 for this S3, tried once;
        # an 8-point grid holds a span of 2, no depth at all
        p = ObservationPattern("S3", N=0, M1=1, M2=1, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        with pytest.raises(NotConverged) as err:
            solve_truncated(p, w, Tabulated(np.ones(64)), grid_size=64)
        assert err.value.diagnostics == {"depth": 7, "grid_size": 64}
        with pytest.raises(InvalidParameters, match="at most 0 indices"):
            solve_truncated(p, w, Tabulated(np.ones(64)), grid_size=8)
        # explicit weights 8 deep need a span of 18, past the 16 of 64 points
        with pytest.raises(InvalidParameters, match="the weights need 8"):
            solve_truncated(p, FunctionalWeights(values={0: 1.0, 9: 1.0}),
                            Tabulated(np.ones(64)), grid_size=64)

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    def test_doubling_converges_near_unit_decay(self, kind, monkeypatch):
        # fast weights start the cut at D = 31 (0.5^62 < 1e-18), which the
        # table's root 0.95 does not show; the edge rule doubles it to 496,
        # which an 8192-point grid's quadrature holds for S3 (span 998)
        grid = 8192
        p = ObservationPattern(kind, N=1, M1=2, M2=3, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        tried = depths_tried(monkeypatch, p)
        sol = solve_truncated(p, w, tabulated_ar(0.95, grid), grid_size=grid)
        assert tried() == [31, 62, 124, 248, 496]
        assert sol.convergence == {"depth": 496}
        monkeypatch.undo()
        f = RationalAR(alpha=0.95)
        exact = solve_truncated(p, w, f)
        assert abs(sol.delta - exact.delta) <= 1e-12 * cond(f) * exact.delta


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
        b = FourierCoeffs.from_dict({0: 1.0, 1: 1.0, -1: 1.0}).resized(2)
        with pytest.raises(NotPositiveDefinite):
            solve_gram([0, 1, 2], np.ones(3, dtype=complex), b)

    def test_imaginary_error_value_raises(self):
        # <c, a> of a Hermitian positive definite B is real: an imaginary part is not
        with pytest.raises(NotPositiveDefinite, match="imaginary part"):
            error_value(np.array([1j]), np.array([1.0]))

    def test_lag_out_of_range(self):
        b = FourierCoeffs.from_dict({0: 1.25, 1: -0.5, -1: -0.5})
        with pytest.raises(LagOutOfRange):
            solve_gram([0, 2], np.ones(2, dtype=complex), b)


def spy_routines(monkeypatch):
    """Count the calls of the real and the complex banded Cholesky routines."""
    calls = {"real": 0, "complex": 0}
    for name, kind in (("_DPBSV", "real"), ("_DPTSV", "real"),
                       ("_PBSV", "complex"), ("_PTSV", "complex")):
        def spy(*args, _routine=getattr(interpolate, name), _kind=kind, **kwargs):
            calls[_kind] += 1
            return _routine(*args, **kwargs)
        monkeypatch.setattr(interpolate, name, spy)
    return calls


def real_band(p, rng):
    """Real Hermitian b of degree p whose trig polynomial is positive."""
    gamma = np.concatenate(([2.0], rng.uniform(-0.5, 0.5, size=p)))
    b = np.convolve(gamma, gamma[::-1])
    return FourierCoeffs(b)


class TestRealRoutine:
    """From ARRAY_MIN indices on, a real band and right-hand side go to the real
    routine; the complex one solves every other system."""

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 200])
    def test_real_matches_complex(self, monkeypatch, p, offset):
        rng = np.random.default_rng(10 * p + offset)
        n = interpolate.ARRAY_MIN + offset
        idx = rng.permutation(n) - n // 3
        b = real_band(p, rng).resized(n)
        a = rng.uniform(0.2, 2.0, size=n).astype(complex)
        calls = spy_routines(monkeypatch)
        c = solve_gram(idx, a, b)
        assert calls == {"real": int(offset >= 0), "complex": int(offset < 0)}
        monkeypatch.setattr(interpolate, "ARRAY_MIN", 10 ** 9)
        c_complex = solve_gram(idx, a, b)
        assert calls["complex"] == 1 + int(offset < 0)
        assert c.dtype == complex
        assert np.linalg.norm(c - c_complex) <= 1e-13 * np.linalg.norm(c_complex)
        # a list, a tuple and the int array of the same indices take the same
        # routine and give the same c, and a geometric profile the same weights
        monkeypatch.undo()
        geometric = FunctionalWeights(geometric=(1.5, 0.97))
        a_geometric = geometric.on(idx)
        for same in (idx.tolist(), tuple(idx.tolist()), idx.copy()):
            assert np.array_equal(solve_gram(same, a, b), c)
            assert np.array_equal(geometric.on(same), a_geometric)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_complex_rhs_stays_complex(self, monkeypatch, p):
        rng = np.random.default_rng(p)
        n = interpolate.ARRAY_MIN + 5
        b = real_band(p, rng).resized(n)
        a = rng.uniform(0.2, 2.0, size=n) + 1e-3j
        calls = spy_routines(monkeypatch)
        c = solve_gram(np.arange(n), a, b)
        assert calls == {"real": 0, "complex": 1}
        dense = np.linalg.solve(b.values[np.subtract.outer(np.arange(n), np.arange(n)) + n], a)
        assert np.linalg.norm(c - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("rhs", ["real", "complex"])
    def test_indefinite_raises(self, monkeypatch, p, rhs):
        # 1 + 1.8 cos(lambda) + ... dips below 0, so the Toeplitz band is indefinite
        b = FourierCoeffs.from_dict({0: 1.0, **{m: 0.9 for m in range(-p, p + 1) if m}})
        n = interpolate.ARRAY_MIN + 3
        a = np.ones(n, dtype=complex) * (1.0 if rhs == "real" else 1.0 + 1j)
        calls = spy_routines(monkeypatch)
        with pytest.raises(NotPositiveDefinite, match="leading minor not positive definite"):
            solve_gram(np.arange(n), a, b.resized(n))
        assert calls[rhs] == 1 and sum(calls.values()) == 1

    def test_a_complex_band_stays_complex(self, monkeypatch):
        n = interpolate.ARRAY_MIN + 1
        b = FourierCoeffs.from_dict({0: 1.25, 1: -0.5j, -1: 0.5j}).resized(n)
        calls = spy_routines(monkeypatch)
        solve_gram(np.arange(n), np.ones(n, dtype=complex), b)
        assert calls == {"real": 0, "complex": 1}


class TestAtTheCrossover:
    """`solve` and `solve_truncated` hand K to the Gram solve (and to a geometric
    profile) as a tuple below ARRAY_MIN indices and as an int array from it on:
    the same indices, and the same delta to rounding, on either side."""

    AR2 = RationalAR(alpha=np.array([0.3, -0.2]), sigma2=1.3)

    @pytest.mark.parametrize("weights", ["real", "complex", "geometric"])
    @pytest.mark.parametrize("below", [1, 0])
    def test_solve(self, monkeypatch, weights, below):
        n = interpolate.ARRAY_MIN - below
        p = ObservationPattern("S6", N=3, M1=5, N1=(n - 4) // 2, M2=4, N2=n - 4 - (n - 4) // 2)
        idx = missing_indices(p)
        assert len(idx) == n
        rng = np.random.default_rng(n)
        imag = 1.0 if weights == "complex" else 0.0
        w = (FunctionalWeights(geometric=(1.3, 0.9)) if weights == "geometric" else
             FunctionalWeights(values={j: complex(rng.uniform(0.2, 2.0), imag * rng.uniform(-1, 1))
                                       for j in idx}))
        calls = spy_routines(monkeypatch)
        sol = solve(p, w, self.AR2)
        assert calls["real"] == int(not below and weights != "complex")
        assert sol.indices == tuple(idx) and all(type(j) is int for j in sol.indices)
        assert type(sol.delta) is float
        for other in (1, 10 ** 9):  # the array path, and the tuple path, at every size
            monkeypatch.setattr(interpolate, "ARRAY_MIN", other)
            again = solve(p, w, self.AR2)
            assert again.indices == sol.indices and type(again.delta) is float
            assert np.array_equal(again.a, sol.a)
            assert abs(again.delta - sol.delta) <= 1e-14 * sol.delta
            assert np.linalg.norm(again.c - sol.c) <= 1e-13 * np.linalg.norm(sol.c)

    @pytest.mark.parametrize("below", [1, 0])
    def test_solve_truncated(self, monkeypatch, below):
        # the crossover put just above, or at, the size of the converged cut
        p = ObservationPattern("S3", N=1, M1=2, M2=3, T=1)
        w = FunctionalWeights(geometric=(1.7, 0.5))
        first = solve_truncated(p, w, self.AR2)
        n = len(first.indices)
        monkeypatch.setattr(interpolate, "ARRAY_MIN", n + below)
        sol = solve_truncated(p, w, self.AR2)
        cut = solve(p.with_truncation(sol.convergence["depth"]), w, self.AR2)
        assert sol.convergence == first.convergence
        assert sol.indices == cut.indices == first.indices
        assert sol.delta == cut.delta and np.array_equal(sol.c, cut.c)
        assert abs(sol.delta - first.delta) <= 1e-14 * first.delta


def grid_route(sol, f):
    """The characteristic by the grid-and-FFT route: h = A - C/f on the grid
    of sol.grid_size points, then its Fourier coefficients by FFT on the lag
    window |m| <= 2 max|t| + 64. Returns (h on the grid, {lag: coefficient})."""
    half = max(abs(j) for j in sol.indices)

    def on_grid(values):
        spread = np.zeros(2 * half + 1, dtype=complex)
        for j, v in zip(sol.indices, values):
            spread[j + half] += v
        return poly_on_grid(range(-half, half + 1), spread, sol.grid_size)

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
        if degree is None:
            # the grid FFT's lags, from the first to the last above the
            # rounding of C/f: they hold K, and nothing left out of the
            # window is larger than rounding
            assert set(h) == set(range(min(h), max(h) + 1)) >= set(idx)
            assert len(h) <= sol.grid_size
            assert all(abs(v) <= tol for j, v in reference.items() if j not in h)
        else:
            assert set(range(lo - degree, hi + degree + 1)) <= set(h)
            assert all(lo - degree <= j <= hi + degree for j, v in h.items() if v != 0)

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["S4", "S5", "S6"]),
        inverse_poly=st.booleans(),
        N=st.integers(0, 4), M1=st.integers(1, 6), N1=st.integers(0, 8),
        M2=st.integers(1, 6), N2=st.integers(0, 8), extra=st.integers(65, 200),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_polynomial_support_past_the_span(self, kind, inverse_poly, N, M1, N1, M2, N2,
                                              extra, seed):
        # a degree p beyond span(K) + 64: b holds all of 1/f, and h(j) is
        # nonzero exactly on [min K - p, max K + p]
        rng = np.random.default_rng(seed)
        left = {"M1": M1, "N1": N1} if kind in ("S4", "S6") else {}
        right = {"M2": M2, "N2": N2} if kind in ("S5", "S6") else {}
        pattern = ObservationPattern(kind, N=N, **left, **right)
        idx = missing_indices(pattern)
        lo, hi = min(idx), max(idx)
        p = hi - lo + extra
        if inverse_poly:
            f = InversePolynomial(FourierCoeffs.from_dict(
                {0: 2.0, 1: -0.5, -1: -0.5, p: 0.4, -p: 0.4}))
        else:
            alpha = np.zeros(p)
            alpha[0] = rng.uniform(-0.4, 0.4)
            alpha[-1] = rng.choice([-1, 1]) * rng.uniform(0.1, 0.5)
            f = RationalAR(alpha=alpha)
        w = FunctionalWeights(values={j: complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
                                      for j in idx})
        sol = solve(pattern, w, f)
        assert sol.b.half_length == p
        h = sol.h_coeffs
        assert sorted(h) == list(range(lo - p, hi + p + 1))
        assert h[lo - p] != 0 and h[hi + p] != 0

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
        deepest = solve(p.with_truncation(sol.convergence["depth"]), w, f)
        assert np.array_equal(sol.c, deepest.c)
        assert sol.h_coeffs == deepest.h_coeffs
        assert np.array_equal(sol.h_grid, deepest.h_grid)


def test_poly_on_grid_matches_per_index_loop():
    # K = {-8..-4, 0..2, 4..7}: on 7 and 8 points lags collide mod G, and every
    # grid of 16 points or fewer was refused (2 max|j| >= G)
    rng = np.random.default_rng(5)
    p = ObservationPattern("S6", N=2, M1=3, N1=5, M2=1, N2=4)
    idx = missing_indices(p)
    coeffs = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    coeffs[3] = complex(-0.0, -0.0)
    for grid in (7, 8, 16, 24, 256):
        lam = angular_grid(grid)
        expected = sum(v * np.exp(1j * j * lam) for j, v in zip(idx, coeffs))
        got = poly_on_grid(idx, coeffs, grid)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.abs(coeffs).sum(), grid
        assert np.array_equal(poly_on_grid(tuple(idx), coeffs, grid), got)
    assert np.array_equal(poly_on_grid([], np.zeros(0, dtype=complex), 64), np.zeros(64))
    with pytest.raises(InvalidParameters):
        poly_on_grid(idx, coeffs, 0)


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
