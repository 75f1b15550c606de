"""Spectral density representations and quadrature."""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from gapinterp.densities import (
    CERTIFY_MAX_GRID,
    FourierCoeffs,
    InversePolynomial,
    RationalAR,
    Tabulated,
    angular_grid,
    check_positive,
    covariances,
    evaluate_trig_poly,
    grid_fourier_coefficients,
    inverse_fourier_coeffs,
    minimality_value,
    poly_on_grid,
)
from gapinterp.errors import InvalidParameters, NonPositiveDensity
from gapinterp.interpolate import solve
from gapinterp.patterns import FunctionalWeights, ObservationPattern


def quad_coefficient(func, m):
    """Adaptive-quadrature oracle for (1/2pi) int func(l) e^{-iml} dl."""
    re = scipy.integrate.quad(lambda l: func(l) * np.cos(m * l), -np.pi, np.pi, limit=200)[0]
    im = scipy.integrate.quad(lambda l: -func(l) * np.sin(m * l), -np.pi, np.pi, limit=200)[0]
    return (re + 1j * im) / (2 * np.pi)


class TestGridQuadrature:
    def test_round_trip_with_trig_poly(self):
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        vals = poly_on_grid(range(-4, 5), coeffs, 64)
        back = grid_fourier_coefficients(vals, 4)
        assert np.allclose(back, coeffs, atol=1e-13)

    def test_constant(self):
        vals = np.full(32, 3.0)
        c = grid_fourier_coefficients(vals, 3)
        assert abs(c[3] - 3.0) < 1e-14
        assert np.max(np.abs(np.delete(c, 3))) < 1e-14

    def test_lag_too_large(self):
        with pytest.raises(InvalidParameters):
            grid_fourier_coefficients(np.ones(16), 8)

    def test_positivity_relative_to_the_maximum(self):
        values = np.ones(16)
        check_positive(values)
        values[5] = 1e-12  # positive, but not relative to the maximum
        with pytest.raises(NonPositiveDensity, match="min 1.000e-12, max 1.000e"):
            check_positive(values)

    @pytest.mark.parametrize("where", [0, 5])
    def test_nan_row_fails_positivity(self, where):
        # top > 0 and low > rtol * top are both False for NaN values
        values = np.ones(16)
        values[where] = np.nan
        with pytest.raises(NonPositiveDensity):
            check_positive(values)

    @pytest.mark.parametrize("shape", [(4096,), (64,), (1023,)])
    def test_real_input_matches_the_complex_path(self, shape):
        values = np.random.default_rng(8).uniform(0.05, 20.0, size=shape)
        real = grid_fourier_coefficients(values, 20)
        full = grid_fourier_coefficients(values.astype(complex), 20)
        assert np.max(np.abs(real - full)) <= 1e-15 * np.max(np.abs(full))
        # exactly Hermitian: b(-m) = conj(b(m)) to the bit
        assert np.array_equal(real, np.conj(real[::-1]))


class TestFourierCoeffs:
    def test_from_dict_and_indexing(self):
        b = FourierCoeffs.from_dict({0: 1.25, 1: -0.5, -1: -0.5})
        assert b[0] == 1.25
        assert b[1] == -0.5
        assert b[7] == 0.0
        assert np.array_equal(b.values, np.conj(b.values[::-1]))

    def test_even_length_rejected(self):
        with pytest.raises(InvalidParameters):
            FourierCoeffs(np.ones(4))


class TestInverseCoefficients:
    def test_ar1_real(self):
        b = inverse_fourier_coeffs(RationalAR(alpha=0.5), half_length=4)
        assert abs(b[0] - 1.25) < 1e-14
        assert abs(b[1] + 0.5) < 1e-14
        assert abs(b[-1] + 0.5) < 1e-14
        assert abs(b[2]) < 1e-14

    def test_ar1_complex(self):
        alpha = 0.3 + 0.1j
        b = inverse_fourier_coeffs(RationalAR(alpha=alpha), half_length=4)
        assert abs(b[0] - (1 + abs(alpha) ** 2)) < 1e-14
        assert abs(b[1] + np.conj(alpha)) < 1e-14
        assert abs(b[-1] + alpha) < 1e-14

    def test_white_noise(self):
        b = inverse_fourier_coeffs(Tabulated(np.ones(512)), half_length=8, grid_size=512)
        assert abs(b[0] - 1.0) < 1e-13
        assert all(abs(b[m]) < 1e-13 for m in range(1, 9))

    def test_matches_adaptive_quadrature(self):
        f = RationalAR(alpha=np.array([0.4, -0.2]))
        b = inverse_fourier_coeffs(f, half_length=6)

        def inv(l):
            phi = 1 - 0.4 * np.exp(-1j * l) + 0.2 * np.exp(-2j * l)
            return abs(phi) ** 2

        for m in range(4):
            assert abs(b[m] - quad_coefficient(inv, m)) < 1e-8 * abs(b[0])

    def test_inverse_poly_round_trip(self):
        b = FourierCoeffs.from_dict({0: 2.0, 1: 0.3 - 0.2j, -1: 0.3 + 0.2j})
        back = inverse_fourier_coeffs(InversePolynomial(b), half_length=1)
        assert np.allclose(back.values, b.values, atol=1e-12)

    def test_tabulated_grid_too_coarse_refused(self):
        with pytest.raises(InvalidParameters, match="at least 4 \\* half_length"):
            inverse_fourier_coeffs(Tabulated([1.0] * 64), half_length=20, grid_size=64)

    def test_nonpositive_rejected(self):
        # 1 + 2 cos(2 lambda) dips to -1: refused when built, before any lag is read
        with pytest.raises(NonPositiveDensity):
            InversePolynomial(FourierCoeffs.from_dict({0: 1.0, 2: 1.0, -2: 1.0}))

    @pytest.mark.parametrize("degree", [3, 100])
    def test_nonpositive_refused_by_solve(self, degree):
        # 1 + 1.2 cos(degree lambda) dips to -0.2, at degree 100 too, far
        # past the span 6 of K; the density a solve is given is refused as it is built
        with pytest.raises(NonPositiveDensity):
            solve(ObservationPattern("S4", N=1, M1=2, N1=3), FunctionalWeights({0: 1, 1: 1}),
                  InversePolynomial(FourierCoeffs.from_dict({0: 1.0, degree: 0.6, -degree: 0.6})))

    def test_degree_past_the_grid_folds(self):
        # validity reads no grid: the coefficients are held whole on any grid, and
        # the grid values are exact on any grid, lag 40 summed at 40 mod G
        f = InversePolynomial(FourierCoeffs.from_dict({0: 1.0, 40: 0.1, -40: 0.1}))
        b = inverse_fourier_coeffs(f, half_length=4, grid_size=64)
        assert b.half_length == 40 and b[40] == 0.1 and b[0] == 1.0
        for grid in (1, 2, 3, 7, 40, 64, 80, 81, 128):
            exact = 1.0 + 0.2 * np.cos(40 * angular_grid(grid))
            assert np.allclose(f.inverse_on_grid(grid), exact, rtol=0, atol=1e-14), grid
            assert np.allclose(f.on_grid(grid), 1.0 / exact, rtol=0, atol=1e-14), grid
            assert np.allclose(f.inv_coeffs.evaluate(grid), exact, rtol=0, atol=1e-14), grid

    @pytest.mark.parametrize("half_length", [0, 1, 2, 5])
    def test_ar_cut_or_padded(self, half_length):
        # padded to half_length, never cut below the degree 2: b holds all of 1/f
        exact = RationalAR(alpha=np.array([0.3, 0.2])).exact_inverse_coeffs()
        b = inverse_fourier_coeffs(RationalAR(alpha=np.array([0.3, 0.2])), half_length)
        assert b.half_length == max(half_length, 2)
        assert all(b[m] == exact[m] for m in range(-b.half_length, b.half_length + 1))


    @pytest.mark.parametrize("alpha, degree", [
        ([0.3, 0.2], 2), ([0.3, 0.0], 1), ([0.0, 0.0], 0), ([0.5 + 0.2j], 1)])
    @pytest.mark.parametrize("half_length", [0, 1, 2, 7])
    def test_ar_built_at_its_length(self, alpha, degree, half_length):
        # one array at the padded length, bit for bit the short expansion padded
        f = RationalAR(alpha=np.array(alpha))
        b = f.exact_inverse_coeffs(half_length)
        padded = f.exact_inverse_coeffs().resized(max(half_length, f.alpha.size))
        assert np.array_equal(b.values, padded.values)
        assert b.degree == degree == FourierCoeffs(b.values).degree


def off_grid_dip(eps):
    """b of 1/f = 1 + eps - cos(lambda - pi/4096), whose minimum eps lies half a step
    off the 4096-point grid, between its points."""
    b1 = -0.5 * np.exp(-1j * np.pi / 4096)
    return FourierCoeffs.from_dict({0: 1.0 + eps, 1: b1, -1: np.conj(b1)})


DIP_PATTERN = ObservationPattern("S4", N=0, M1=1, N1=0)  # K = {0}: delta = 1 / b(0)
DIP_WEIGHTS = FunctionalWeights({0: 1})


class TestCertifiedPositivity:
    @pytest.mark.parametrize("eps", [-1e-8, -2e-7])
    def test_off_grid_dip_refused(self, eps):
        # the 4096-point grid missed the dip: the density was accepted there, and
        # refused at 8192 points
        with pytest.raises(NonPositiveDensity) as info:
            InversePolynomial(off_grid_dip(eps))
        d = info.value.diagnostics
        assert d["inv_lower_bound"] <= d["inv_min"] < 0 < d["inv_max"]
        assert abs(d["inv_min"] - eps) < 1e-14  # the refusing grid holds the dip

    @pytest.mark.parametrize("grid", [64, 4096, 8192, 16384])
    @pytest.mark.parametrize("eps", [-1e-8, -2e-7])
    def test_off_grid_dip_refused_by_solve_on_every_grid(self, eps, grid):
        with pytest.raises(NonPositiveDensity):
            solve(DIP_PATTERN, DIP_WEIGHTS, InversePolynomial(off_grid_dip(eps)), grid_size=grid)

    def test_shallow_positive_dip_accepted_on_every_grid(self):
        # min 1e-8 is 5e-9 of the maximum 2, above the rule's 1e-9
        f = InversePolynomial(off_grid_dip(1e-8))
        grids = (64, 4096, 8192, 16384)
        (delta,) = {solve(DIP_PATTERN, DIP_WEIGHTS, f, grid_size=g).delta for g in grids}
        assert abs(delta - 1.0 / (1.0 + 1e-8)) < 1e-15

    def test_undecided_at_the_cap_refused(self):
        # min 2.0000001e-9 of 1 + 2.0000001e-9 - cos(lambda) is above 1e-9 of the maximum by
        # 1e-16, less than any grid up to CERTIFY_MAX_GRID can resolve: refused undecided
        with pytest.raises(NonPositiveDensity, match="not certified strictly positive") as info:
            InversePolynomial(FourierCoeffs.from_dict({0: 1 + 2.0000001e-9, 1: -0.5, -1: -0.5}))
        d = info.value.diagnostics
        assert d["inv_lower_bound"] < 1e-9 * d["inv_max"] < d["inv_min"]
        assert CERTIFY_MAX_GRID // 4 < d["grid_size"] <= CERTIFY_MAX_GRID

    @pytest.mark.parametrize("big", [1e308, 1.7e308])
    def test_scale_does_not_overflow(self, big):
        # the rule is decided on b / max |b|, with no warning (an error in this suite)
        InversePolynomial(FourierCoeffs.from_dict({0: big, 1: big / 4, -1: big / 4}))
        with pytest.raises(NonPositiveDensity, match="not strictly positive"):
            InversePolynomial(FourierCoeffs.from_dict({0: big, 1: big, -1: big}))


class TestDegree:
    @pytest.mark.parametrize("half_length, degree", [(0, 0), (2, 0), (3, 3), (5, 3)])
    def test_kept_through_resizing(self, half_length, degree):
        b = FourierCoeffs.from_dict({0: 2.0, 3: 0.1, -3: 0.1})
        assert b.degree == 3
        assert b.resized(half_length).degree == degree

    def test_zero_coefficients(self):
        assert FourierCoeffs(np.zeros(7)).degree == 0

    def test_read_from_values_only(self):
        # not a constructor option: a given degree could disagree with the values
        vals = np.array([0.1, 0.0, 0.0, 2.0, 0.0, 0.0, 0.1])
        with pytest.raises(TypeError):
            FourierCoeffs(vals, 0)
        b = FourierCoeffs(vals)
        assert b.degree == 3
        assert "degree" not in repr(b) and b == FourierCoeffs(vals)


class _Subclass(np.ndarray):
    """An ndarray subclass, of which np.asarray returns a base-class view."""


class TestCallerArrays:
    def test_edited_table_keeps_its_grids_consistent(self):
        # the caller's array was kept: after the edit on_grid(128) returned the
        # old values and on_grid(256) the new ones
        arr = 1.5 + np.cos(angular_grid(64))
        f = Tabulated(arr)
        first = f.on_grid(128)
        arr[:] = 1.0
        assert np.max(np.abs(f.on_grid(256)[::2] - first)) <= 1e-14
        assert np.array_equal(f.values, 1.5 + np.cos(angular_grid(64)))

    @pytest.mark.parametrize("make, name, dtype", [
        (lambda v: RationalAR(alpha=v), "alpha", complex),
        (FourierCoeffs, "values", complex),
        (Tabulated, "values", float),
    ], ids=["ar", "coeffs", "tabulated"])
    def test_writable_array_copied_read_only_array_kept(self, make, name, dtype):
        arr = np.array([0.2, 1.0, 0.2, 1.5, 0.3], dtype=dtype)
        held = getattr(make(arr), name)
        assert held is not arr and not held.flags.writeable
        arr[0] = 0.1
        assert held[0] == 0.2
        arr.setflags(write=False)
        assert getattr(make(arr), name) is arr
        assert getattr(make(arr.tolist()), name).flags.writeable is False

    @pytest.mark.parametrize("make, name, dtype", [
        (lambda v: RationalAR(alpha=v), "alpha", complex),
        (FourierCoeffs, "values", complex),
        (Tabulated, "values", float),
    ], ids=["ar", "coeffs", "tabulated"])
    @pytest.mark.parametrize("wrap", [
        lambda a: a[1:6], np.ma.masked_array, memoryview, lambda a: a.view(_Subclass),
    ], ids=["slice", "masked", "memoryview", "subclass"])
    def test_view_of_caller_memory_copied(self, make, name, dtype, wrap):
        # np.asarray gives a view of the caller's writable memory, not the object passed
        arr = np.array([0.2, 1.0, 0.2, 1.5, 0.3, 0.1, 0.2], dtype=dtype)
        held = getattr(make(wrap(arr)), name)
        before = held.copy()
        assert not held.flags.writeable and not np.shares_memory(held, arr)
        arr[:] = 0.05
        assert np.array_equal(held, before)
        assert arr.flags.writeable  # the caller's memory is left writable


class TestMinimality:
    def test_white_noise(self):
        assert abs(minimality_value(Tabulated(np.ones(512)), grid_size=512) - 1.0) < 1e-14

    def test_ar1(self):
        assert abs(minimality_value(RationalAR(alpha=0.5)) - 1.25) < 1e-12

    @pytest.mark.parametrize("grid", [1, 2, 3, 4096])
    def test_finite_degree_exact_on_any_grid(self, grid):
        # b(0), where a mean over G <= p points aliased (2.25 for AR(1) 0.5 at G = 1),
        # and an InversePolynomial of degree 2 was refused on G <= 4
        assert abs(minimality_value(RationalAR(alpha=0.5), grid_size=grid) - 1.25) < 1e-12
        f = InversePolynomial(FourierCoeffs.from_dict({0: 2.0, 2: 0.5 - 0.5j, -2: 0.5 + 0.5j}))
        assert minimality_value(f, grid_size=grid) == 2.0

    def test_shifted_cosine_vs_quadrature(self):
        lam = angular_grid(4096)
        value = minimality_value(Tabulated(2.0 + np.cos(lam)))
        oracle = scipy.integrate.quad(lambda l: 1 / (2 + np.cos(l)), -np.pi, np.pi)[0] / (2 * np.pi)
        assert abs(value - oracle) < 1e-10
        assert abs(value - 1 / np.sqrt(3)) < 1e-10


class TestCovariance:
    def test_white_noise(self):
        r = covariances(Tabulated(np.ones(512)), 3)
        assert abs(r[0] - 1.0) < 1e-13
        assert abs(r[3]) < 1e-13

    def test_ar1_geometric(self):
        f = RationalAR(alpha=0.5)
        for n in range(6):
            expected = 0.5 ** n / 0.75
            assert abs(covariances(f, n)[n] - expected) < 1e-10

    def test_shifted_cosine(self):
        lam = angular_grid(4096)
        f = Tabulated(2.0 + np.cos(lam))
        assert abs(covariances(f, 1)[1] - 0.5) < 1e-12
        assert abs(covariances(f, 0)[0] - 2.0) < 1e-12

    def test_matches_adaptive_quadrature(self):
        f = RationalAR(alpha=0.5)

        def fval(l):
            return 1.0 / abs(1 - 0.5 * np.exp(-1j * l)) ** 2

        for n in range(4):
            oracle = np.conj(quad_coefficient(fval, n))  # r(n) uses e^{+inl}
            assert abs(covariances(f, n)[n] - oracle) < 1e-8

    @pytest.mark.parametrize("max_lag, grid", [
        (0, 4096), (1, 4096), (700, 4096), (1023, 4096), (1024, 8192), (1500, 8192),
        (2047, 8192), (2048, 16384), (5000, 32768)])
    def test_grid_rule(self, max_lag, grid):
        # bit for bit the quadrature on the least power of two >= max(4096,
        # 4 (max_lag + 1)) points
        f = RationalAR(alpha=np.array([0.4 + 0.3j, -0.2]))
        expected = grid_fourier_coefficients(f.on_grid(grid), max_lag)[max_lag::-1]
        assert np.array_equal(covariances(f, max_lag), expected)


class TestParseval:
    @pytest.mark.parametrize("f", [
        RationalAR(alpha=0.5),
        RationalAR(alpha=np.array([0.3 + 0.1j])),
        InversePolynomial(FourierCoeffs.from_dict({0: 1.0, 2: 0.45, -2: 0.45})),
    ])
    def test_inverse_times_forward(self, f):
        vals = f.on_grid(4096)
        inv = f.inverse_on_grid(4096)
        assert abs(np.mean(vals * inv) - 1.0) < 1e-10


class TestRationalAR:
    def test_unit_root_rejected(self):
        with pytest.raises(InvalidParameters):
            RationalAR(alpha=1.0)

    @pytest.mark.parametrize("alpha", [
        [np.exp(1e-4j)],                  # simple root between grid points
        [2.0, -1.0],                      # double root at z = 1
        [3.0, -3.0, 1.0],                 # triple root at z = 1
        [2 * np.cos(0.3), -1.0],          # conjugate pair on the circle
    ])
    def test_off_grid_and_multiple_unit_roots_rejected(self, alpha):
        with pytest.raises(InvalidParameters):
            RationalAR(alpha=np.array(alpha))

    def test_roots_near_circle_accepted(self):
        RationalAR(alpha=0.999)
        RationalAR(alpha=0.999 * np.exp(1e-4j))

    def test_bad_sigma(self):
        with pytest.raises(InvalidParameters):
            RationalAR(alpha=0.5, sigma2=0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-0.9, max_value=0.9).filter(lambda a: abs(a) > 1e-3))
    def test_exact_expansion_matches_grid(self, alpha):
        f = RationalAR(alpha=alpha)
        exact = f.exact_inverse_coeffs()
        grid = grid_fourier_coefficients(f.inverse_on_grid(1024), 1)
        assert abs(exact[0] - grid[1]) < 1e-12
        assert abs(exact[1] - grid[2]) < 1e-12


def loop_causal_on_grid(d, grid_size):
    """sum_k d_k e^{-ik lambda} on the grid, one full-grid exp per coefficient:
    the reference for the FFT evaluation."""
    lam = angular_grid(grid_size)
    acc = np.zeros(grid_size, dtype=complex)
    for k, c in enumerate(d):
        acc += c * np.exp(-1j * k * lam)
    return acc


def ar_near_the_circle(order, is_complex, seed):
    """alpha with phi(z) = 1 - sum alpha_k z^k = prod (1 - w_k z), the first w at
    modulus 1 - 1e-6; conjugate pairs of w plus a real one when alpha is real."""
    rng = np.random.default_rng(seed)
    mod = np.concatenate(([1.0 - 1e-6], rng.uniform(0.0, 1.0 - 1e-6, size=order)))
    ang = rng.uniform(-np.pi, np.pi, size=order + 1)
    if is_complex:
        return -np.poly((mod * np.exp(1j * ang))[:order])[1:]
    pairs = [m * np.exp(s * 1j * a) for m, a in zip(mod[: order // 2], ang) for s in (1, -1)]
    alpha = -np.poly(pairs + [mod[-1] * np.sign(ang[-1])] * (order % 2))[1:]
    assert np.max(np.abs(alpha.imag)) < 1e-12
    return alpha.real


class TestCausalOnGrid:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_phi_squared_matches_per_lag_loop(self, order, is_complex, seed):
        alpha = ar_near_the_circle(order, is_complex, seed)
        f = RationalAR(alpha=alpha, sigma2=1.0)
        d = np.concatenate(([1.0], -np.atleast_1d(alpha)))
        for grid in (1, 2, 3, 2 * order + 1, 33, 4096):
            ref = np.abs(loop_causal_on_grid(d, grid)) ** 2
            got = f.inverse_on_grid(grid)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(ref), grid
            assert np.array_equal(f.on_grid(grid), 1.0 / got)


class TestTabulated:
    def test_resample_trig_exact(self):
        lam = angular_grid(256)
        f = Tabulated(2.0 + np.cos(lam))
        big = f.on_grid(1024)
        assert np.allclose(big, 2.0 + np.cos(angular_grid(1024)), atol=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 512])
    def test_even_table_reproduced_at_its_nodes(self, n):
        # the Nyquist term was dropped, so a finer grid missed the table's own values
        values = 1.2 + 0.1 * (-1.0) ** np.arange(n) + 0.05 * np.cos(angular_grid(n))
        f = Tabulated(values)
        for grid in (2 * n, 8 * n):
            assert np.max(np.abs(f.on_grid(grid)[:: grid // n] - values)) <= 1e-14

    def test_alternating_table_keeps_its_maximum(self):
        # 1.2 + 0.1 (-1)^k, k < 512, resampled to 4096 points had max 1.2
        f = Tabulated(1.2 + 0.1 * (-1.0) ** np.arange(512))
        assert abs(np.max(f.on_grid(4096)) - 1.3) <= 1e-14

    @pytest.mark.parametrize("n, grid", [(5, 64), (7, 4096), (511, 4096), (512, 100)])
    def test_odd_tables_and_downsampling_unchanged(self, n, grid):
        # no Nyquist term: the trigonometric interpolant of the kept lags, bit for bit
        values = np.random.default_rng(n).uniform(0.5, 2.0, n)
        half = min((n - 1) // 2, (grid - 1) // 2)
        expected = evaluate_trig_poly(grid_fourier_coefficients(values, half), grid)
        assert np.array_equal(Tabulated(values).on_grid(grid), expected)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameters):
            Tabulated(np.array([1.0, -0.1, 1.0, 1.0]))

    def test_fewer_than_four_values_rejected(self):
        with pytest.raises(InvalidParameters, match="at least 4 grid values"):
            Tabulated(np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN passed the old `min < 0` test, and solve then returned delta = nan
        values = np.ones(64)
        values[3] = bad
        with pytest.raises(InvalidParameters, match="finite nonnegative"):
            Tabulated(values)

    @pytest.mark.parametrize("grid", [0, -8])
    def test_nonpositive_grid_rejected(self, grid):
        with pytest.raises(InvalidParameters, match="at least one point"):
            angular_grid(grid)
        for f in (Tabulated(np.ones(8)), RationalAR(alpha=0.5)):
            with pytest.raises(InvalidParameters):
                f.on_grid(grid)
            with pytest.raises(InvalidParameters):
                minimality_value(f, grid_size=grid)


TABLE = 1.5 + np.cos(angular_grid(64)) + 0.2 * np.sin(3 * angular_grid(64))


class TestGridValuesPerInstance:
    @pytest.mark.parametrize("make, method, grids", [
        (lambda: RationalAR(alpha=np.array([0.5, -0.2]), sigma2=2.0), "on_grid", (4096, 64)),
        (lambda: RationalAR(alpha=np.array([0.3 + 0.4j]), sigma2=2.0), "inverse_on_grid", (4096, 64)),
        (lambda: InversePolynomial(FourierCoeffs.from_dict({0: 1.25, 1: -0.5, -1: -0.5})),
         "on_grid", (4096, 64)),
        (lambda: InversePolynomial(FourierCoeffs.from_dict({0: 1.25, 2: 0.3j, -2: -0.3j})),
         "inverse_on_grid", (4096, 64)),
        (lambda: Tabulated(TABLE), "on_grid", (64, 256)),  # same size, then resampled
        (lambda: Tabulated(TABLE), "on_grid", (256, 32)),  # resampled up and down
        (lambda: Tabulated(TABLE), "inverse_on_grid", (64, 256)),
        (lambda: FourierCoeffs.from_dict({0: 2.0, 1: 0.5 - 0.1j, -1: 0.5 + 0.1j}), "evaluate",
         (4096, 64)),
    ], ids=["ar_on_grid", "ar_inverse", "invpoly_on_grid", "invpoly_inverse",
            "tabulated_same_size", "tabulated_resampled", "tabulated_inverse", "coeffs_evaluate"])
    def test_computed_once_per_grid_size_and_read_only(self, make, method, grids):
        obj = make()
        first = getattr(obj, method)(grids[0])
        assert getattr(obj, method)(grids[0]) is first
        with pytest.raises(ValueError):
            first[0] = 1.0
        other = getattr(obj, method)(grids[1])
        assert other.shape == (grids[1],)
        assert getattr(obj, method)(grids[0]) is first
        # a fresh equal instance, asked for the grids in the other order
        fresh = make()
        assert np.array_equal(getattr(fresh, method)(grids[1]), other)
        assert np.array_equal(getattr(fresh, method)(grids[0]), first)

    def test_a_refused_grid_keeps_nothing(self):
        # a table with a zero has no 1/f on its own grid: refused on every call, and
        # its values there, and on another grid, are as on a fresh instance
        table = np.append(np.linspace(1.0, 2.0, 63), 0.0)
        f = Tabulated(table)
        for _ in range(2):
            with pytest.raises(NonPositiveDensity):
                f.inverse_on_grid(64)
        assert f.__dict__["_grid_values"].keys() == {(Tabulated.on_grid.__wrapped__, 64)}
        fresh = Tabulated(table)
        assert np.array_equal(f.on_grid(64), fresh.on_grid(64))
        assert np.array_equal(f.on_grid(128), fresh.on_grid(128))
