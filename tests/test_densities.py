"""Spectral density representations, quadrature, and factorization."""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from gapinterp.densities import (
    FourierCoeffs,
    InversePolynomial,
    RationalAR,
    Tabulated,
    angular_grid,
    check_positive,
    covariance,
    covariances,
    evaluate_trig_poly,
    factorize_inverse,
    grid_fourier_coefficients,
    inverse_fourier_coeffs,
    minimality_value,
)
from gapinterp.errors import (
    InvalidParameters,
    MaskViolation,
    NonPositiveDensity,
    NotPositive,
)
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
        vals = evaluate_trig_poly(coeffs, 64)
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

    def test_positivity_checked_per_row(self):
        rows = np.ones((3, 16))
        check_positive(rows)
        rows[1, 5] = 1e-12  # positive, but not relative to the row maximum
        with pytest.raises(NonPositiveDensity, match="min 1.000e-12, max 1.000e"):
            check_positive(rows)

    @pytest.mark.parametrize("shape", [(4096,), (32, 4096), (3, 64)])
    def test_real_input_matches_the_complex_path(self, shape):
        values = np.random.default_rng(8).uniform(0.05, 20.0, size=shape)
        real = grid_fourier_coefficients(values, 20)
        full = grid_fourier_coefficients(values.astype(complex), 20)
        assert np.max(np.abs(real - full)) <= 1e-15 * np.max(np.abs(full))
        # exactly Hermitian: b(-m) = conj(b(m)) to the bit
        assert np.array_equal(real, np.conj(real[..., ::-1]))

    def test_rows_match_one_dimensional_calls(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.5, 2.0, size=(3, 64))
        coeffs = rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))
        batch_coeffs = grid_fourier_coefficients(values, 5)
        batch_values = evaluate_trig_poly(coeffs, 64)
        for k in range(3):
            assert np.array_equal(batch_coeffs[k], grid_fourier_coefficients(values[k], 5))
            assert np.array_equal(batch_values[k], evaluate_trig_poly(coeffs[k], 64))


class TestFourierCoeffs:
    def test_from_dict_and_indexing(self):
        b = FourierCoeffs.from_dict({0: 1.25, 1: -0.5, -1: -0.5})
        assert b[0] == 1.25
        assert b[1] == -0.5
        assert b[7] == 0.0
        assert b.is_hermitian()

    def test_even_length_rejected(self):
        with pytest.raises(InvalidParameters):
            FourierCoeffs(np.ones(4))

    def test_symmetrized(self):
        b = FourierCoeffs(np.array([-0.4, 1.0, -0.6], dtype=complex))
        s = b.symmetrized()
        assert s.is_hermitian()
        assert abs(s[1] - (-0.5)) < 1e-15


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

    def test_nonpositive_rejected(self):
        f = InversePolynomial(FourierCoeffs.from_dict({0: 1.0, 2: 1.0, -2: 1.0}))
        for half_length in (1, 4):  # 1 cuts the degree-2 coefficients, 4 pads them
            with pytest.raises(NonPositiveDensity):
                inverse_fourier_coeffs(f, half_length=half_length)

    @pytest.mark.parametrize("degree", [3, 100])
    def test_nonpositive_refused_by_solve(self, degree):
        # 1 + 1.2 cos(degree lambda) dips to -0.2; at degree 100 the span 6
        # of K cuts the coefficients
        f = InversePolynomial(FourierCoeffs.from_dict({0: 1.0, degree: 0.6, -degree: 0.6}))
        with pytest.raises(NonPositiveDensity):
            solve(ObservationPattern("S4", N=1, M1=2, N1=3), FunctionalWeights({0: 1, 1: 1}), f)

    def test_degree_past_the_grid_refused(self):
        f = InversePolynomial(FourierCoeffs.from_dict({0: 1.0, 40: 0.1, -40: 0.1}))
        with pytest.raises(InvalidParameters):
            inverse_fourier_coeffs(f, half_length=4, grid_size=64)

    @pytest.mark.parametrize("half_length", [0, 1, 2, 5])
    def test_ar_cut_or_padded(self, half_length):
        exact = RationalAR(alpha=np.array([0.3, 0.2])).exact_inverse_coeffs()
        b = inverse_fourier_coeffs(RationalAR(alpha=np.array([0.3, 0.2])), half_length)
        assert b.half_length == half_length
        assert all(b[m] == exact[m] for m in range(-half_length, half_length + 1))


class TestMinimality:
    def test_white_noise(self):
        assert abs(minimality_value(Tabulated(np.ones(512)), grid_size=512) - 1.0) < 1e-14

    def test_ar1(self):
        assert abs(minimality_value(RationalAR(alpha=0.5)) - 1.25) < 1e-12

    def test_shifted_cosine_vs_quadrature(self):
        lam = angular_grid(4096)
        value = minimality_value(Tabulated(2.0 + np.cos(lam)))
        oracle = scipy.integrate.quad(lambda l: 1 / (2 + np.cos(l)), -np.pi, np.pi)[0] / (2 * np.pi)
        assert abs(value - oracle) < 1e-10
        assert abs(value - 1 / np.sqrt(3)) < 1e-10


class TestCovariance:
    def test_white_noise(self):
        f = Tabulated(np.ones(512))
        assert abs(covariance(f, 0, grid_size=512) - 1.0) < 1e-13
        assert abs(covariance(f, 3, grid_size=512)) < 1e-13

    def test_ar1_geometric(self):
        f = RationalAR(alpha=0.5)
        for n in range(6):
            expected = 0.5 ** n / 0.75
            assert abs(covariance(f, n) - expected) < 1e-10
        assert abs(covariance(f, -2) - np.conj(covariance(f, 2))) < 1e-14

    def test_shifted_cosine(self):
        lam = angular_grid(4096)
        f = Tabulated(2.0 + np.cos(lam))
        assert abs(covariance(f, 1) - 0.5) < 1e-12
        assert abs(covariance(f, 0) - 2.0) < 1e-12

    def test_vector_form_matches_scalar(self):
        f = RationalAR(alpha=np.array([0.4, -0.2]))
        r = covariances(f, 5)
        for n in range(6):
            assert abs(r[n] - covariance(f, n)) < 1e-10

    def test_matches_adaptive_quadrature(self):
        f = RationalAR(alpha=0.5)

        def fval(l):
            return 1.0 / abs(1 - 0.5 * np.exp(-1j * l)) ** 2

        for n in range(4):
            oracle = np.conj(quad_coefficient(fval, n))  # r(n) uses e^{+inl}
            assert abs(covariance(f, n) - oracle) < 1e-8


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


class TestTabulated:
    def test_resample_trig_exact(self):
        lam = angular_grid(256)
        f = Tabulated(2.0 + np.cos(lam))
        big = f.on_grid(1024)
        assert np.allclose(big, 2.0 + np.cos(angular_grid(1024)), atol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameters):
            Tabulated(np.array([1.0, -0.1, 1.0, 1.0]))


class TestFactorization:
    def test_ar1_coefficients(self):
        b = FourierCoeffs.from_dict({0: 1.25, 1: -0.5, -1: -0.5})
        fact = factorize_inverse(b)
        gamma = fact.gamma / fact.gamma[0]
        assert abs(gamma[0] - 1.0) < 1e-10
        assert abs(gamma[1] + 0.5) < 1e-10

    def test_identity(self):
        fact = factorize_inverse(FourierCoeffs.from_dict({0: 1.0}))
        assert fact.gamma.size == 1
        assert abs(fact.gamma[0] - 1.0) < 1e-12

    def test_sparse_with_mask(self):
        b = FourierCoeffs.from_dict({0: 1.0, 2: 0.45, -2: 0.45})
        fact = factorize_inverse(b, mask={1})
        assert abs(fact.gamma[1]) < 1e-8
        recon = fact.evaluate(4096)
        target = b.evaluate(4096).real
        assert np.max(np.abs(recon - target)) < 1e-8 * np.max(np.abs(target))

    def test_mask_violation(self):
        b = FourierCoeffs.from_dict({0: 1.25, 1: -0.5, -1: -0.5})
        with pytest.raises(MaskViolation):
            factorize_inverse(b, mask={1})

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            factorize_inverse(FourierCoeffs.from_dict({0: 1.0, 2: 1.0, -2: 1.0}))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        gamma_true = np.array([1.0, 0.0, 0.0, 0.4 - 0.1j])
        lam = angular_grid(2048)
        poly = sum(g * np.exp(-1j * n * lam) for n, g in enumerate(gamma_true))
        b = FourierCoeffs(grid_fourier_coefficients(np.abs(poly) ** 2, 3)).symmetrized()
        fact = factorize_inverse(b, mask={1, 2})
        recon = fact.evaluate(2048)
        assert np.max(np.abs(recon - np.abs(poly) ** 2)) < 1e-8
