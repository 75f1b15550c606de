"""Validity checks of finite-degree densities against the references they
replace: the unit-root test of RationalAR against np.roots, the real
evaluation of 1/f against the real part of the complex one, a nearly
Hermitian 1/f against its Hermitian part, Delta against the
elementwise inner product, and the constructor and grid checks of
InversePolynomial and RationalAR against the rules as they were written on
numpy arrays. Each reference is kept here, independent of the library code it
checks."""

import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gapinterp import densities
from gapinterp.densities import (
    FourierCoeffs,
    InversePolynomial,
    RationalAR,
    Tabulated,
    angular_grid,
    evaluate_trig_poly,
    poly_on_grid,
)
from gapinterp.errors import (
    GapInterpError,
    InvalidParameters,
    NonFiniteSolution,
    NonPositiveDensity,
    NotPositiveDefinite,
    NumericalError,
)
from gapinterp.interpolate import solve
from gapinterp.minimax import DW, lf_dW
from gapinterp.patterns import FunctionalWeights, ObservationPattern, missing_indices

# --- unit roots -------------------------------------------------------------


def roots_reference(alpha, monic=False):
    """The np.roots unit-root test: the refusal and the statistics it
    compares with 1e-8, ||r| - 1| and |phi(r/|r|)| over the roots r of
    phi(z) = 1 - sum alpha_k z^k. monic=True takes r = 1/w over the nonzero
    roots w of the reversed polynomial z^p - alpha_1 z^(p-1) - ... - alpha_p
    instead of the roots of phi."""
    poly = np.concatenate((-alpha[::-1], [1.0]))
    with np.errstate(all="ignore"):  # a tiny lead overflows; a root at infinity gives NaN
        if monic:
            w = np.roots(poly[::-1])
            roots = 1.0 / w[w != 0]
        else:
            roots = np.roots(poly)
        off_circle = np.abs(np.abs(roots) - 1.0)
        phi_on_circle = np.abs(np.polyval(poly, roots / np.abs(roots)))
    refused = bool(np.any(off_circle < 1e-8) or np.any(phi_on_circle < 1e-8))
    return refused, np.concatenate((off_circle, phi_on_circle))


def refused(alpha):
    try:
        RationalAR(alpha=alpha)
    except InvalidParameters as exc:
        assert str(exc) == "AR polynomial has a (near-)root on the unit circle"
        return True
    return False


angles = st.sampled_from([0.0, np.pi, np.pi / 2, 0.3]) | st.floats(-np.pi, np.pi)
# inverse roots w = 1/r: on the circle, 1e-9 or 1e-6 off it, anywhere, zero
# (alpha_p = 0) or tiny (tiny alpha_p)
radii = st.one_of(
    st.just(1.0),
    st.tuples(st.sampled_from([1e-9, 1e-6]), st.sampled_from([-1.0, 1.0])).map(
        lambda d: 1.0 + d[1] * d[0]),
    st.floats(0.05, 3.0),
    st.just(0.0),
    st.sampled_from([1e-100, 1e-60, 1e-30]),
)


@st.composite
def ar_alpha(draw):
    """alpha of AR(1-4) from inverse roots drawn with multiplicity 1-3 and,
    optionally, with their conjugates."""
    order = draw(st.integers(1, 4))
    w = []
    while len(w) < order:
        z = draw(radii) * np.exp(1j * draw(angles))
        pair = draw(st.booleans())
        for _ in range(draw(st.integers(1, 3))):
            w += [z, np.conj(z)] if pair else [z]
    return -np.poly(np.array(w[:order]))[1:]


class TestUnitRootDecision:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(alpha=ar_alpha())
    def test_matches_roots_reference(self, alpha):
        try:
            expected, stats = roots_reference(alpha)
        except np.linalg.LinAlgError:  # np.roots overflows on a subnormal alpha_p
            assume(False)
        monic, monic_stats = roots_reference(alpha, monic=True)
        # away from the boundary, where every computation rounds alike
        assume(np.all(np.abs(np.concatenate((stats, monic_stats)) - 1e-8) > 1e-9))
        if expected != monic:
            # np.roots of phi divides by its lead, the last nonzero alpha;
            # when it is tiny the roots near the circle lose their accuracy
            # (a double root 1e-9 off the circle moved by 2e-4 at
            # alpha_p = 1e-30), the monic ones do not
            assert abs(alpha[np.flatnonzero(alpha)[-1]]) < 1e-20
        assert refused(alpha) == monic

    @pytest.mark.parametrize("alpha", [
        [np.nan], [np.inf], [-np.inf], [0.5, np.nan], [np.inf, 0.5],
        [complex(0.2, np.inf)], [complex(np.nan, 0.0)],
    ])
    def test_non_finite_refused(self, alpha):
        with pytest.raises(InvalidParameters):
            RationalAR(alpha=np.array(alpha))

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2)])
    def test_alpha_of_more_dimensions_refused(self, shape):
        # a ValueError or TypeError escaped from the companion matrix or the root tests
        with pytest.raises(InvalidParameters, match="one-dimensional"):
            RationalAR(alpha=np.full(shape, 0.1))

    def test_failed_eigensolve_refused(self, monkeypatch):
        monkeypatch.setattr(densities, "zgeev", lambda *args, **kwargs: (np.zeros(1), None, None, 1))
        with pytest.raises(InvalidParameters, match="cannot be computed"):
            RationalAR(alpha=0.5)

    def test_white_noise(self):
        assert not refused(np.array([], dtype=complex))
        assert not refused(np.array([0.0, 0.0]))

    @pytest.mark.parametrize("alpha", [[5e-324], [0.5, 5e-324], [0.3, -0.2, 2.2e-310j]])
    def test_subnormal_accepted(self, alpha):
        # np.roots divided by the subnormal lead and overflowed; the monic
        # companion keeps the tiny root
        f = RationalAR(alpha=np.array(alpha))
        assert np.all(np.isfinite(f.on_grid(64)))

    def test_eigenvalues_are_not_compared(self):
        f = RationalAR(alpha=0.5, sigma2=2.0)
        assert f == RationalAR(alpha=0.5, sigma2=2.0)
        assert "_eigenvalues" not in repr(f)

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0])
    def test_sigma2_outside_positive_finite_refused(self, sigma2):
        with pytest.raises(InvalidParameters, match="sigma2"):
            RationalAR(alpha=0.5, sigma2=sigma2)

    @pytest.mark.parametrize("alpha, sigma2", [([0.0], 5e-324), ([1.5, 1.5j], 2.2250738585072014e-308)])
    def test_sigma2_too_small_for_finite_inverse_refused(self, alpha, sigma2):
        # 1/sigma2 overflowed in the exact coefficients of 1/f
        with pytest.raises(InvalidParameters, match="sigma2"):
            RationalAR(alpha=np.array(alpha), sigma2=sigma2)

    def test_tiny_normal_sigma2_accepted(self):
        f = RationalAR(alpha=0.5, sigma2=1e-300)
        assert np.all(np.isfinite(f.exact_inverse_coeffs().values))
        assert np.all(np.isfinite(f.inverse_on_grid(64)))


@pytest.mark.parametrize("make, value, other", [
    (lambda v: RationalAR(alpha=v), [0.5, -0.2], [0.5, -0.3]),
    (lambda v: RationalAR(alpha=[0.5, -0.2], sigma2=float(v[0])), [1.0], [2.0]),
    (FourierCoeffs, [0.3, 2.0, 0.3], [0.4, 2.0, 0.4]),
    (lambda v: InversePolynomial(FourierCoeffs(v)), [0.3, 2.0, 0.3], [0.4, 2.0, 0.4]),
    (Tabulated, [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0]),
    (Tabulated, [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0]),
], ids=["ar_alpha", "ar_sigma2", "coeffs", "inverse_poly", "tabulated", "tabulated_size"])
def test_array_fields_compared_by_value(make, value, other):
    # the generated dataclass __eq__ raised on arrays of more than one value
    f = make(np.array(value))
    assert f == make(np.array(value))
    assert f != make(np.array(other))
    assert f != object()


# --- real evaluation --------------------------------------------------------


class TestRealEvaluation:
    @pytest.mark.parametrize("grid", [5, 6, 7, 8, 33, 64, 1023, 4096])
    def test_equals_real_part_of_complex_evaluation(self, grid):
        rng = np.random.default_rng(grid)
        top = (grid - 1) // 2
        for half in sorted({0, 1, top, int(rng.integers(0, top + 1))}):
            size = 2 * half + 1
            for hermitian in (False, True):
                b = rng.normal(size=size) + 1j * rng.normal(size=size)
                if hermitian:
                    b = 0.5 * (b + np.conj(b[::-1]))
                ref = poly_on_grid(range(-half, half + 1), b, grid).real
                got = FourierCoeffs(b).evaluate(grid)
                assert got.dtype == np.float64 and got.shape == (grid,)
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
                got = evaluate_trig_poly(b, grid)
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_cosine_values(self):
        b = FourierCoeffs.from_dict({0: 2.0, 1: 0.5, -1: 0.5})
        assert np.allclose(b.evaluate(16), 2.0 + np.cos(angular_grid(16)), rtol=0, atol=1e-15)


# --- nearly Hermitian coefficients ----------------------------------------


def skew_sweep(rtol):
    """Positive Hermitian b of degree 3 with an anti-Hermitian part k,
    k(-m) = -conj(k(m)), of random shape, scaled across the level rtol; the shapes
    include sums that reach the bound sum |k(m)| at lambda = 0 and sums that
    stay below it."""
    rng = np.random.default_rng(7)
    lam = angular_grid(256)
    for shape in range(10):
        gamma = np.array([2.0, *(rng.normal(size=3) + 1j * rng.normal(size=3)) * 0.3])
        base = np.array([np.sum(gamma[max(0, -m): 4 - max(0, m)] * np.conj(gamma[max(0, m): 4 + min(0, m)]))
                         for m in range(-3, 4)])
        base = 0.5 * (base + np.conj(base[::-1]))
        k = 1j * np.ones(7) if shape == 0 else rng.normal(size=7) + 1j * rng.normal(size=7)
        k = 0.5 * (k - np.conj(k[::-1]))
        grid = np.real(np.exp(1j * np.outer(lam, np.arange(-3, 4))) @ base)
        level = rtol * max(np.max(np.abs(grid)), 1.0)
        for t in np.geomspace(0.1, 10.0, 81):
            yield base + t * level / np.sum(np.abs(k)) * k


class TestHermitianPart:
    def test_held_as_exact_hermitian_part(self):
        # before, b itself was held, and a b whose grid imaginary part passed 1e-10
        # was refused "not real on the grid"
        built = 0
        for b in skew_sweep(1e-10):
            try:
                f = InversePolynomial(FourierCoeffs(b))
            except InvalidParameters:  # coefficients too far from Hermitian to build
                continue
            built += 1
            held = f.inv_coeffs.values
            assert np.array_equal(held, np.conj(held[::-1]))
            assert np.array_equal(held[3:], (b - 0.5 * (b - np.conj(b[::-1])))[3:])
            ref = poly_on_grid(range(-3, 4), held, 256).real
            assert np.max(np.abs(f.inverse_on_grid(256) - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert built > 0

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -40])
    def test_skew_judged_in_the_units_of_b(self, scale):
        # b(-1) = 0.3 against b(1) = 0.1: the skew was allowed up to
        # 1e-10 max(max|b|, 1), so at 2^-40 it was held as 0.2 on both sides
        b = FourierCoeffs(scale * np.array([0.1, 0.3, 2.0, 0.1, 0.1], dtype=complex))
        with pytest.raises(InvalidParameters, match="Hermitian"):
            InversePolynomial(b)

    def test_hermitian_input_kept(self):
        b = FourierCoeffs.from_dict({0: 1.25, 1: -0.5 + 0.1j, -1: -0.5 - 0.1j})
        assert InversePolynomial(b).inv_coeffs is b


# --- Delta ------------------------------------------------------------------


def delta_reference(c, a):
    """Delta = sum c conj(a), elementwise, with the same imaginary-part test."""
    inner = complex(np.sum(c * np.conj(a)))
    scale = max(float(np.max(np.abs(a))) ** 2 * a.size, 1e-300)
    if abs(inner.imag) > 1e-10 * max(abs(inner), scale):
        raise NotPositiveDefinite(f"error inner product has imaginary part {inner.imag:.3e}")
    return float(inner.real)


def random_density(rng):
    kind = rng.integers(5)
    if kind == 0:
        return RationalAR(alpha=np.array([rng.uniform(-0.9, 0.9)]), sigma2=rng.uniform(0.5, 2.0))
    if kind == 1:
        return RationalAR(alpha=np.array([rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(-3, 3))]))
    if kind == 2:
        w = rng.uniform(0.1, 0.8, size=3) * np.exp(1j * rng.uniform(-3, 3, size=3))
        return RationalAR(alpha=-np.poly(w)[1:])
    if kind == 3:
        gamma = np.array([2.0, *(rng.normal(size=2) + 1j * rng.normal(size=2)) * 0.4])
        b = [np.sum(gamma[max(0, -m): 3 - max(0, m)] * np.conj(gamma[max(0, m): 3 + min(0, m)]))
             for m in range(-2, 3)]
        b = np.array(b)
        return InversePolynomial(FourierCoeffs(0.5 * (b + np.conj(b[::-1]))))
    lam = angular_grid(256)
    return Tabulated(1.5 + np.cos(lam) * rng.uniform(0, 1) + 0.3 * np.sin(2 * lam))


def random_pattern(rng):
    kind = rng.choice(["S4", "S5", "S6"])
    n, m1, n1, m2, n2 = (int(v) for v in rng.integers(1, 5, size=5))
    if kind == "S4":
        return ObservationPattern("S4", N=n - 1, M1=m1, N1=n1)
    if kind == "S5":
        return ObservationPattern("S5", N=n - 1, M2=m2, N2=n2)
    return ObservationPattern("S6", N=n - 1, M1=m1, N1=n1, M2=m2, N2=n2)


def test_delta_matches_elementwise_reference():
    rng = np.random.default_rng(20261018)
    for _ in range(400):
        f, pattern = random_density(rng), random_pattern(rng)
        idx = missing_indices(pattern)
        weights = FunctionalWeights(values={
            j: complex(*rng.normal(size=2)) if rng.random() < 0.5 else float(rng.normal())
            for j in idx})
        sol = solve(pattern, weights, f)
        assert abs(sol.delta - delta_reference(sol.c, sol.a)) <= 1e-14 * abs(sol.delta)


# a 1/f near the underflow: its Gram system solves to coefficients that overflow
TINY_PATTERN = ObservationPattern("S5", N=0, M2=1, N2=1)  # K = {0, 2}
TINY_WEIGHTS = FunctionalWeights(values={0: 1.0, 2: 0.2})


@pytest.mark.parametrize("b0", [6e-313, 1e-320])
def test_overflowing_inverse_polynomial_refused_at_construction(b0):
    # solve on TINY_PATTERN returned delta = nan (c = inf), and later raised
    # NonFiniteSolution only after solving: max f >= 1/b(0) is past the float range
    with pytest.raises(InvalidParameters, match="too small for f"):
        InversePolynomial(FourierCoeffs([b0]))


def test_inverse_polynomial_overflowing_on_the_grid_refused():
    # b(0) = 1e-308 is above 1 / max float, but 1/f falls to 1e-311 at lambda = pi,
    # where f = 1/(1/f) overflows: refused when built, which was on the grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameters, match="too small for f"):
            InversePolynomial(FourierCoeffs([0.4995e-308, 1e-308, 0.4995e-308]))


def test_solve_with_non_finite_coefficients_refused():
    # a 1/f the constructor accepts, with weights for which c = a / b(0) overflows
    f = InversePolynomial(FourierCoeffs([1e-299]))
    weights = FunctionalWeights(values={0: 1e10, 2: 1e10})
    with pytest.raises(NonFiniteSolution) as info:
        solve(TINY_PATTERN, weights, f)
    assert isinstance(info.value, NumericalError)
    assert info.value.diagnostics == {"non_finite": 2, "unknowns": 2}


def test_solve_with_overflowing_error_refused():
    # each coefficient is finite, their inner product with the weights is not
    f = InversePolynomial(FourierCoeffs([1e-290]))
    weights = FunctionalWeights(values={0: 1e10, 2: 1e10})
    with pytest.raises(NonFiniteSolution, match="overflowed") as info:
        solve(TINY_PATTERN, weights, f)
    assert info.value.diagnostics == {"non_finite": 0, "unknowns": 2}


def test_overflowing_error_says_so():
    # large weights over AR(1) 0.5: c is finite and Delta overflows, which the
    # message gave as "0 of 3 coefficients are not" finite
    pattern = ObservationPattern("S4", N=1, M1=2, N1=1)  # K = {0, 1, -3}
    weights = FunctionalWeights(values={0: 1e170, 1: 1e169, -3: 1e169})
    with pytest.raises(NonFiniteSolution) as info:
        solve(pattern, weights, RationalAR(alpha=0.5))
    assert str(info.value) == "the error value overflowed, though all 3 coefficients are finite"
    assert info.value.diagnostics == {"non_finite": 0, "unknowns": 3}


def test_solve_near_the_underflow_still_finite():
    sol = solve(TINY_PATTERN, TINY_WEIGHTS, InversePolynomial(FourierCoeffs([1e-300])))
    assert sol.delta == pytest.approx(1.04e300, rel=1e-14)


@pytest.mark.parametrize("b_given", [[6e-313], [6e-313, 0.0], [6e-313, 0.0, 0.0], [1e-309]],
                         ids=["W0", "W1", "W2", "floor"])
def test_moment_class_near_the_underflow_refused(b_given):
    # a 1/f below 1 / max float, which InversePolynomial refuses: the class was
    # built, and lf_dW refused it with a NaN residual
    with pytest.raises(InvalidParameters, match="too small for f"):
        DW(b_given=b_given)


@pytest.mark.parametrize("b_given", [[1e-299], [1e-299, 0.0], [1e-299, 0.0, 0.0]],
                         ids=["W0", "W1", "W2"])
def test_moment_solve_overflowing_refused(b_given):
    # c = a / b(0) overflows: numpy's "invalid value encountered in matmul" escaped
    # as a RuntimeWarning under -W error, and the refusal carried a NaN residual
    weights = FunctionalWeights(values={0: 1e10, 2: 1e10})
    with pytest.raises(GapInterpError) as info:
        lf_dW(TINY_PATTERN, weights, DW(b_given=b_given))
    assert all(np.isfinite(v) for v in info.value.diagnostics.values())


# --- exact coefficients of 1/f ----------------------------------------------


def inverse_coeffs_reference(alpha, sigma2):
    """b(m) = (1/sigma2) sum_j d_j conj(d_{j+m}), d = (1, -alpha), summed term by term."""
    d = np.concatenate(([1.0 + 0j], -np.asarray(alpha, dtype=complex)))
    p = d.size - 1
    vals = np.zeros(2 * p + 1, dtype=complex)
    for m in range(-p, p + 1):
        acc = 0.0 + 0j
        for j in range(p + 1):
            if 0 <= j + m <= p:
                acc += d[j] * np.conj(d[j + m])
        vals[m + p] = acc / sigma2
    return vals, float(np.sum(np.abs(d) ** 2) / sigma2)


def test_exact_inverse_coeffs_match_termwise_sum():
    # one convolution sums in another order: each b(m) is a sum of at most
    # p + 1 <= 5 products, so it may move by 8 eps sum |d_j|^2 / sigma2
    rng = np.random.default_rng(9)
    for _ in range(500):
        order = int(rng.integers(1, 5))
        alpha = 0.4 * rng.normal(size=order) + 0.4j * rng.normal(size=order) * rng.integers(0, 2)
        try:
            f = RationalAR(alpha=alpha, sigma2=float(rng.uniform(0.1, 10.0)))
        except InvalidParameters:
            continue
        expected, scale = inverse_coeffs_reference(f.alpha, f.sigma2)
        got = f.exact_inverse_coeffs().values
        assert np.max(np.abs(got - expected)) <= 8 * np.finfo(float).eps * scale


# --- positivity on the whole circle ------------------------------------------
#
# InversePolynomial decides min P > 1e-9 max P once, on the whole circle. The
# reference evaluates P on 2^20 points by one FFT. Between them P falls at most
# (pi / 2^20)^2 S below its values, S = sum_{m>0} m^2 |b(m)|, and the
# certificate's bounds on its finest grid, of G >= 2^19 points, lie within
# 2 (pi / G)^2 S of min P and max P; inputs that close to the threshold are
# skipped, and every other input must be decided as the reference decides.

REFERENCE_GRID = 1 << 20


def reference_values(b):
    """Real values of sum b(m) e^{im lambda}, Hermitian b, on REFERENCE_GRID points from 0."""
    half = (b.size - 1) // 2
    return np.fft.irfft(b[half:], REFERENCE_GRID, norm="forward")


def whole_circle_reference(b, values):
    """The Hermitian test as written, then the positivity rule on the reference
    values of b's Hermitian part with the margin above: (type, message prefix) for
    a refusal, None for acceptance, "close" within the margin."""
    if not np.max(np.abs(b - np.conj(b[::-1]))) <= 1e-10 * np.max(np.abs(b)):
        return InvalidParameters, "inverse-polynomial coefficients"
    half = (b.size - 1) // 2
    size = np.abs(b[half:])
    margin = 3.0 * (np.pi / (REFERENCE_GRID // 2)) ** 2 * float(np.arange(half + 1) ** 2 @ size)
    rounding = 1e-13 * float(size.sum())
    low, top = values.min(), values.max()
    if top <= rounding or low < 1e-9 * top - rounding:
        return NonPositiveDensity, "density not"  # refuted or, near the cap, undecided
    if low - margin - rounding > 1e-9 * (top + margin + rounding):
        return None
    return "close"


@st.composite
def whole_circle_polynomials(draw):
    """Hermitian b of degree <= 4, turned by a random phase, whose minimum on the
    reference grid sits near 1e-9 of its maximum (on either side) or elsewhere,
    scaled by 1, 1e-290 or 1e290, then, optionally, skewed by an anti-Hermitian
    part near the 1e-10 level of the Hermitian test. Returns b and the reference
    values of its Hermitian part."""
    q = draw(st.integers(0, 4))
    parts = st.floats(-1.0, 1.0)
    upper = np.array([complex(draw(parts), draw(parts)) for _ in range(q)])
    upper = upper * np.exp(-1j * draw(st.floats(-np.pi, np.pi)) * np.arange(1, q + 1))
    b = np.concatenate((np.conj(upper[::-1]), [0.0], upper)).astype(complex)
    values = reference_values(b)
    ratio = draw(st.sampled_from([1e-9 * k for k in (0.5, 0.99, 1.01, 1.1, 2.0, 10.0)])
                 | st.floats(-20.0, 0.9))
    # shift b(0) so that min = ratio * max on the reference grid
    b[q] = (ratio * values.max() - values.min()) / (1.0 - ratio) if q else draw(st.floats(-1.0, 2.0))
    scale = draw(st.sampled_from([1.0, 1e-290, 1e290]))
    b *= scale
    # far from the subnormals, whose rounding would move the polynomial the
    # reference reads, and from the 1 / max float floor: an accepted P has
    # min P >= 1e-9 max P >= 1e-9 b(0) >= 1e-9 max |b|
    assume(not 0 < np.max(np.abs(b)) < 1e-280)
    values = (values + b[q].real / scale) * scale
    skew = draw(st.sampled_from([0.0, 1e-13, 1e-11, 2e-11, 3e-11, 1e-10]))
    # the skew's level is max |b|, at every scale
    if skew and q:
        k = np.array([complex(draw(parts), draw(parts)) for _ in range(2 * q + 1)])
        k = 0.5 * (k - np.conj(k[::-1]))
        b = b + skew * np.max(np.abs(b)) * k
    return b, values


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(case=whole_circle_polynomials())
def test_inverse_polynomial_decided_on_the_whole_circle(case):
    b, values = case
    with np.errstate(all="ignore"):
        expected = whole_circle_reference(b, values)
    assume(expected != "close")
    try:
        InversePolynomial(FourierCoeffs(b))
    except GapInterpError as exc:
        assert expected is not None, f"refused {exc!r}, accepted by the reference"
        assert type(exc) is expected[0] and str(exc).startswith(expected[1])
        return
    assert expected is None, f"accepted, refused by the reference with {expected}"


# --- the checks as they were, against the checks as they are ------------------
#
# RationalAR runs its finiteness and overflow tests on Python scalars. The
# reference below is the rule as it was written before, step by step on numpy
# arrays; each input must be accepted or refused as it decides, with the same
# exception type. Inputs whose statistic lies within rounding of a threshold are
# skipped, since the two sides may round there apart.

FLOAT_MAX = np.finfo(float).max


def rational_ar_reference(alpha, sigma2):
    """RationalAR's constructor as it was: finiteness by np.isfinite, the
    overflow bound 2 log(1 + sum |alpha_k|) - log sigma2 >= log(max float) by
    numpy reductions and logs, then the unit-root tests on the ?geev
    eigenvalues. Returns None (accepted) or (type, message prefix), and how far
    the overflow bound lies from its threshold (None when not reached)."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    if not 0 < sigma2 < np.inf:
        return (InvalidParameters, "sigma2 must be positive"), None
    if not np.isfinite(alpha).all():
        return (InvalidParameters, "AR polynomial roots cannot be computed"), None
    bound = 1.0 + float(np.abs(alpha).sum())
    gap = 2.0 * np.log(bound) - np.log(sigma2) - np.log(FLOAT_MAX)
    if gap >= 0:
        return (InvalidParameters, f"sigma2 = {sigma2}"), gap
    companion = np.eye(max(alpha.size, 1), k=-1, dtype=complex)
    companion[0, :alpha.size] = alpha
    w, _, _, info = scipy.linalg.lapack.zgeev(companion, compute_vl=0, compute_vr=0)
    if info:
        return (InvalidParameters, "AR polynomial roots cannot be computed"), gap
    for z in w.tolist():
        size = abs(z)
        z = z.conjugate() / (size or 1.0)
        phi = 1.0 - sum(a * z ** k for k, a in enumerate(alpha.tolist(), 1))
        if abs(1.0 - size) < 1e-8 * size or abs(phi) < 1e-8:
            return (InvalidParameters, "AR polynomial has a (near-)root"), gap
    return None, gap


special = st.sampled_from([np.nan, np.inf, -np.inf, 5e-324, 1e-310, 1e300, 1.7e308])
edge_alpha = ar_alpha() | st.lists(
    st.builds(complex, special | st.floats(-2.0, 2.0), st.just(0.0) | special | st.floats(-2.0, 2.0)),
    min_size=1, max_size=4).map(np.array)
sigma2s = {
    "subnormal": st.floats(5e-324, 2.2250738585072014e-308),
    "tiny": st.floats(1e-310, 1e-300),
    "normal": st.floats(0.1, 10.0),
    "special": st.sampled_from([np.nan, np.inf, 0.0, -1.0, 5e-324]),
}


@st.composite
def rational_ar_inputs(draw):
    """alpha with near-unit roots or NaN, infinite, subnormal or huge entries,
    and sigma2 subnormal, tiny, normal, not positive and finite, or near the
    overflow bound, t (1 + sum |alpha_k|)^2 / max float."""
    alpha = draw(edge_alpha)
    kind = draw(st.sampled_from([*sigma2s, "bound", "bound", "bound"]))
    if kind != "bound":
        return alpha, draw(sigma2s[kind])
    with np.errstate(all="ignore"):
        bound = 1.0 + np.abs(alpha).sum()
        return alpha, float(draw(st.floats(0.5, 2.0)) * bound / FLOAT_MAX * bound)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(case=rational_ar_inputs())
def test_rational_ar_checks_decide_as_before(case):
    alpha, sigma2 = case
    with np.errstate(all="ignore"):
        expected, gap = rational_ar_reference(alpha, sigma2)
    assume(gap is None or not abs(gap) < 1e-12 * np.log(FLOAT_MAX))
    try:
        RationalAR(alpha=alpha, sigma2=sigma2)
    except GapInterpError as exc:
        assert expected is not None, f"refused {exc!r}, accepted before"
        assert type(exc) is expected[0] and str(exc).startswith(expected[1])
        return
    assert expected is None, f"accepted, refused before with {expected}"
