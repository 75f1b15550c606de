"""Validity checks of finite-degree densities against the references they
replace: the unit-root test of RationalAR against np.roots, the real
evaluation of 1/f against the real part of the complex one, the "not real on
the grid" refusals against the complex imaginary part, and Delta against the
elementwise inner product. Each reference is kept here, independent of the
library code it checks."""

import numpy as np
import pytest
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
    factorize_inverse,
)
from gapinterp.errors import InvalidParameters, NotPositive, NotPositiveDefinite
from gapinterp.interpolate import solve
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
                ref = evaluate_trig_poly(b, grid).real
                got = FourierCoeffs(b).evaluate(grid)
                assert got.dtype == np.float64 and got.shape == (grid,)
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
            rows = rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size))
            ref = evaluate_trig_poly(rows, grid).real
            got = evaluate_trig_poly(rows, grid, real=True)
            assert got.shape == (3, grid)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_cosine_values(self):
        b = FourierCoeffs.from_dict({0: 2.0, 1: 0.5, -1: 0.5})
        assert np.allclose(b.evaluate(16), 2.0 + np.cos(angular_grid(16)), rtol=0, atol=1e-15)


# --- "not real on the grid" refusals ----------------------------------------


def complex_refusal(b, grid, rtol):
    """The complex test: max |Im| > rtol max(max |value|, 1), and how far the
    imaginary part lies from that level (as a ratio)."""
    vals = evaluate_trig_poly(b, grid)
    level = rtol * max(np.max(np.abs(vals)), 1.0)
    imag = np.max(np.abs(vals.imag))
    return bool(imag > level), imag / level


def skew_sweep():
    """Positive Hermitian b of degree 3 with an anti-Hermitian part k,
    k(-m) = -conj(k(m)), of random shape, scaled across the level; the shapes
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
        for rtol in (1e-10, 1e-9):
            level = rtol * max(np.max(np.abs(grid)), 1.0)
            for t in np.geomspace(0.1, 10.0, 81):
                yield base + t * level / np.sum(np.abs(k)) * k, rtol


class TestRealOnGridRefusal:
    def test_inverse_on_grid_matches_complex_test(self):
        seen = set()
        for b, rtol in skew_sweep():
            if rtol != 1e-10:
                continue
            expected, ratio = complex_refusal(b, 256, rtol)
            if abs(ratio - 1.0) < 1e-9:
                continue
            seen.add(expected)
            try:
                f = InversePolynomial(FourierCoeffs(b))
            except InvalidParameters:  # coefficients too far from Hermitian to build
                continue
            try:
                inv = f.inverse_on_grid(256)
                outcome = False
            except InvalidParameters as exc:
                assert str(exc) == "inverse polynomial is not real on the grid"
                outcome = True
            assert outcome == expected
            if not outcome:
                ref = evaluate_trig_poly(b, 256).real
                assert np.max(np.abs(inv - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert seen == {False, True}

    def test_factorize_inverse_matches_complex_test(self):
        seen = set()
        for b, rtol in skew_sweep():
            if rtol != 1e-9:
                continue
            expected, ratio = complex_refusal(b, 256, rtol)
            if abs(ratio - 1.0) < 1e-9:
                continue
            seen.add(expected)
            try:
                factorize_inverse(FourierCoeffs(b), grid_size=256)
                outcome = False
            except NotPositive as exc:
                outcome = str(exc) == "trig polynomial is not real on the grid"
            assert outcome == expected
        assert seen == {False, True}


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
        return InversePolynomial(FourierCoeffs(np.array(b)).symmetrized())
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
