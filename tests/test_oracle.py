"""Time-domain projection and Monte Carlo cross-checks."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.signal import lfilter

from gapinterp import oracle
from gapinterp.densities import (
    DEFAULT_GRID,
    FourierCoeffs,
    InversePolynomial,
    RationalAR,
    Tabulated,
    angular_grid,
    covariances,
    grid_fourier_coefficients,
)
from gapinterp.errors import (
    EmbeddingNotPSD,
    IndexOutOfPath,
    InvalidParameters,
    SingularCovariance,
)
from gapinterp.interpolate import solve, solve_truncated
from gapinterp.oracle import (
    TimeDomainProblem,
    build_problem,
    empirical_mse,
    estimate_weights_from_characteristic,
    project,
    simulate_chunks,
)
from gapinterp.patterns import (
    FunctionalWeights,
    ObservationPattern,
    missing_indices,
)


def draw_rows(f, length, n_replicates=1, seed=0):
    """The blocks of rows simulate_chunks draws, stacked into one array."""
    return np.concatenate(list(simulate_chunks(f, length, n_replicates, seed)))


EX_PATTERN = ObservationPattern("S4", N=1, M1=2, N1=3)
EX_WEIGHTS = FunctionalWeights(values={j: 1.0 for j in [0, 1, -3, -4, -5]})
EX_DENSITY = RationalAR(alpha=0.5)


def reference_projection(tp):
    """The complex Hermitian projection: every covariance looked up through
    |lag| and conjugated for negative lags, one complex Cholesky solve.
    Returns the weights and the error."""
    obs = np.asarray(tp.observed_indices)
    tgt = np.asarray(tp.target_indices)
    a = tp.target_weights

    def cov(rows, cols):
        lags = np.subtract.outer(cols, rows).T  # [i][j] = cols_j - rows_i
        vals = tp.r[np.abs(lags)]
        return np.where(lags < 0, np.conj(vals), vals)

    rho = cov(obs, tgt) @ a
    w = cho_solve(cho_factor(cov(obs, obs), lower=True), rho)
    target_var = float(np.real(np.conj(a) @ (cov(tgt, tgt) @ a)))
    return w, target_var - float(np.real(np.conj(rho) @ w))


def random_real_ar(rng):
    """AR(1-3) with real coefficients: real roots or a conjugate pair, inverse
    roots of modulus at most 0.8."""
    order = int(rng.integers(1, 4))
    inv_roots = list(rng.uniform(-0.8, 0.8, size=order % 2))
    for _ in range(order // 2):
        inv_roots += [rng.uniform(0.1, 0.8) * np.exp(1j * rng.uniform(0, np.pi))]
        inv_roots += [np.conj(inv_roots[-1])]
    alpha = -np.poly(inv_roots)[1:]  # 1 - sum alpha_k z^k = prod (1 - w z)
    return RationalAR(alpha=np.real(alpha))


def random_finite_pattern(rng):
    kind = str(rng.choice(["S4", "S5", "S6"]))
    N = int(rng.integers(0, 3))
    left = dict(M1=int(rng.integers(1, 4)), N1=int(rng.integers(0, 4)))
    right = dict(M2=int(rng.integers(1, 4)), N2=int(rng.integers(0, 4)))
    sides = {"S4": left, "S5": right, "S6": {**left, **right}}[kind]
    return ObservationPattern(kind, N=N, **sides)


def factor_dtypes(monkeypatch):
    """The dtypes of the covariance rows handed to scipy.linalg.solve_toeplitz,
    the one Levinson solve of a projection."""
    seen = []
    levinson = scipy.linalg.solve_toeplitz

    def recording(c_or_cr, *args, **kwargs):
        seen.append(c_or_cr[1].dtype)
        return levinson(c_or_cr, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_toeplitz", recording)
    return seen


def yule_walker(alpha, sigma2):
    """r(0..p) of the real AR(p) from the p + 1 Yule-Walker equations
    r(k) - sum_j alpha_j r(|k - j|) = sigma2 [k = 0], one dense solve."""
    p = len(alpha)
    eqs = np.eye(p + 1)
    for k in range(p + 1):
        for j in range(1, p + 1):
            eqs[k, abs(k - j)] -= alpha[j - 1]
    return np.linalg.solve(eqs, sigma2 * np.eye(p + 1)[:, 0])


# densities for the sweep against the dense reference: AR(1) and AR(2) roots
# up to 0.99, complex covariances, white noise
SWEEP_DENSITIES = {
    "ar1_0.99": RationalAR(alpha=0.99),
    "ar1_-0.99": RationalAR(alpha=-0.99),
    "ar2_0.99_0.9": RationalAR(alpha=[1.89, -0.891]),
    "ar2_pair_0.99": RationalAR(alpha=[0.99, -0.99 ** 2]),
    "ar1_complex_0.9": RationalAR(alpha=0.9 * np.exp(0.7j)),
    "ar2_complex": RationalAR(alpha=[0.5 + 0.3j, -0.2]),
    "white": Tabulated(np.ones(4096)),
}


class TestProjection:
    def test_white_noise_nothing_to_project(self):
        f = Tabulated(np.ones(4096))
        p = ObservationPattern("S5", N=0, M2=1, N2=1)
        w = FunctionalWeights(values={0: 1.0, 2: 0.5})
        tp = build_problem(p, w, f, window=30)
        proj = project(tp)
        assert np.max(np.abs(proj["weights"])) < 1e-10
        assert abs(proj["mse"] - 1.25) < 1e-10  # sum of squared weights

    def test_single_missing_point_ar1(self):
        p = ObservationPattern("S5", N=0, M2=1, N2=0)
        w = FunctionalWeights(values={0: 1.0})
        tp = build_problem(p, w, EX_DENSITY, window=50)
        proj = project(tp)
        assert abs(proj["mse"] - 0.8) < 1e-8  # 1 / b(0) = 1 / 1.25

    def test_example_value(self):
        tp = build_problem(EX_PATTERN, EX_WEIGHTS, EX_DENSITY, window=500)
        proj = project(tp)
        assert abs(proj["mse"] - 412 / 51) < 1e-6 * (412 / 51)

    def test_matches_spectral_solver(self):
        f = RationalAR(alpha=np.array([0.4, -0.3]))
        p = ObservationPattern("S6", N=1, M1=2, N1=2, M2=1, N2=2)
        w = FunctionalWeights(values={j: 1.0 + 0.1 * k for k, j in
                                      enumerate(missing_indices(p))})
        sol = solve(p, w, f)
        proj = project(build_problem(p, w, f, window=400))
        assert abs(sol.delta - proj["mse"]) < 1e-6 * proj["mse"]

    def test_matches_spectral_solver_complex(self):
        # with a complex density and complex weights the normal equations
        # must be conjugated consistently; real cases cannot tell
        f = RationalAR(alpha=0.5 * np.exp(0.7j))
        p = ObservationPattern("S5", N=1, M2=2, N2=2)
        w = FunctionalWeights(values={0: 1 + 0.5j, 1: 0.3 - 1j, 4: 2.0, 5: -0.5 + 0.2j})
        sol = solve(p, w, f)
        proj = project(build_problem(p, w, f, window=100))
        assert abs(sol.delta - proj["mse"]) < 1e-8 * proj["mse"]

    def test_window_monotone_decreasing(self):
        mses = [project(build_problem(EX_PATTERN, EX_WEIGHTS, EX_DENSITY,
                                      window=wn))["mse"]
                for wn in (50, 100, 200, 500)]
        assert all(m2 <= m1 + 1e-12 for m1, m2 in zip(mses, mses[1:]))

    def test_mse_bounded_by_target_variance(self):
        tp = build_problem(EX_PATTERN, EX_WEIGHTS, EX_DENSITY, window=200)
        proj = project(tp)
        assert 0 <= proj["mse"] <= proj["target_variance"]

    def test_real_path_matches_complex_reference(self, monkeypatch):
        dtypes = factor_dtypes(monkeypatch)
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            pattern = random_finite_pattern(rng)
            k = missing_indices(pattern)
            values = rng.normal(size=len(k)) + 1j * rng.normal(size=len(k)) * rng.integers(0, 2)
            weights = FunctionalWeights(values=dict(zip(k, values)))
            tp = build_problem(pattern, weights, random_real_ar(rng), window=int(rng.integers(5, 40)))
            assert np.max(np.abs(tp.r.imag)) <= oracle.REAL_RTOL * tp.r[0].real
            w_ref, mse_ref = reference_projection(tp)
            proj = project(tp)
            assert abs(proj["mse"] - mse_ref) <= 1e-12 * mse_ref
            assert np.max(np.abs(proj["weights"] - w_ref)) <= 1e-12 * max(np.max(np.abs(w_ref)), 1.0)
        assert dtypes == [np.float64] * 200

    @pytest.mark.parametrize("alpha", [0.5 * np.exp(0.7j), 0.5 + 1e-9j])
    def test_complex_covariance_keeps_complex_path(self, monkeypatch, alpha):
        # an imaginary part of 1e-9 in alpha is far above the 1e-13 rule
        dtypes = factor_dtypes(monkeypatch)
        f = RationalAR(alpha=alpha)
        p = ObservationPattern("S6", N=1, M1=2, N1=2, M2=1, N2=2)
        w = FunctionalWeights(values={0: 1 + 0.5j, 1: 0.3 - 1j, -4: 2.0, 4: -0.5 + 0.2j})
        tp = build_problem(p, w, f, window=100)
        proj = project(tp)
        assert dtypes == [np.complex128]
        assert abs(proj["mse"] - reference_projection(tp)[1]) <= 1e-12 * proj["mse"]
        assert abs(solve(p, w, f).delta - proj["mse"]) < 1e-8 * proj["mse"]

    def test_weights_do_not_depend_on_the_scale(self):
        # covariances near 1e-160 made T^-1 near 1e160, and its FFT products
        # overflowed; scaled to r(0) = 1, the errors scale by sigma^2
        p = ObservationPattern("S4", N=1, M1=2, N1=3)
        one, tiny = (project(build_problem(p, EX_WEIGHTS, RationalAR(alpha=0.5, sigma2=s), 40))
                     for s in (1.0, 1e-160))
        for key in ("mse", "target_variance"):
            assert abs(tiny[key] - 1e-160 * one[key]) <= 1e-12 * 1e-160 * one[key]
        top = np.max(np.abs(one["weights"]))
        assert np.max(np.abs(tiny["weights"] - one["weights"])) <= 1e-12 * top

    def test_no_observations(self):
        # window 0 around a gap without inner observations sees nothing; the
        # empty index tuple became a float array that could not index r
        p = ObservationPattern("S4", N=2, M1=2, N1=0)
        tp = build_problem(p, FunctionalWeights(values={0: 1.0, 2: 0.5}), EX_DENSITY, window=0)
        assert tp.observed_indices == ()
        proj = project(tp)
        assert proj["weights"].size == 0
        assert abs(proj["mse"] - 2.0) < 1e-12  # (4/3) (1 + 0.25) + 2 * 0.5 * (4/3) / 4
        assert proj["mse"] == proj["target_variance"]

    def test_negative_window_refused(self):
        # the observed range came out empty and build_problem raised IndexError
        with pytest.raises(InvalidParameters, match="window"):
            build_problem(EX_PATTERN, EX_WEIGHTS, EX_DENSITY, window=-5)

    @pytest.mark.parametrize("window", [0, 3, 40, 500])
    @pytest.mark.parametrize("name", list(SWEEP_DENSITIES))
    def test_sweep_against_dense_reference(self, name, window):
        # the Levinson and Gohberg-Semencul path agrees with the dense
        # Cholesky solve to 1e-12 relative, times max f / min f where larger;
        # the S3 cut has runs of 300 points filled along their diagonals
        f = SWEEP_DENSITIES[name]
        values = f.on_grid(DEFAULT_GRID)
        tol = 1e-12 * max(1.0, np.max(values) / np.min(values))
        rng = np.random.default_rng(window)
        for pattern in (EX_PATTERN, ObservationPattern("S6", N=2, M1=3, N1=4, M2=3, N2=4),
                        ObservationPattern("S3", N=2, M1=3, M2=2, T=300)):
            k = missing_indices(pattern)
            a = rng.normal(size=len(k)) + 1j * rng.normal(size=len(k))
            tp = build_problem(pattern, FunctionalWeights(values=dict(zip(k, a))), f, window=window)
            w_ref, mse_ref = reference_projection(tp)
            proj = project(tp)
            assert abs(proj["mse"] - mse_ref) <= tol * mse_ref
            scale = max(np.max(np.abs(w_ref), initial=0.0), np.max(np.abs(a)))
            assert np.max(np.abs(proj["weights"] - w_ref), initial=0.0) <= tol * scale

    def test_unobserved_window_points(self):
        # window points that are neither observed nor targets are projected
        # out with weight 0, and an observed target is its own estimate, as
        # in the dense solve over the observed points
        rng = np.random.default_rng(7)
        r = covariances(RationalAR(alpha=[0.6, -0.3]), 60)
        for k in range(20):
            points = rng.permutation(61)
            first = 4 + k % 2  # the fifth target is observed in every other draw
            tgt, obs = points[:5], np.sort(points[first:first + int(rng.integers(1, 50))])
            tp = TimeDomainProblem(target_indices=tuple(tgt.tolist()),
                                   target_weights=rng.normal(size=5) + 0j,
                                   observed_indices=tuple(obs.tolist()), r=r)
            w_ref, mse_ref = reference_projection(tp)
            proj = project(tp)
            assert abs(proj["mse"] - mse_ref) <= 1e-12 * mse_ref
            assert np.max(np.abs(proj["weights"] - w_ref)) <= 1e-12 * max(np.max(np.abs(w_ref)), 1)

    @pytest.mark.parametrize("r, target, observed, reason", [
        (np.ones(6), (2,), (0, 1, 3, 4, 5), "Levinson recursion"),  # rank one
        (np.array([1.0, 2.0]), (0,), (1,), "x_0 = -3"),  # indefinite
        # a Gaussian covariance, positive definite but singular to rounding
        (np.exp(-np.arange(50) ** 2 / 30), (25,), (*range(25), *range(26, 50)),
         r"x_0 = \d.*e_0\| = 6"),
        (np.array([1.0, 0.6, -0.5, -0.9]), (1,), (0, 2, 3), "P_KK"),  # x_0 > 0, P_11 < 0
    ], ids=["levinson", "x0", "residual", "cholesky"])
    def test_singular_covariance(self, r, target, observed, reason):
        tp = TimeDomainProblem(target_indices=target, target_weights=np.ones(1, complex),
                               observed_indices=observed, r=r + 0j)
        with pytest.raises(SingularCovariance, match=reason):
            project(tp)


class TestSimulate:
    def test_reproducible(self):
        a = draw_rows(EX_DENSITY, length=64, n_replicates=4, seed=42)
        b = draw_rows(EX_DENSITY, length=64, n_replicates=4, seed=42)
        assert np.array_equal(a, b)
        c = draw_rows(EX_DENSITY, length=64, n_replicates=4, seed=43)
        assert not np.array_equal(a, c)

    def test_replicates_independent_of_batch(self):
        both = draw_rows(EX_DENSITY, length=32, n_replicates=2, seed=5)
        first = draw_rows(EX_DENSITY, length=32, n_replicates=1, seed=5)
        assert np.array_equal(both[0], first[0])

    def test_ar_autocovariance(self):
        paths = draw_rows(EX_DENSITY, length=64, n_replicates=40000, seed=1)
        for lag in (0, 1, 3):
            emp = np.mean(paths[:, 10] * paths[:, 10 + lag])
            prods = paths[:, 10] * paths[:, 10 + lag]
            se = np.std(prods, ddof=1) / np.sqrt(paths.shape[0])
            truth = covariances(EX_DENSITY, lag)[lag].real
            assert abs(emp - truth) < 4 * se

    def test_circulant_autocovariance(self):
        lam = angular_grid(4096)
        f = Tabulated(2.0 + np.cos(lam))
        paths = draw_rows(f, length=32, n_replicates=40000, seed=2)
        for lag in (0, 1, 2):
            prods = paths[:, 5] * paths[:, 5 + lag]
            se = np.std(prods, ddof=1) / np.sqrt(paths.shape[0])
            truth = covariances(f, lag)[lag].real
            assert abs(np.mean(prods) - truth) < 4 * se

    def test_non_causal_ar_autocovariance(self, monkeypatch):
        # 1/(1 + 1.6 z) has its pole inside the unit disc: the paths go
        # through circulant embedding, with r(0) = 1/(1.6^2 - 1) and r(1) = -r(0)/1.6
        sizes = embedding_sizes(monkeypatch)
        f = RationalAR(alpha=[-1.6])
        paths = draw_rows(f, length=16, n_replicates=40000, seed=4)
        assert sizes == [32]
        for lag, truth in ((0, 1 / 1.56), (1, -1 / 1.56 / 1.6), (2, 1 / 1.56 / 2.56)):
            prods = paths[:, 5] * paths[:, 5 + lag]
            se = np.std(prods, ddof=1) / np.sqrt(paths.shape[0])
            assert abs(truth - covariances(f, lag)[lag].real) < 1e-12
            assert abs(np.mean(prods) - truth) < 4 * se

    def test_order_zero_ar(self):
        # alpha = [] raised numpy's ValueError from the routing test, with no CLI record
        paths = draw_rows(RationalAR(alpha=[], sigma2=2.0), length=4, n_replicates=20000, seed=6)
        se = np.std(paths[:, 1] ** 2, ddof=1) / np.sqrt(paths.shape[0])
        assert abs(np.mean(paths[:, 1] ** 2) - 2.0) < 4 * se

    def test_bad_arguments(self):
        with pytest.raises(InvalidParameters):
            draw_rows(EX_DENSITY, length=0)
        with pytest.raises(InvalidParameters):
            draw_rows(EX_DENSITY, length=10, n_replicates=0)
        with pytest.raises(InvalidParameters, match="real covariance sequence"):
            draw_rows(RationalAR(alpha=0.5 * np.exp(0.7j)), length=10)

    def test_negative_seed_refused(self):
        # default_rng raised numpy's ValueError, which the CLI did not record
        with pytest.raises(InvalidParameters, match="seed"):
            draw_rows(EX_DENSITY, length=10, seed=-1)

    @pytest.mark.parametrize("chunk", [None, 3 * 2 * 32 + 1])
    def test_chunks_equal_one_draw(self, monkeypatch, chunk):
        # replicate r is the r-th block of one stream, however the rows are
        # chunked: three chunks of the default 1 << 20 draws (16384 circulant
        # rows of 64), or chunks of 193 draws (three rows); AR paths are
        # checked over chunk sizes in TestARRecursion
        g = Tabulated(2.0 + np.cos(angular_grid(4096)))
        if chunk is not None:
            monkeypatch.setattr(oracle, "CHUNK_VALUES", chunk)
        n_circ = 10 if chunk else 40000

        # 2 (17 - 1) = 32 points embed r(0..16); replicate r takes 2 * 32 draws
        r = covariances(g, 16).real
        eig = np.fft.fft(np.concatenate((r, r[15:0:-1]))).real
        rng = np.random.default_rng(4)
        z = rng.standard_normal((n_circ, 2, 32))
        circ = np.fft.fft(np.sqrt(np.maximum(eig, 0) / 32) * (z[:, 0] + 1j * z[:, 1]), axis=1)
        assert np.array_equal(draw_rows(g, 17, n_circ, seed=4), circ.real[:, :17])

    def test_prefix_of_a_longer_run(self, monkeypatch):
        monkeypatch.setattr(oracle, "CHUNK_VALUES", 3 * 20)
        full = draw_rows(EX_DENSITY, length=20, n_replicates=11, seed=8)
        for j in (1, 3, 4, 10):
            assert np.array_equal(full[:j], draw_rows(EX_DENSITY, length=20, n_replicates=j, seed=8))


@st.composite
def stationary_alpha(draw):
    """alpha of a stationary real AR(1-4): real roots and conjugate pairs of
    modulus up to 0.99, or tiny, which gives tiny coefficients."""
    order = draw(st.integers(1, 4))
    moduli = st.floats(0.0, 0.99) | st.sampled_from([0.99, 1e-5, 1e-30, 1e-100])
    roots = []
    while len(roots) < order:
        r = draw(moduli)
        if len(roots) + 2 <= order and draw(st.booleans()):
            z = r * np.exp(1j * draw(st.floats(0.01, np.pi - 0.01)))
            roots += [z, np.conj(z)]
        else:
            roots.append(r * draw(st.sampled_from([-1.0, 1.0])))
    return np.real(-np.poly(np.array(roots))[1:])


def filter_state(alpha, y0):
    """lfiltic's initial state of lfilter([s], [1, -alpha]) after the outputs
    y0 = y(0..p-1), z_k = sum_(j > k) alpha_j y(p + k - j), summed
    as lfilter accumulates it (z_k = alpha_(k+1) y(p-1) + z_(k+1) one step
    earlier). lfiltic sums the other way round, and a recursion with roots
    near the unit circle amplifies that rounding: four roots near -0.99 put
    the paths 8.7e-13 apart."""
    p = len(alpha)
    state = []
    for k in range(p):
        acc = alpha[p - 1] * y0[k]
        for j in range(p - 1, k, -1):
            acc = alpha[j - 1] * y0[p + k - j] + acc
        state.append(acc)
    return np.array(state)


class TestARRecursion:
    @settings(max_examples=150, deadline=None)
    @given(alpha=stationary_alpha(), sigma2=st.floats(0.1, 10.0), length=st.integers(1, 40),
           n=st.integers(1, 7), chunk=st.sampled_from([1, 250, 997]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_lfilter(self, alpha, sigma2, length, n, chunk, seed):
        # after its drawn initial state y(0..p-1) a path is lfilter's
        # recursion started from that state, driven by the rest of its block
        # of draws, to 1e-13 relative; and a row does not depend on the chunk
        # it is drawn in (a chunk of 1 or 250 draws holds one row)
        f = RationalAR(alpha=alpha, sigma2=sigma2)
        paths = draw_rows(f, length, n, seed=seed)
        with mock.patch.object(oracle, "CHUNK_VALUES", chunk):
            assert np.array_equal(draw_rows(f, length, n, seed=seed), paths)
        p = alpha.size
        if length <= p:
            return
        eps = np.random.default_rng(seed).standard_normal((n, length))
        b, a = [np.sqrt(sigma2)], np.concatenate(([1.0], -alpha))
        expected = np.array([lfilter(b, a, e[p:], zi=filter_state(alpha, y[:p]))[0]
                             if p else lfilter(b, a, e) for e, y in zip(eps, paths)])
        assert np.max(np.abs(paths[:, p:] - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("alpha", [[0.5], [0.6, -0.3, 0.1], [0.99, -0.99 ** 2],
                                       [1.89, -0.891], [1.98, -0.9801]])
    def test_initial_state_is_the_cholesky_draw(self, alpha):
        # y(0..p-1) = L e(0..p-1), L the Cholesky factor of the Yule-Walker
        # covariances (solved densely here; 1e-8 covers its conditioning)
        f = RationalAR(alpha=alpha, sigma2=2.0)
        p = len(alpha)
        paths = draw_rows(f, 30, 50, seed=12)
        eps = np.random.default_rng(12).standard_normal((50, 30))
        r = yule_walker(alpha, 2.0)
        chol = np.linalg.cholesky(scipy.linalg.toeplitz(r[:p]))
        assert np.max(np.abs(paths[:, :p] - eps[:, :p] @ chol.T)) <= 1e-8 * np.sqrt(r[0])

    @pytest.mark.parametrize("alpha", [[], [0.995], [-0.9], [0.6, -0.3, 0.1],
                                       [0.99, -0.99 ** 2], [1.98, -0.9801]])
    def test_stationary_from_the_first_step(self, alpha):
        # the variance at t = 0 and t = length - 1 is r(0) within z <= 5. The
        # double root at 0.99 went to circulant embedding, which refused it
        # (NonPositiveDensity: min f / max f = 6.4e-10 on the grid)
        f = RationalAR(alpha=alpha, sigma2=2.0)
        r0 = yule_walker(alpha, 2.0)[0]
        paths = draw_rows(f, 41, 20000, seed=13)
        for t in (0, 40):
            squares = paths[:, t] ** 2
            z = (np.mean(squares) - r0) / (np.std(squares, ddof=1) / np.sqrt(squares.size))
            assert abs(z) <= 5


def embedding_sizes(monkeypatch):
    """The embedding sizes 2 * max_lag at which simulate looks up covariances."""
    sizes = []
    lookup = oracle.covariances

    def recording(f, max_lag):
        sizes.append(2 * max_lag)
        return lookup(f, max_lag)

    monkeypatch.setattr(oracle, "covariances", recording)
    return sizes


# a slowly decaying oscillating covariance, r(n) ~ 0.95^n cos(0.3 n)
SLOW = Tabulated(RationalAR(alpha=np.array([2 * 0.95 * np.cos(0.3), -0.95 ** 2])).on_grid(4096))


class TestEmbedding:
    def test_fast_decay_uses_the_smallest_size(self, monkeypatch):
        sizes = embedding_sizes(monkeypatch)
        draw_rows(Tabulated(2.0 + np.cos(angular_grid(4096))), length=40, n_replicates=2)
        assert sizes == [128]  # the least power of two >= 2 (40 - 1)

    def test_grows_from_the_smallest_size(self, monkeypatch):
        sizes = embedding_sizes(monkeypatch)
        draw_rows(SLOW, length=20, n_replicates=2)
        assert sizes == [64, 128, 256]  # 256: the least power of two >= 8 * 20

    def test_refused_past_eight_times_the_length(self, monkeypatch):
        # 8 * 10 = 80 rounds up to 128, where the embedding still has a
        # negative eigenvalue
        sizes = embedding_sizes(monkeypatch)
        with pytest.raises(EmbeddingNotPSD, match="size 128"):
            draw_rows(SLOW, length=10, n_replicates=2)
        assert sizes == [32, 64, 128]

    def test_near_unit_root_is_stationary(self):
        # a 200-step warm-up from zero would leave var x(0) at 0.86 of r(0)
        # for this AR(1); the recursion starts in its stationary state
        # (standard error of the ratio 0.007)
        f = RationalAR(alpha=0.995)
        x0 = draw_rows(f, length=2, n_replicates=40000, seed=11)[:, 0]
        assert abs(np.var(x0) / covariances(f, 0)[0].real - 1) < 0.035

    def test_near_unit_ar2_can_be_refused(self):
        # roots 0.99 e^{+-i pi/3}: the covariance of a path of 41 decays too
        # slowly for an embedding of 8 * 41 points. The AR itself runs its
        # recursion; its tabulated values go through the embedding
        ar = RationalAR(alpha=np.array([0.99, -0.99 ** 2]))
        assert draw_rows(ar, length=41, n_replicates=2).shape == (2, 41)
        with pytest.raises(EmbeddingNotPSD):
            draw_rows(Tabulated(ar.on_grid(4096)), length=41, n_replicates=2)

    def test_autocovariance_at_every_lag(self):
        # every lag the paths hold, through an embedding grown to 256 points
        length = 20
        paths = draw_rows(SLOW, length=length, n_replicates=40000, seed=3)
        for lag in range(length):
            prods = paths[:, 0] * paths[:, lag]
            se = np.std(prods, ddof=1) / np.sqrt(paths.shape[0])
            truth = covariances(SLOW, lag)[lag].real
            assert abs(np.mean(prods) - truth) < 4 * se


class TestEmpiricalMse:
    def solve_and_estimate(self):
        sol = solve(EX_PATTERN, EX_WEIGHTS, EX_DENSITY)
        est = {j: v.real for j, v in
               estimate_weights_from_characteristic(sol).items()}
        return sol, est

    def test_estimate_weight_support_ar1(self):
        # for this density and gap only four observed neighbours carry weight
        _, est = self.solve_and_estimate()
        assert set(est) == {-6, -2, -1, 2}

    @pytest.mark.parametrize("density", [RationalAR(alpha=0.5), RationalAR(alpha=[0.5, -0.3])],
                             ids=["ar1", "ar2"])
    def test_estimate_is_h_off_k(self, density):
        # every h(j) off K, and nothing past them: the grid's h has no other lag
        pattern = ObservationPattern("S6", N=1, M1=2, N1=3, M2=2, N2=3)
        k = missing_indices(pattern)
        sol = solve(pattern, FunctionalWeights(values={j: 1.0 for j in k}), density)
        est = estimate_weights_from_characteristic(sol)
        assert est == {j: v for j, v in sol.h_coeffs.items() if j not in k}
        p = density.order
        assert set(est) == set(range(min(k) - p, max(k) + p + 1)) - set(k)
        lags = np.arange(-100, 101)
        on_grid = grid_fourier_coefficients(sol.h_grid, 100)
        held = np.array([est.get(int(j), 0.0) for j in lags])
        assert np.max(np.abs(on_grid - held)) <= 1e-13 * np.max(np.abs(held))

    def test_empirical_matches_projection(self):
        sol, est = self.solve_and_estimate()
        margin = 40
        paths = draw_rows(EX_DENSITY, length=2 * margin + 1,
                         n_replicates=60000, seed=9)
        target = {j: 1.0 for j in missing_indices(EX_PATTERN)}
        em = empirical_mse(paths, est, target, origin=margin)
        assert abs(em["mean"] - sol.delta) < 3 * em["stderr"]
        assert em["stderr"] < 0.05 * sol.delta

    def test_perturbed_weights_do_worse(self):
        sol, est = self.solve_and_estimate()
        margin = 40
        paths = draw_rows(EX_DENSITY, length=2 * margin + 1,
                         n_replicates=60000, seed=10)
        target = {j: 1.0 for j in missing_indices(EX_PATTERN)}
        base = empirical_mse(paths, est, target, origin=margin)["mean"]
        worse = dict(est)
        worse[-1] += 0.5
        perturbed = empirical_mse(paths, worse, target, origin=margin)["mean"]
        assert perturbed > base

    def test_index_out_of_path(self):
        paths = draw_rows(EX_DENSITY, length=11, n_replicates=2, seed=0)
        with pytest.raises(IndexOutOfPath):
            empirical_mse(paths, {100: 1.0}, {0: 1.0}, origin=5)

    def test_no_estimate_weights(self):
        paths = np.ones((3, 5))
        em = empirical_mse(paths, {}, {0: 2.0}, origin=2)
        assert abs(em["mean"] - 4.0) < 1e-14

    def blocked_problem(self):
        """AR(3) paths with 14 complex estimate weights and 3 target weights:
        a matrix product over a block's rows can round a row differently
        with the block size."""
        f = RationalAR(alpha=np.array([0.6, -0.3, 0.1]))
        rng = np.random.default_rng(11)
        est = {j: complex(*rng.normal(size=2)) for j in [*range(-9, -2), *range(3, 10)]}
        target = {-2: 1.0, 0: 0.5 - 0.2j, 2: -0.7j}
        return f, est, target

    def test_errors_do_not_depend_on_the_blocks(self, monkeypatch):
        f, est, target = self.blocked_problem()
        length, n = 21, 60
        rows = draw_rows(f, length, n, seed=3)
        errors = np.array([empirical_mse(row, est, target, origin=10)["mean"] for row in rows])
        expected = {"mean": float(np.mean(errors)), "n_replicates": n,
                    "stderr": float(np.std(errors, ddof=1) / np.sqrt(n))}
        for size in (1, 7, n):
            blocks = (rows[i:i + size] for i in range(0, n, size))
            assert empirical_mse(blocks, est, target, origin=10) == expected
        # streamed from the sampler in chunks of all rows, 3 rows and 1 row
        for chunk in (None, 3 * length, 1):
            if chunk is not None:
                monkeypatch.setattr(oracle, "CHUNK_VALUES", chunk)
            chunks = simulate_chunks(f, length, n, seed=3)
            assert empirical_mse(chunks, est, target, origin=10) == expected

    def test_matches_the_matrix_product(self):
        # the matrix-product form of the errors sums in another order: the
        # two agree to rounding
        f, est, target = self.blocked_problem()
        paths = draw_rows(f, 21, 500, seed=4)

        def combination(wmap):
            return paths[:, [10 + j for j in wmap]] @ np.array(list(wmap.values()))

        errors = np.abs(combination(target) - combination(est)) ** 2
        em = empirical_mse(paths, est, target, origin=10)
        assert abs(em["mean"] - np.mean(errors)) <= 1e-12 * np.mean(errors)
        stderr = np.std(errors, ddof=1) / np.sqrt(500)
        assert abs(em["stderr"] - stderr) <= 1e-12 * stderr


def estimate_grid_error(sol):
    """(1/2pi) int |A - H|^2 f on the solution's grid, H the characteristic
    of the estimate: each weight h(j) at its lag j mod G (e^{ij lambda_g}
    depends on j mod G only), one inverse FFT."""
    G = sol.grid_size
    spread = np.zeros(G, dtype=complex)
    for j, v in estimate_weights_from_characteristic(sol).items():
        spread[j % G] += (-1) ** (j % 2) * v
    h = G * np.fft.ifft(spread)
    return float(np.mean(np.abs(sol.a_grid - h) ** 2 * sol.f.on_grid(G)))


class TestEstimateReproducesDelta:
    """The estimate the solution reports is optimal: its error on the grid is
    Delta, for every density type."""

    S4_ONES = (EX_PATTERN, EX_WEIGHTS)
    CASES = {
        "ar1": (*S4_ONES, EX_DENSITY),
        "ar2_complex": (ObservationPattern("S6", N=1, M1=2, N1=2, M2=1, N2=3),
                        FunctionalWeights(values={0: 1.0, 1: 0.5j, -3: 0.3, -4: 1 - 1j, 3: 0.2,
                                                  5: -0.4}),
                        RationalAR(alpha=np.array([0.3 + 0.2j, -0.1]))),
        "inverse_poly": (ObservationPattern("S5", N=0, M2=1, N2=2),
                         FunctionalWeights(values={0: 1.0, 2: 0.2, 3: -0.5}),
                         InversePolynomial(FourierCoeffs.from_dict(
                             {0: 2.0, 1: -0.6, -1: -0.6, 3: 0.2, -3: 0.2}))),
        # a polynomial past the span of K plus 64 lags
        "ar80": (ObservationPattern("S4", N=0, M1=1, N1=1),
                 FunctionalWeights(values={0: 1.0, -2: 0.5}),
                 RationalAR(alpha=np.r_[np.zeros(79), 0.5])),
        "tabulated_ar1": (*S4_ONES, Tabulated(RationalAR(alpha=0.5).on_grid(DEFAULT_GRID))),
        # 1/f decays like 0.99^|m|: h reaches far past K
        "tabulated_ma1": (*S4_ONES, Tabulated(
            np.abs(1 - 0.99 * np.exp(-1j * angular_grid(DEFAULT_GRID))) ** 2)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_grid_error_is_delta(self, case):
        pattern, weights, f = self.CASES[case]
        sol = solve(pattern, weights, f)
        assert abs(estimate_grid_error(sol) - sol.delta) <= 1e-10 * sol.delta

    def test_truncated_tabulated(self):
        f = Tabulated(RationalAR(alpha=0.5).on_grid(DEFAULT_GRID))
        pattern = ObservationPattern("S3", N=1, M1=2, M2=1, T=1)
        sol = solve_truncated(pattern, FunctionalWeights(geometric=(1.0, 0.6)), f)
        assert abs(estimate_grid_error(sol) - sol.delta) <= 1e-10 * sol.delta

    def test_table_of_an_ar1_keeps_its_exact_support(self):
        # h vanishes past [min K - 1, max K + 1] for an AR(1); the FFT of the
        # table's h keeps no lag beyond
        f = Tabulated(RationalAR(alpha=0.5).on_grid(DEFAULT_GRID))
        sol = solve(EX_PATTERN, EX_WEIGHTS, f)
        assert set(estimate_weights_from_characteristic(sol)) == {-6, -2, -1, 2}
        assert min(sol.h_coeffs) == -6 and max(sol.h_coeffs) == 2

    def test_table_of_an_ar2_ends_near_k(self):
        # h vanishes past [min K - 2, max K + 2] for an AR(2): the cut at the
        # rounding of C/f keeps none of the FFT's rounding noise past it
        f = Tabulated(RationalAR(alpha=[1.4986253, -0.5611668], sigma2=0.5536295)
                      .on_grid(DEFAULT_GRID))
        pattern = ObservationPattern("S4", N=1, M1=2, N1=7)
        weights = FunctionalWeights(values={
            -9: 0.97 - 0.06j, -8: 0.54 + 0.31j, -7: 0.46 + 0.42j, -6: 1.84 - 0.11j,
            -5: 1.62 - 0.82j, -4: 0.26 + 0.79j, -3: 0.27 + 0.6j, 0: 1.4 + 0.07j, 1: 1.86 + 0.93j})
        sol = solve(pattern, weights, f)
        assert -13 <= min(sol.h_coeffs) and max(sol.h_coeffs) <= 5  # K is [-9, 1]
        assert abs(estimate_grid_error(sol) - sol.delta) <= 1e-10 * sol.delta
