"""Time-domain projection and Monte Carlo cross-checks."""

import numpy as np
import pytest

from gapinterp.densities import RationalAR, Tabulated, angular_grid, covariance
from gapinterp.errors import IndexOutOfPath, InvalidParameters
from gapinterp.interpolate import solve
from gapinterp.oracle import (
    build_problem,
    empirical_mse,
    estimate_weights_from_characteristic,
    project,
    simulate,
)
from gapinterp.patterns import (
    FunctionalWeights,
    ObservationPattern,
    missing_indices,
    weight_vector,
)


EX_PATTERN = ObservationPattern("S4", N=1, M1=2, N1=3)
EX_WEIGHTS = FunctionalWeights(values={j: 1.0 for j in [0, 1, -3, -4, -5]})
EX_DENSITY = RationalAR(alpha=0.5)


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


class TestSimulate:
    def test_reproducible(self):
        a = simulate(EX_DENSITY, length=64, n_replicates=4, seed=42)
        b = simulate(EX_DENSITY, length=64, n_replicates=4, seed=42)
        assert np.array_equal(a, b)
        c = simulate(EX_DENSITY, length=64, n_replicates=4, seed=43)
        assert not np.array_equal(a, c)

    def test_replicates_independent_of_batch(self):
        both = simulate(EX_DENSITY, length=32, n_replicates=2, seed=5)
        first = simulate(EX_DENSITY, length=32, n_replicates=1, seed=5)
        assert np.array_equal(both[0], first[0])

    def test_ar_autocovariance(self):
        paths = simulate(EX_DENSITY, length=64, n_replicates=40000, seed=1)
        for lag in (0, 1, 3):
            emp = np.mean(paths[:, 10] * paths[:, 10 + lag])
            prods = paths[:, 10] * paths[:, 10 + lag]
            se = np.std(prods, ddof=1) / np.sqrt(paths.shape[0])
            truth = covariance(EX_DENSITY, lag).real
            assert abs(emp - truth) < 4 * se

    def test_circulant_autocovariance(self):
        lam = angular_grid(4096)
        f = Tabulated(2.0 + np.cos(lam))
        paths = simulate(f, length=32, n_replicates=40000, seed=2)
        for lag in (0, 1, 2):
            prods = paths[:, 5] * paths[:, 5 + lag]
            se = np.std(prods, ddof=1) / np.sqrt(paths.shape[0])
            truth = covariance(f, lag).real
            assert abs(np.mean(prods) - truth) < 4 * se

    def test_bad_arguments(self):
        with pytest.raises(InvalidParameters):
            simulate(EX_DENSITY, length=0)
        with pytest.raises(InvalidParameters):
            simulate(EX_DENSITY, length=10, n_replicates=0)


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

    def test_empirical_matches_projection(self):
        sol, est = self.solve_and_estimate()
        margin = 40
        paths = simulate(EX_DENSITY, length=2 * margin + 1,
                         n_replicates=60000, seed=9)
        target = {j: 1.0 for j in missing_indices(EX_PATTERN)}
        em = empirical_mse(paths, est, target, origin=margin)
        assert abs(em["mean"] - sol.delta) < 3 * em["stderr"]
        assert em["stderr"] < 0.05 * sol.delta

    def test_perturbed_weights_do_worse(self):
        sol, est = self.solve_and_estimate()
        margin = 40
        paths = simulate(EX_DENSITY, length=2 * margin + 1,
                         n_replicates=60000, seed=10)
        target = {j: 1.0 for j in missing_indices(EX_PATTERN)}
        base = empirical_mse(paths, est, target, origin=margin)["mean"]
        worse = dict(est)
        worse[-1] += 0.5
        perturbed = empirical_mse(paths, worse, target, origin=margin)["mean"]
        assert perturbed > base

    def test_index_out_of_path(self):
        paths = simulate(EX_DENSITY, length=11, n_replicates=2, seed=0)
        with pytest.raises(IndexOutOfPath):
            empirical_mse(paths, {100: 1.0}, {0: 1.0}, origin=5)

    def test_no_estimate_weights(self):
        paths = np.ones((3, 5))
        em = empirical_mse(paths, {}, {0: 2.0}, origin=2)
        assert abs(em["mean"] - 4.0) < 1e-14
