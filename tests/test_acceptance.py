"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion. The oracles here are
independent of the solver internals: closed-form coefficient expressions for
the first-order autoregressive benchmark, a time-domain projection built from
covariances alone, and Monte Carlo simulation.
"""

import time

import numpy as np
import pytest

from gapinterp.densities import (
    InversePolynomial,
    RationalAR,
    Tabulated,
    grid_fourier_coefficients,
    minimality_value,
)
from gapinterp.interpolate import solve, solve_truncated
from gapinterp.minimax import (
    D0Minus,
    DVU,
    DW,
    lf_d0minus,
    lf_dvu,
    lf_dW,
    numerical_lf,
    saddle_check,
    sample_density,
)
from gapinterp.oracle import (
    build_problem,
    empirical_mse,
    estimate_weights_from_characteristic,
    project,
    simulate,
)
from gapinterp.patterns import FunctionalWeights, ObservationPattern, missing_indices


def report(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# closed-form oracle for the AR(1) benchmark gap {0, 1, -3, -4, -5}
# (and its mirror {0, 1, 4, 5, 6}): the coefficient system is block
# diagonal, so every block has an explicit solution
# ---------------------------------------------------------------------------

def _central_term(alpha, a0, a1):
    m2 = abs(alpha) ** 2
    d = 1 + m2 + m2 ** 2
    return ((1 + m2) * (a0 ** 2 + a1 ** 2) + 2 * alpha.real * a0 * a1) / d


def _side_term(alpha, a3, a4, a5):
    m2 = abs(alpha) ** 2
    m4 = m2 ** 2
    e = (1 + m2) * (1 + m4)
    num = ((1 + m2 + m4) * (a3 ** 2 + a4 ** 2 + a5 ** 2) + m2 * a4 ** 2
           + 2 * (alpha ** 2).real * a3 * a5
           + 2 * alpha.real * (1 + m2) * (a3 * a4 + a4 * a5))
    return num / e


def oracle_s4(alpha, a):
    """Coefficients and error for the left-sided benchmark gap, weights a
    keyed by missing index."""
    alpha = complex(alpha)
    ac = np.conj(alpha)
    m2 = abs(alpha) ** 2
    m4 = m2 ** 2
    d = 1 + m2 + m4
    e = (1 + m2) * (1 + m4)
    c = {
        0: (a[0] * (1 + m2) + alpha * a[1]) / d,
        1: (ac * a[0] + a[1] * (1 + m2)) / d,
        -3: (d * a[-3] + ac * (1 + m2) * a[-4] + ac ** 2 * a[-5]) / e,
        -4: (alpha * a[-3] + (1 + m2) * a[-4] + ac * a[-5]) / (1 + m4),
        -5: (alpha ** 2 * a[-3] + alpha * (1 + m2) * a[-4] + d * a[-5]) / e,
    }
    delta = _central_term(alpha, a[0], a[1]) + _side_term(alpha, a[-3], a[-4], a[-5])
    return c, delta


def oracle_s5_delta(alpha, a):
    alpha = complex(alpha)
    return _central_term(alpha, a[0], a[1]) + _side_term(alpha, a[4], a[5], a[6])


def oracle_s6_delta(alpha, a):
    alpha = complex(alpha)
    return (_central_term(alpha, a[0], a[1])
            + _side_term(alpha, a[-3], a[-4], a[-5])
            + _side_term(alpha, a[4], a[5], a[6]))


S4 = ObservationPattern("S4", N=1, M1=2, N1=3)
S5 = ObservationPattern("S5", N=1, M2=2, N2=3)
S6 = ObservationPattern("S6", N=1, M1=2, N1=3, M2=2, N2=3)

_GAP_CAPS = []  # (max gap coefficient, weight norm) pairs from criteria 1-2


def _record_gap(sol):
    cap = max(abs(sol.h_coeffs.get(j, 0.0)) for j in sol.indices)
    _GAP_CAPS.append((cap, float(np.sqrt(np.sum(np.abs(sol.a) ** 2)))))
    return sol


class TestCriterion1:
    def test_benchmark_regression(self):
        start = time.perf_counter()
        ok = True
        worst = 0.0
        for alpha in (0.5, 0.3, 0.3 + 0.1j):
            weight_sets = [{j: 1.0 for j in [0, 1, -3, -4, -5, 4, 5, 6]}]
            if complex(alpha).imag == 0.0:
                weight_sets.append(
                    {j: float(k + 1) for k, j in enumerate([0, 1, -3, -4, -5, 4, 5, 6])}
                )
            f = RationalAR(alpha=alpha)
            for a in weight_sets:
                c_ref, d4 = oracle_s4(alpha, a)
                sol4 = _record_gap(solve(
                    S4, FunctionalWeights(values={j: a[j] for j in [0, 1, -3, -4, -5]}), f))
                for k, j in enumerate([0, 1, -3, -4, -5]):
                    worst = max(worst, abs(sol4.c[k] - c_ref[j]))
                worst = max(worst, abs(sol4.delta - d4))
                sol5 = _record_gap(solve(
                    S5, FunctionalWeights(values={j: a[j] for j in [0, 1, 4, 5, 6]}), f))
                worst = max(worst, abs(sol5.delta - oracle_s5_delta(alpha, a)))
                sol6 = _record_gap(solve(S6, FunctionalWeights(values=a), f))
                worst = max(worst, abs(sol6.delta - oracle_s6_delta(alpha, a)))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-10 and elapsed < 1.0
        report(1, ok, f"max deviation {worst:.2e}, {elapsed:.2f}s")

    def test_reference_values(self):
        sol = solve(S4, FunctionalWeights(values={j: 1.0 for j in [0, 1, -3, -4, -5]}),
                    RationalAR(alpha=0.5))
        assert abs(sol.delta - 412 / 51) < 1e-12
        assert abs(sol.coefficient(-4) - 36 / 17) < 1e-12


class TestCriterion2:
    def test_random_patterns_vs_projection(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(10):
            kind = ["S4", "S5", "S6"][trial % 3]
            N = int(rng.integers(0, 3))
            args = {"N": N}
            if kind in ("S4", "S6"):
                args["M1"] = int(rng.integers(1, 4))
                args["N1"] = int(rng.integers(1, 4))
            if kind in ("S5", "S6"):
                args["M2"] = int(rng.integers(1, 4))
                args["N2"] = int(rng.integers(1, 4))
            pattern = ObservationPattern(kind, **args)
            if trial % 2 == 0:
                f = RationalAR(alpha=float(rng.uniform(-0.7, 0.7)))
            else:
                while True:
                    p1 = float(rng.uniform(-0.8, 0.8))
                    p2 = float(rng.uniform(-0.5, 0.5))
                    if abs(p2) < 1 and p2 + p1 < 1 and p2 - p1 < 1:
                        break
                f = RationalAR(alpha=np.array([p1, p2]))
            w = FunctionalWeights(values={
                j: float(rng.uniform(0.2, 2.0)) for j in missing_indices(pattern)})
            sol = _record_gap(solve(pattern, w, f))
            proj = project(build_problem(pattern, w, f, window=500))
            worst = max(worst, abs(sol.delta - proj["mse"]) / proj["mse"])
        elapsed = time.perf_counter() - start
        ok = worst < 1e-6 and elapsed < 30.0
        report(2, ok, f"worst relative gap {worst:.2e}, {elapsed:.1f}s")


class TestCriterion3:
    def test_monte_carlo(self):
        start = time.perf_counter()
        f = RationalAR(alpha=0.5)
        w = FunctionalWeights(values={j: 1.0 for j in [0, 1, -3, -4, -5]})
        sol = solve(S4, w, f)
        est = {j: v.real for j, v in
               estimate_weights_from_characteristic(sol).items()}
        margin = 60
        paths = simulate(f, length=2 * margin + 1, n_replicates=100000, seed=17)
        target = {j: 1.0 for j in [0, 1, -3, -4, -5]}
        em = empirical_mse(paths, est, target, origin=margin)
        elapsed = time.perf_counter() - start
        gap = abs(em["mean"] - 412 / 51)
        ok = gap < 3 * em["stderr"] and elapsed < 60.0
        report(3, ok, f"empirical {em['mean']:.4f} vs {412 / 51:.4f}, "
                      f"|z| = {gap / em['stderr']:.2f}, {elapsed:.1f}s")


class TestCriterion4:
    def test_characteristics_vanish_on_gaps(self):
        assert _GAP_CAPS, "criteria 1-2 must run first"
        worst = max(cap / norm for cap, norm in _GAP_CAPS)
        report(4, worst <= 1e-8, f"worst relative gap coefficient {worst:.2e} "
                                 f"over {len(_GAP_CAPS)} solves")


LF_PATTERN = ObservationPattern("S5", N=0, M2=1, N2=1)
LF_WEIGHTS = FunctionalWeights(values={0: 1.0, 2: 0.2})


class TestCriterion5:
    def test_mean_constrained_class(self):
        cls = D0Minus(p=1.0)
        res = lf_d0minus(LF_PATTERN, LF_WEIGHTS, cls)
        exact_mean = res.b0[0] == 1.0
        rep = saddle_check(res, LF_PATTERN, LF_WEIGHTS, cls, n_samples=100, seed=0)
        num = numerical_lf(LF_PATTERN, LF_WEIGHTS, cls)
        rel = abs(num.delta0 - res.delta0) / res.delta0
        ok = exact_mean and rep["all_pass"] and rel <= 1e-4
        report(5, ok, f"saddle {rep['upper_pass']}/100 upper, "
                      f"{rep['lower_pass']}/{rep['n_perturbations']} lower, "
                      f"numerical gap {rel:.2e}")


class TestCriterion6:
    def test_moment_constrained_class(self):
        cls_d = DW(b_given=np.array([1.25, -0.5, 0.0]))
        res_d = lf_dW(LF_PATTERN, LF_WEIGHTS, cls_d)
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(20):
            f = sample_density(cls_d, res_d, rng)
            d = solve(LF_PATTERN, LF_WEIGHTS, f, grid_size=res_d.grid_size).delta
            worst = max(worst, abs(d - res_d.delta0) / res_d.delta0)
        degenerate_ok = res_d.validity["degenerate"] and worst < 1e-8

        pattern = ObservationPattern("S5", N=0, M2=2, N2=1)
        weights = FunctionalWeights(values={0: 1.0, 3: 0.1})
        cls_n = DW(b_given=np.array([1.25, -0.5]))
        res_n = lf_dW(pattern, weights, cls_n)
        resid = res_n.lagrange["newton_residual"]
        inv_grid = res_n.f0.inverse_on_grid(4096)
        moments = grid_fourier_coefficients(inv_grid, 1).real
        moment_err = max(abs(moments[1] - 1.25), abs(moments[2] + 0.5))
        newton_ok = resid < 1e-10 and moment_err < 1e-9
        report(6, degenerate_ok and newton_ok,
               f"degenerate spread {worst:.2e}, newton residual {resid:.2e}, "
               f"moment error {moment_err:.2e}")


class TestCriterion7:
    def test_banded_class(self):
        wide = DVU(v=Tabulated(np.full(512, 0.05)),
                   u=Tabulated(np.full(512, 20.0)), p=1.0)
        res_wide = lf_dvu(LF_PATTERN, LF_WEIGHTS, wide)
        base = lf_d0minus(LF_PATTERN, LF_WEIGHTS, D0Minus(p=1.0))
        inactive_ok = abs(res_wide.delta0 - base.delta0) <= 1e-12

        tight = DVU(v=Tabulated(np.full(512, 0.5)),
                    u=Tabulated(np.full(512, 1.2)), p=1.0)
        res_t = lf_dvu(LF_PATTERN, LF_WEIGHTS, tight, seed=1)
        f0 = res_t.f0.on_grid(res_t.grid_size)
        bounds_ok = bool(np.all(f0 >= 0.5 - 1e-9) and np.all(f0 <= 1.2 + 1e-9))
        rng = np.random.default_rng(7)
        dominated = 0
        for _ in range(100):
            f = sample_density(tight, res_t, rng, grid_size=res_t.grid_size)
            d = solve(LF_PATTERN, LF_WEIGHTS, f, grid_size=res_t.grid_size).delta
            if d <= res_t.delta0 * (1 + 1e-6):
                dominated += 1
        ok = inactive_ok and bounds_ok and dominated == 100
        report(7, ok, f"inactive gap {abs(res_wide.delta0 - base.delta0):.2e}, "
                      f"dominated {dominated}/100")


class TestCriterion8:
    def test_infinite_patterns(self):
        f = RationalAR(alpha=0.5)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        cases = [
            ObservationPattern("S1", N=1, M1=2, T=1),
            ObservationPattern("S2", N=1, M2=2, T=1),
            ObservationPattern("S3", N=0, M1=1, M2=1, T=1),
        ]
        worst_plateau = 0.0
        worst_proj = 0.0
        tabulated = Tabulated(f.on_grid(4096))  # solved by the doubling loop
        for pattern in cases:
            sol = solve_truncated(pattern, w, tabulated)
            d = sol.convergence["deltas"]
            worst_plateau = max(worst_plateau, abs(d[-1] - d[-2]) / d[-1])
            deep = pattern.with_truncation(200)
            proj = project(build_problem(deep, w, f, window=1000))
            worst_proj = max(worst_proj, abs(sol.delta - proj["mse"]) / proj["mse"])
        ok = worst_plateau <= 1e-8 and worst_proj <= 1e-5
        report(8, ok, f"plateau {worst_plateau:.2e}, projection gap {worst_proj:.2e}")
