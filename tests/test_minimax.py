"""Least-favourable densities, robust characteristics, saddle probes."""

import dataclasses

import numpy as np
import pytest

from gapinterp.densities import (
    FourierCoeffs,
    InversePolynomial,
    RationalAR,
    Tabulated,
    angular_grid,
    minimality_value,
)
from gapinterp.errors import (
    InfeasibleClass,
    InvalidParameters,
    NotCovered,
    PositivityLost,
    WeightsNotPositive,
)
from gapinterp.interpolate import mse_of_characteristic, solve
from gapinterp.minimax import (
    D0Minus,
    DVU,
    DW,
    anchor_index,
    lf_d0minus,
    lf_dvu,
    lf_dW,
    numerical_lf,
    saddle_check,
    sample_density,
)
from gapinterp.patterns import FunctionalWeights, ObservationPattern, missing_indices


S5_SMALL = ObservationPattern("S5", N=0, M2=1, N2=1)  # K = {0, 2}
W_SMALL = FunctionalWeights(values={0: 1.0, 2: 0.2})


class TestAnchor:
    def test_by_kind(self):
        assert anchor_index(ObservationPattern("S5", N=1, M2=2, N2=3)) == 0
        assert anchor_index(ObservationPattern("S4", N=1, M1=2, N1=3)) == 1
        assert anchor_index(ObservationPattern("S6", N=1, M1=1, N1=1, M2=2, N2=2)) == 5
        assert anchor_index(ObservationPattern("S2", N=0, M2=1, T=3)) == 0


class TestD0Minus:
    def test_mean_constraint_exact(self):
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        assert res.b0[0] == 1.0  # exact, not approximate

    def test_mean_constraint_off_by_rounding(self):
        # b0(0) = p a(n*) / a(n*) rounds away from p in the last bit here
        p_val, anchor = 0.1, 3.0
        assert p_val * anchor / anchor != p_val
        w = FunctionalWeights(values={0: anchor, 2: 0.6})
        res = lf_d0minus(S5_SMALL, w, D0Minus(p=p_val))
        assert res.mechanism == "closed_form"
        assert abs(res.delta0 - anchor ** 2 / p_val) < 1e-10 * anchor ** 2 / p_val

    def test_support_and_symmetry(self):
        p = ObservationPattern("S5", N=1, M2=1, N2=1)  # K = {0, 1, 3}
        w = FunctionalWeights(values={0: 1.0, 1: 0.3, 3: 0.1})
        res = lf_d0minus(p, w, D0Minus(p=2.0))
        b0 = res.b0
        nonzero = {m for m in range(-b0.half_length, b0.half_length + 1)
                   if abs(b0[m]) > 0}
        assert nonzero == {0, 1, -1, 3, -3}
        for m in nonzero:
            assert b0[m] == b0[-m]

    def test_error_value_formula(self):
        for p_val in (0.5, 1.0, 3.0):
            res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=p_val))
            assert abs(res.delta0 - 1.0 / p_val) < 1e-10 / p_val

    def test_coefficients_concentrate_at_anchor(self):
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        c = res.solution.c
        assert abs(c[0] - 1.0) < 1e-10  # a(0)/p at the anchor
        assert abs(c[1]) < 1e-10

    def test_density_scales_inversely_with_p(self):
        r1 = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        r2 = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=2.0))
        f1 = r1.f0.on_grid(512)
        f2 = r2.f0.on_grid(512)
        assert np.allclose(f2, f1 / 2.0, atol=1e-12)
        assert abs(r2.delta0 - r1.delta0 / 2.0) < 1e-10

    def test_characteristic_mse_attains_delta0(self):
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        val = mse_of_characteristic(res.h0_grid, S5_SMALL, W_SMALL, res.f0)
        assert abs(val - res.delta0) < 1e-8 * res.delta0

    def test_positivity_failure_flagged(self):
        w = FunctionalWeights(values={0: 1.0, 2: 1.0})
        res = lf_d0minus(S5_SMALL, w, D0Minus(p=1.0))
        assert not res.validity["positivity_ok"]
        assert res.mechanism == "closed_form_invalid"
        assert res.f0 is None
        assert np.isnan(res.delta0)

    def test_weights_must_be_real_positive(self):
        with pytest.raises(WeightsNotPositive):
            lf_d0minus(S5_SMALL, FunctionalWeights(values={0: 1.0, 2: -0.2}),
                       D0Minus(p=1.0))
        with pytest.raises(WeightsNotPositive):
            lf_d0minus(S5_SMALL, FunctionalWeights(values={0: 1.0, 2: 0.2j}),
                       D0Minus(p=1.0))

    def test_two_sided_infinite_not_covered(self):
        p = ObservationPattern("S3", N=0, M1=1, M2=1, T=5)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        with pytest.raises(NotCovered):
            lf_d0minus(p, w, D0Minus(p=1.0))

    def test_truncated_one_sided_supported(self):
        p = ObservationPattern("S2", N=0, M2=1, T=6)
        w = FunctionalWeights(geometric=(1.0, 0.25))
        res = lf_d0minus(p, w, D0Minus(p=1.0))
        assert res.validity["positivity_ok"]
        assert abs(res.delta0 - 1.0) < 1e-8  # a(0)^2 / p

    def test_saddle_check_passes(self):
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        report = saddle_check(res, S5_SMALL, W_SMALL, D0Minus(p=1.0),
                              n_samples=60, seed=7)
        assert report["all_pass"]
        assert report["upper_pass"] == 60
        assert report["dominance_pass"] == 60

    def test_saddle_check_rejects_corrupted_characteristic(self):
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        bad = dataclasses.replace(res, h0_grid=np.zeros_like(res.h0_grid))
        report = saddle_check(bad, S5_SMALL, W_SMALL, D0Minus(p=1.0),
                              n_samples=60, seed=7)
        assert not report["all_pass"]

    def test_saddle_check_refuses_invalid_closed_form(self):
        p = ObservationPattern("S4", N=1, M1=2, N1=3)
        w = FunctionalWeights(values={j: 1.0 for j in missing_indices(p)})
        res = lf_d0minus(p, w, D0Minus(p=1.0))
        assert res.mechanism == "closed_form_invalid"
        with pytest.raises(PositivityLost) as info:
            saddle_check(res, p, w, D0Minus(p=1.0), n_samples=5)
        assert info.value.diagnostics["inv_min"] == res.diagnostics["inv_min"] < 0


class TestDW:
    def test_degenerate_constant_error(self):
        cls = DW(b_given=np.array([1.25, -0.5, 0.0]))  # W = 2 >= span = 2
        res = lf_dW(S5_SMALL, W_SMALL, cls)
        assert res.mechanism == "degenerate"
        assert res.validity["degenerate"]
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = sample_density(cls, res, rng)
            d = solve(S5_SMALL, W_SMALL, f, grid_size=res.grid_size).delta
            assert abs(d - res.delta0) < 1e-8 * res.delta0

    def test_degenerate_matches_direct_solve(self):
        cls = DW(b_given=np.array([1.25, -0.5, 0.0]))
        res = lf_dW(S5_SMALL, W_SMALL, cls)
        direct = solve(S5_SMALL, W_SMALL, InversePolynomial(cls.inverse_poly()))
        assert abs(res.delta0 - direct.delta) < 1e-12

    def test_newton_solves_moment_structure(self):
        p = ObservationPattern("S5", N=0, M2=2, N2=1)  # K = {0, 3}
        w = FunctionalWeights(values={0: 1.0, 3: 0.1})
        cls = DW(b_given=np.array([1.25, -0.5]))  # W = 1 < span = 3
        res = lf_dW(p, w, cls)
        assert res.mechanism == "newton"
        assert res.lagrange["newton_residual"] < 1e-10
        # prescribed moments are reproduced exactly by the solved density
        assert abs(res.b0[0] - 1.25) < 1e-12
        assert abs(res.b0[1] + 0.5) < 1e-12
        # the only free lag is 3; lag 2 is structurally zero
        assert abs(res.b0[2]) == 0.0
        assert 3 in res.lagrange["solved_lags"]
        vals = res.f0.inverse_on_grid(4096)
        assert np.min(vals) > 0

    def test_newton_point_is_stationary(self):
        # the structured point is stationary within the moment class: the
        # error changes only to second order along feasible even directions
        p = ObservationPattern("S5", N=0, M2=2, N2=1)
        w = FunctionalWeights(values={0: 1.0, 3: 0.1})
        cls = DW(b_given=np.array([1.25, -0.5]))
        res = lf_dW(p, w, cls)
        G = res.grid_size
        lam = angular_grid(G)
        g0 = res.f0.inverse_on_grid(G)
        # lag 3 is the only free coefficient lag that enters the system
        direction = np.cos(3 * lam)

        def excess(t):
            f = Tabulated(1.0 / (g0 + t * direction))
            return solve(p, w, f, grid_size=G).delta - res.delta0

        e1, e2 = excess(0.02), excess(0.01)
        assert 0 < abs(e1) < 1e-2 * res.delta0
        assert abs(e1) / abs(e2) > 2.5  # quadratic, not linear
        # directions at lags outside the system leave the error untouched
        f_other = Tabulated(1.0 / (g0 + 0.02 * np.cos(2 * lam)))
        assert abs(solve(p, w, f_other, grid_size=G).delta - res.delta0) < 1e-12

    def test_w0_reduces_to_mean_constrained_form(self):
        p = ObservationPattern("S5", N=1, M2=1, N2=1)  # K = {0, 1, 3}
        w = FunctionalWeights(values={0: 1.0, 1: 0.2, 3: 0.1})
        res_w = lf_dW(p, w, DW(b_given=np.array([2.0])))
        res_p = lf_d0minus(p, w, D0Minus(p=2.0))
        assert abs(res_w.delta0 - res_p.delta0) < 1e-9
        for m in range(4):
            assert abs(res_w.b0[m] - res_p.b0[m]) < 1e-9

    def test_uncovered_geometry_refused(self):
        p = ObservationPattern("S4", N=1, M1=2, N1=3)  # K = {0,1,-3,-4,-5}
        w = FunctionalWeights(values={j: 1.0 for j in missing_indices(p)})
        with pytest.raises(NotCovered):
            lf_dW(p, w, DW(b_given=np.array([1.25, -0.5, 0.0, 0.0])))  # W = 3

    def test_standing_condition_gates(self):
        p = ObservationPattern("S4", N=2, M1=1, N1=1)  # M1 < N
        w = FunctionalWeights(values={j: 1.0 for j in missing_indices(p)})
        with pytest.raises(NotCovered):
            lf_dW(p, w, DW(b_given=np.array([1.0])))
        q = ObservationPattern("S6", N=0, M1=2, N1=2, M2=1, N2=1)  # N+M2 < M1+N1
        wq = FunctionalWeights(values={j: 1.0 for j in missing_indices(q)})
        with pytest.raises(NotCovered):
            lf_dW(q, wq, DW(b_given=np.array([1.0])))

    def test_infinite_pattern_refused(self):
        p = ObservationPattern("S1", N=0, M1=1, T=5)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        with pytest.raises(NotCovered):
            lf_dW(p, w, DW(b_given=np.array([1.0])))

    def test_positivity_lost_reported(self):
        p = ObservationPattern("S5", N=0, M2=2, N2=1)
        w = FunctionalWeights(values={0: 1.0, 3: 1.0})
        with pytest.raises(PositivityLost):
            lf_dW(p, w, DW(b_given=np.array([1.25, -0.5])))

    def test_nonpositive_moments_rejected_at_construction(self):
        with pytest.raises(InvalidParameters):
            DW(b_given=np.array([1.0, 0.0, 1.0]))


class TestDVU:
    def test_inactive_bounds_match_mean_constrained_form(self):
        cls = DVU(v=Tabulated(np.full(512, 0.05)), u=Tabulated(np.full(512, 20.0)),
                  p=1.0)
        res = lf_dvu(S5_SMALL, W_SMALL, cls)
        base = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        assert res.mechanism == "closed_form"
        assert abs(res.delta0 - base.delta0) < 1e-12
        assert res.lagrange["lower_active"] == []
        assert res.lagrange["upper_active"] == []

    def test_pinned_class(self):
        f = RationalAR(alpha=0.5)
        cls = DVU(v=f, u=f, p=minimality_value(f))
        res = lf_dvu(S5_SMALL, W_SMALL, cls)
        assert res.mechanism == "pinned"
        direct = solve(S5_SMALL, W_SMALL, f)
        assert abs(res.delta0 - direct.delta) < 1e-10

    def test_active_upper_bound(self):
        cls = DVU(v=Tabulated(np.full(512, 0.5)), u=Tabulated(np.full(512, 1.2)),
                  p=1.0)
        res = lf_dvu(S5_SMALL, W_SMALL, cls, seed=2)
        assert res.mechanism == "numerical"
        f0 = res.f0.on_grid(res.grid_size)
        assert np.all(f0 >= 0.5 - 1e-9)
        assert np.all(f0 <= 1.2 + 1e-9)
        assert abs(np.mean(1.0 / f0) - 1.0) < 1e-9
        assert len(res.lagrange["upper_active"]) > 0
        rng = np.random.default_rng(5)
        for _ in range(40):
            f = sample_density(cls, res, rng, grid_size=res.grid_size)
            d = solve(S5_SMALL, W_SMALL, f, grid_size=res.grid_size).delta
            assert d <= res.delta0 * (1 + 1e-6)

    def test_forced_white_noise(self):
        # f <= 1 with mean(1/f) = 1 forces f identically one
        cls = DVU(v=Tabulated(np.full(512, 0.1)), u=Tabulated(np.full(512, 1.0)),
                  p=1.0)
        res = lf_dvu(S5_SMALL, W_SMALL, cls)
        assert abs(res.delta0 - 1.04) < 1e-8  # sum of squared weights

    def test_infeasible_p(self):
        cls = DVU(v=Tabulated(np.full(512, 0.5)), u=Tabulated(np.full(512, 1.0)),
                  p=10.0)
        with pytest.raises(InfeasibleClass):
            lf_dvu(S5_SMALL, W_SMALL, cls)

    def test_crossed_bounds(self):
        cls = DVU(v=Tabulated(np.full(512, 2.0)), u=Tabulated(np.full(512, 1.0)),
                  p=1.0)
        with pytest.raises(InvalidParameters):
            lf_dvu(S5_SMALL, W_SMALL, cls)


class TestNumerical:
    def test_warm_start_recovers_closed_form(self):
        closed = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        num = numerical_lf(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        assert abs(num.delta0 - closed.delta0) <= 1e-4 * closed.delta0
        assert num.diagnostics["converged"]

    def test_dw_degenerate_flag(self):
        cls = DW(b_given=np.array([1.25, -0.5, 0.0]))
        res = numerical_lf(S5_SMALL, W_SMALL, cls)
        assert res.diagnostics["degenerate"]
        direct = solve(S5_SMALL, W_SMALL, InversePolynomial(cls.inverse_poly()),
                       grid_size=res.grid_size)
        assert abs(res.delta0 - direct.delta) < 1e-10

    def test_dvu_respects_box(self):
        cls = DVU(v=Tabulated(np.full(512, 0.5)), u=Tabulated(np.full(512, 1.2)),
                  p=1.0)
        res = numerical_lf(S5_SMALL, W_SMALL, cls)
        f0 = res.f0.on_grid(res.grid_size)
        assert np.all(f0 >= 0.5 - 1e-9)
        assert np.all(f0 <= 1.2 + 1e-9)

    def test_sampled_members_stay_in_class(self):
        cls = D0Minus(p=1.0)
        res = lf_d0minus(S5_SMALL, W_SMALL, cls)
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = sample_density(cls, res, rng)
            g = f.inverse_on_grid(res.grid_size)
            assert np.mean(g) >= 1.0 - 1e-10
