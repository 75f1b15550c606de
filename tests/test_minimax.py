"""Least-favourable densities, robust characteristics, saddle probes."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from gapinterp.densities import (
    FourierCoeffs,
    InversePolynomial,
    RationalAR,
    Tabulated,
    angular_grid,
    grid_fourier_coefficients,
    minimality_value,
)
from gapinterp.errors import (
    GapInterpError,
    InfeasibleClass,
    InvalidParameters,
    NotCovered,
    PositivityLost,
    WeightsNotPositive,
)
from gapinterp import minimax
from gapinterp.interpolate import (
    error_value,
    mse_of_characteristic,
    poly_on_grid,
    solve,
    solve_gram,
)
from gapinterp.minimax import (
    D0Minus,
    DVU,
    DW,
    _project_dw,
    anchor_index,
    lf_d0minus,
    lf_dvu,
    lf_dW,
    numerical_lf,
    saddle_check,
    sample_density,
)
from gapinterp.patterns import FunctionalWeights, ObservationPattern, missing_indices, weight_vector


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
        # a half-empty result with delta0 = nan was returned
        w = FunctionalWeights(values={0: 1.0, 2: 1.0})
        with pytest.raises(PositivityLost) as info:
            lf_d0minus(S5_SMALL, w, D0Minus(p=1.0))
        assert info.value.diagnostics["inv_min"] < 0

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
        with pytest.raises(NotCovered) as exc:
            lf_d0minus(p, w, D0Minus(p=1.0))
        # numerical_lf raises the same error, so the message points nowhere
        assert "numerical_lf" not in str(exc.value)
        with pytest.raises(NotCovered):
            numerical_lf(p, w, D0Minus(p=1.0))

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
        # refused before any result reaches saddle_check
        p = ObservationPattern("S4", N=1, M1=2, N1=3)
        w = FunctionalWeights(values={j: 1.0 for j in missing_indices(p)})
        with pytest.raises(PositivityLost, match="not a valid density") as info:
            lf_d0minus(p, w, D0Minus(p=1.0))
        assert info.value.diagnostics["inv_min"] < 0

    def test_saddle_check_negative_seed_refused(self):
        # default_rng raised numpy's ValueError, which the CLI did not record
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        with pytest.raises(InvalidParameters, match="seed"):
            saddle_check(res, S5_SMALL, W_SMALL, D0Minus(p=1.0), n_samples=5, seed=-1)


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

    def test_structurally_singular_geometry_refused(self):
        # K = {0, 1, -6}, anchor 1, W = 0: lags 1 and 6 are unknown, but the
        # rows outside the support (0 and -6) sit 1 and 7 from the support
        # index 1, so lag 6 enters no equation whatever the weights
        p = ObservationPattern("S4", N=1, M1=5, N1=1)
        w = FunctionalWeights(values={0: 1.0, 1: 1.0, -6: 1.0})
        with pytest.raises(NotCovered, match=r"in no equation: \[6\]"):
            lf_dW(p, w, DW(b_given=np.array([2.0])))
        # K = {0, -2, 3, 4}, anchor 4, W = 2: the row -2 sits 5 and 6 from the
        # support {3, 4}, and neither is an unknown lag (3 and 4)
        q = ObservationPattern("S6", N=0, M1=1, N1=1, M2=2, N2=2)
        wq = FunctionalWeights(values={0: 1.0, -2: 1.0, 3: 1.0, 4: 1.0})
        with pytest.raises(NotCovered, match=r"no unknown lag, by index: \[-2\]"):
            lf_dW(q, wq, DW(b_given=np.array([2.0, 0.3, -0.2])))

    # (pattern, weights, b_given, mechanism, delta0, b0(0..half))
    PINNED = [
        ({"kind": "S5", "N": 0, "M2": 2, "N2": 1}, {0: 1.0, 3: 0.15}, [2.0],
         "newton", 0.5, [2.0, 0.0, 0.0, 0.3]),
        ({"kind": "S5", "N": 0, "M2": 2, "N2": 1}, {0: 1.0, 3: 0.15}, [1.25, -0.5],
         "newton", 0.8, [1.25, -0.5, 0.0, 0.18749999999999997]),
        ({"kind": "S5", "N": 0, "M2": 2, "N2": 1}, {0: 1.0, 3: 0.15}, [2.0, 0.3, -0.2, 0.1],
         "degenerate", 0.5050125313283208, [2.0, 0.3, -0.2, 0.1]),
        ({"kind": "S5", "N": 1, "M2": 1, "N2": 1}, {0: 1.0, 1: 0.15, 3: 0.2}, [1.25, -0.5],
         "newton", 1.0880952380952378, [1.25, -0.5, 0.0, 0.19811320754716982]),
        ({"kind": "S5", "N": 2, "M2": 3, "N2": 1}, {0: 1.0, 1: 0.15, 2: 0.2, 6: 0.25},
         [2.0, 0.3, -0.2],
         "newton", 0.5467703349282296, [2.0, 0.3, -0.2, 0.0, 0.0, 0.0, 0.48119723714504986]),
        ({"kind": "S5", "N": 0, "M2": 1, "N2": 1}, {0: 0.3, 2: 0.4}, [2.0, 0.3, -0.2],
         "degenerate", 0.13838383838383841, [2.0, 0.3, -0.2]),
        ({"kind": "S4", "N": 0, "M1": 2, "N1": 2}, {0: 1.0, -3: 0.15, -4: 0.2}, [2.0, 0.3, -0.2],
         "newton", 0.4999999999999999, [2.0, 0.3, -0.2, 0.3, 0.4]),
        ({"kind": "S4", "N": 0, "M1": 2, "N1": 2}, {0: 1.0, -3: 0.15, -4: 0.2},
         [2.0, 0.3, -0.2, 0.1],
         "newton", 0.5050125313283208, [2.0, 0.3, -0.2, 0.1, 0.3717884130982368]),
        ({"kind": "S4", "N": 1, "M1": 1, "N1": 1}, {0: 0.1, 1: 1.0, -2: 0.2}, [1.25, -0.5],
         "newton", 1.0380952380952382, [1.25, -0.5, 0.42000000000000004, 0.0]),
        ({"kind": "S4", "N": 1, "M1": 1, "N1": 1}, {0: 0.3, 1: 0.4, -2: 0.5},
         [1.25, -0.5, 0.0, 0.0],
         "degenerate", 0.5295238095238095, [1.25, -0.5, 0.0, 0.0]),
        ({"kind": "S6", "N": 1, "M1": 2, "N1": 0, "M2": 2, "N2": 2},
         {0: 0.1, 1: 0.15, 4: 0.2, 5: 1.0}, [2.0],
         "newton", 0.49999999999999994, [2.0, 0.4, 0.0, 0.0, 0.3, 0.2]),
        ({"kind": "S6", "N": 1, "M1": 2, "N1": 0, "M2": 2, "N2": 2},
         {0: 0.1, 1: 0.15, 4: 0.2, 5: 1.0}, [2.0, 0.3, -0.2, 0.1],
         "newton", 0.5012787723785167,
         [2.0, 0.3, -0.2, 0.1, 0.29716494845360825, 0.1862286109044532]),
        ({"kind": "S6", "N": 0, "M1": 1, "N1": 0, "M2": 1, "N2": 1}, {0: 0.2, 2: 1.0},
         [2.0, 0.3, -0.2],
         "degenerate", 0.5454545454545454, [2.0, 0.3, -0.2]),
    ]

    def test_outputs_pinned(self):
        # values of the damped Newton solver this one replaced
        for pattern, weights, b_given, mechanism, delta0, b0 in self.PINNED:
            res = lf_dW(ObservationPattern(**pattern), FunctionalWeights(values=weights),
                        DW(b_given=np.array(b_given)))
            assert res.mechanism == mechanism
            assert abs(res.delta0 - delta0) <= 1e-14 * delta0
            half = len(b0) - 1
            assert res.b0.half_length == half
            got = np.array([res.b0[m] for m in range(-half, half + 1)])
            want = np.array(b0[:0:-1] + b0)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_result_or_library_error(self, data):
        kind = data.draw(st.sampled_from(["S4", "S5", "S6"]))
        dims = {"N": data.draw(st.integers(0, 3))}
        if kind in ("S4", "S6"):
            dims.update(M1=data.draw(st.integers(1, 5)), N1=data.draw(st.integers(0, 4)))
        if kind in ("S5", "S6"):
            dims.update(M2=data.draw(st.integers(1, 5)), N2=data.draw(st.integers(0, 4)))
        pattern = ObservationPattern(kind, **dims)
        idx = missing_indices(pattern)
        weights = FunctionalWeights(values={
            j: data.draw(st.floats(0.02, 2.0)) for j in idx})
        tail = data.draw(st.lists(st.floats(-1.0, 1.0), max_size=4))
        # b(0) above the sum of |b(m)|: the moment sequence is strictly positive
        b_given = np.array([1.0 + data.draw(st.floats(0.01, 2.0)) + sum(map(abs, tail)), *tail])
        try:
            res = lf_dW(pattern, weights, DW(b_given=b_given))
        except GapInterpError:
            return
        W = b_given.size - 1
        assert (res.mechanism == "degenerate") == (W >= max(idx) - min(idx))
        assert res.lagrange["newton_residual"] <= 1e-10
        assert all(res.b0[m] == b_given[m] for m in range(W + 1))


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
        res = lf_dvu(S5_SMALL, W_SMALL, cls)
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

    @pytest.mark.parametrize("zeros", [slice(None), slice(0, 256), slice(7, 8)],
                             ids=["all", "half", "one"])
    def test_lower_bound_zero_somewhere_refused(self, zeros):
        # 1/v was inf: the ascent started at inf, went NaN and ended in NotConverged
        v = np.full(512, 0.5)
        v[zeros] = 0.0
        cls = DVU(v=Tabulated(v), u=Tabulated(np.full(512, 1.2)), p=1.0)
        pattern = ObservationPattern("S6", N=1, M1=2, N1=2, M2=2, N2=2)
        weights = FunctionalWeights(values={j: 0.5 for j in missing_indices(pattern)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameters, match="lower density must be positive"):
                lf_dvu(pattern, weights, cls)
            with pytest.raises(InvalidParameters, match="lower density must be positive"):
                numerical_lf(pattern, weights, cls)

    @pytest.mark.parametrize("odd", [-0.3, 0.5 + 0.2j], ids=["negative", "complex"])
    def test_weights_without_closed_form_go_numerical(self, odd):
        # lf_d0minus's WeightsNotPositive escaped lf_dvu
        cls = DVU(v=Tabulated(np.full(512, 0.5)), u=Tabulated(np.full(512, 1.2)), p=1.0)
        pattern = ObservationPattern("S6", N=1, M1=2, N1=2, M2=2, N2=2)
        weights = FunctionalWeights(values={j: odd if j == -3 else 0.5
                                            for j in missing_indices(pattern)})
        res = lf_dvu(pattern, weights, cls)
        assert res.mechanism == "numerical"
        assert res.delta0 == numerical_lf(pattern, weights, cls).delta0
        f0 = res.f0.on_grid(res.grid_size)
        assert np.all(f0 >= 0.5 - 1e-9)
        assert np.all(f0 <= 1.2 + 1e-9)

    def test_validate_returns_the_checked_grid_values(self):
        cls = DVU(v=RationalAR(alpha=0.3, sigma2=0.5), u=Tabulated(np.full(64, 20.0)), p=1.0)
        v, u = cls.validate(256)
        assert np.array_equal(v, cls.v.on_grid(256))
        assert np.array_equal(u, cls.u.on_grid(256))

    def test_crossed_bounds(self):
        cls = DVU(v=Tabulated(np.full(512, 2.0)), u=Tabulated(np.full(512, 1.0)),
                  p=1.0)
        with pytest.raises(InvalidParameters):
            lf_dvu(S5_SMALL, W_SMALL, cls)

    @pytest.mark.parametrize("grid", [0, -8])
    def test_nonpositive_grid_refused(self, grid):
        # the FFT and broadcasting code raised ValueError
        cls = DVU(v=Tabulated(np.full(512, 0.1)), u=Tabulated(np.full(512, 10.0)), p=1.0)
        with pytest.raises(InvalidParameters):
            lf_dvu(S5_SMALL, W_SMALL, cls, grid_size=grid)


class TestNumerical:
    def test_d0minus_not_covered(self):
        # the D0Minus supremum is unbounded on the grid; the closed form is lf_d0minus
        with pytest.raises(NotCovered, match="DVU only"):
            numerical_lf(S5_SMALL, W_SMALL, D0Minus(p=1.0))

    def test_dw_not_covered(self):
        # likewise for DW; its closed forms are lf_dW's
        with pytest.raises(NotCovered, match="DVU only"):
            numerical_lf(S5_SMALL, W_SMALL, DW(b_given=np.array([1.25, -0.5, 0.0])))

    def test_dvu_respects_box(self):
        cls = DVU(v=Tabulated(np.full(512, 0.5)), u=Tabulated(np.full(512, 1.2)),
                  p=1.0)
        res = numerical_lf(S5_SMALL, W_SMALL, cls)
        f0 = res.f0.on_grid(res.grid_size)
        assert np.all(f0 >= 0.5 - 1e-9)
        assert np.all(f0 <= 1.2 + 1e-9)
        assert res.lagrange["lower_active"] == np.flatnonzero(f0 <= 0.5 + 1.2e-6).tolist()
        assert res.lagrange["upper_active"] == np.flatnonzero(f0 >= 1.2 - 1.2e-6).tolist()

    @pytest.mark.parametrize("W, grid", [(0, 1), (0, 64), (1, 3), (3, 64), (5, 512), (20, 41)])
    def test_dw_projection_matches_gram_solve(self, W, grid):
        rng = np.random.default_rng(W + grid)
        lam = angular_grid(grid)
        moment_rows = np.stack([np.cos(n * lam) / grid for n in range(W + 1)])
        b_given = np.concatenate(([2.0], 0.3 * rng.normal(size=W)))
        g = 2.0 + rng.normal(size=grid)
        ref = gram_project_dw(g, moment_rows, b_given, 1e-9)
        got = _project_dw(g, moment_rows, b_given, 1e-9)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_sampled_members_stay_in_class(self):
        cls = D0Minus(p=1.0)
        res = lf_d0minus(S5_SMALL, W_SMALL, cls)
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = sample_density(cls, res, rng)
            g = f.inverse_on_grid(res.grid_size)
            assert np.mean(g) >= 1.0 - 1e-10

    @pytest.mark.parametrize("family", ["d0minus", "dw", "dvu"])
    def test_sample_density_refuses_empty_grids(self, family):
        # grid_size=0 drew on the result's own grid, -3 was refused
        _, _, cls, res = saddle_problem("S6", family)
        for grid in (0, -3):
            with pytest.raises(InvalidParameters):
                sample_density(cls, res, np.random.default_rng(0), grid_size=grid)


def gram_project_dw(g, moment_rows, b_given, floor):
    """_project_dw with each moment fit solved against the Gram matrix of the
    rows: the reference for the orthogonal-rows projection."""
    gram = moment_rows @ moment_rows.T
    for _ in range(50):
        g = g - moment_rows.T @ np.linalg.solve(gram, moment_rows @ g - b_given)
        if np.min(g) >= floor:
            break
        g = np.maximum(g, floor)
    return g


def loop_sample_density(cls, result, rng, G):
    """One class member drawn as the per-sample saddle check drew it, with
    every grid invariant recomputed on each draw."""
    lam = angular_grid(G)
    if isinstance(cls, D0Minus):
        base = result.f0.inverse_on_grid(G)
        deg = rng.integers(1, 6)
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        poly = np.zeros(G, dtype=complex)
        for n, cc in enumerate(coeffs):
            poly += cc * np.exp(-1j * n * lam)
        bump = np.abs(poly) ** 2
        bump *= rng.uniform(0.0, 1.0) * np.mean(base) / max(np.mean(bump), 1e-300)
        return Tabulated(1.0 / (base + bump))
    if isinstance(cls, DW):
        moment_rows = np.stack([np.cos(n * lam) / G for n in range(cls.W + 1)])
        g = cls.inverse_poly().evaluate(G).real
        direction = rng.normal(size=G)
        direction = 0.5 * (direction + direction[(-np.arange(G)) % G])
        direction /= max(np.max(np.abs(direction)), 1e-300)
        base_min = float(np.min(g))
        amp = 0.5 * base_min
        while amp > 1e-6 * base_min:
            trial = gram_project_dw(g + amp * direction, moment_rows, cls.b_given, 1e-9)
            if np.min(trial) >= 0.1 * base_min:
                return Tabulated(1.0 / trial)
            amp *= 0.5
        return Tabulated(1.0 / g)
    lo = 1.0 / cls.u.on_grid(G)
    hi = 1.0 / cls.v.on_grid(G)
    g = rng.uniform(lo, hi)

    def gap(s):
        return np.mean(np.clip(g + s, lo, hi)) - cls.p

    # brentq's tightest setting, so that the reference root is exact too
    s = brentq(gap, float(np.min(lo - g)) - 1.0, float(np.max(hi - g)) + 1.0,
               xtol=1e-300, rtol=4 * np.finfo(float).eps)
    return Tabulated(1.0 / np.clip(g + s, lo, hi))


def loop_saddle_check(result, pattern, weights, cls, n_samples, seed):
    """The saddle check one member at a time: loop_sample_density,
    mse_of_characteristic and solve per member, and one grid sum of complex
    exponentials per perturbation of h0. The reference for the batch."""
    rng = np.random.default_rng(seed)
    G = result.grid_size
    tol = 1e-8 * max(result.delta0, 1.0)
    upper = dominance = 0
    worst = -np.inf
    for _ in range(n_samples):
        f = loop_sample_density(cls, result, rng, G)
        excess = mse_of_characteristic(result.h0_grid, pattern, weights, f) - result.delta0
        worst = max(worst, excess)
        upper += int(excess <= tol)
        dominance += int(solve(pattern, weights, f, grid_size=G).delta <= result.delta0 + tol)
    idx = set(missing_indices(pattern))
    reach = max(abs(min(idx)), abs(max(idx))) + 10
    observed = [j for j in range(-reach, reach + 1) if j not in idx]
    lam = angular_grid(G)
    scale = np.sqrt(float(np.sum(np.abs(weight_vector(weights, pattern)) ** 2)))
    lower = 0
    n_pert = min(n_samples, 50)
    for _ in range(n_pert):
        picks = rng.choice(observed, size=min(5, len(observed)), replace=False)
        dh = np.zeros(G, dtype=complex)
        for j in picks:
            dh += (rng.normal() + 1j * rng.normal()) * np.exp(1j * j * lam)
        dh *= 0.1 * scale / max(float(np.sqrt(np.mean(np.abs(dh) ** 2))), 1e-300)  # grid rms
        val = mse_of_characteristic(result.h0_grid + dh, pattern, weights, result.f0)
        lower += int(val >= result.delta0 - 1e-10 * max(result.delta0, 1.0))
    return {
        "n_samples": n_samples, "upper_pass": upper, "dominance_pass": dominance,
        "lower_pass": lower, "n_perturbations": n_pert, "worst_upper_excess": worst,
        "all_pass": upper == n_samples and lower == n_pert,
    }


SADDLE_PATTERNS = {
    "S4": ObservationPattern("S4", N=1, M1=2, N1=2),             # K = {0, 1, -3, -4}
    "S5": ObservationPattern("S5", N=1, M2=2, N2=2),             # K = {0, 1, 4, 5}
    "S6": ObservationPattern("S6", N=1, M1=2, N1=1, M2=2, N2=2),  # K = {0, 1, -3, 4, 5}
}


def saddle_problem(kind, family):
    """(pattern, anchor-dominated weights, class, least-favourable result)."""
    pattern = SADDLE_PATTERNS[kind]
    idx = missing_indices(pattern)
    anchor = anchor_index(pattern)
    weights = FunctionalWeights(values={j: 1.0 if j == anchor else 0.1 + 0.02 * j for j in idx})
    if family == "d0minus":
        cls = D0Minus(p=1.3)
        return pattern, weights, cls, lf_d0minus(pattern, weights, cls)
    if family == "dw":
        span = max(idx) - min(idx)
        cls = DW(b_given=np.array([1.25, -0.5] + [0.0] * (span - 1)))
        return pattern, weights, cls, lf_dW(pattern, weights, cls)
    box = (0.5, 1.2) if kind == "S5" else (0.05, 20.0)  # numerical on S5, closed form else
    cls = DVU(v=Tabulated(np.full(512, box[0])), u=Tabulated(np.full(512, box[1])), p=1.0)
    return pattern, weights, cls, lf_dvu(pattern, weights, cls)


class TestSaddleBatch:
    # raising delta0 by 0.3% makes the pass counts partial, so that a count
    # that differs between batch and loop can show
    @pytest.mark.parametrize("raise_delta0", [1.0, 1.003])
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("kind", ["S4", "S5", "S6"])
    @pytest.mark.parametrize("family", ["d0minus", "dw", "dvu"])
    def test_matches_per_sample_loop(self, family, kind, seed, raise_delta0, monkeypatch):
        pattern, weights, cls, res = saddle_problem(kind, family)
        res = dataclasses.replace(res, delta0=res.delta0 * raise_delta0)
        # 40 members in blocks of 16, 16 and 8
        monkeypatch.setattr(minimax, "SADDLE_BLOCK", 16)
        batch = saddle_check(res, pattern, weights, cls, n_samples=40, seed=seed)
        loop = loop_saddle_check(res, pattern, weights, cls, n_samples=40, seed=seed)
        worst_batch = batch.pop("worst_upper_excess")
        worst_loop = loop.pop("worst_upper_excess")
        assert batch == loop
        assert abs(worst_batch - worst_loop) <= 1e-12 * abs(worst_loop)

    @pytest.mark.parametrize("family", ["d0minus", "dw", "dvu"])
    def test_sample_density_gives_the_batch_members(self, family, monkeypatch):
        pattern, weights, cls, res = saddle_problem("S6", family)
        blocks = []
        check = minimax.check_positive

        def capture(values):
            blocks.append(np.array(values))
            check(values)

        monkeypatch.setattr(minimax, "SADDLE_BLOCK", 4)
        monkeypatch.setattr(minimax, "check_positive", capture)
        saddle_check(res, pattern, weights, cls, n_samples=10, seed=5)
        batch = np.concatenate(blocks)
        assert batch.shape == (10, res.grid_size)
        rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
        for row in batch[:7]:
            tol = 1e-14 * np.max(np.abs(row))
            assert np.max(np.abs(sample_density(cls, res, rng).values - row)) <= tol
            member = loop_sample_density(cls, res, loop_rng, res.grid_size).values
            if family == "dvu":
                # two exact roots agree to ~1e-14 in the shift of g; near
                # g = 1/u the map g -> 1/g magnifies that 400-fold in f
                member, row = 1.0 / member, 1.0 / row
                tol = 1e-14 * np.max(np.abs(row))
            assert np.max(np.abs(member - row)) <= tol

    def test_no_per_sample_calls(self, monkeypatch):
        # no grid pass per perturbation of h0, and no FFT for the coefficients
        # of a D0Minus block, which are known from its draws
        calls = []
        for name in ("solve", "solve_gram", "mse_of_characteristic", "sample_density",
                     "evaluate_trig_poly", "grid_fourier_coefficients"):
            original = getattr(minimax, name, None)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(minimax, name, counted, raising=False)
        for family in ("dvu", "dw", "d0minus"):
            pattern, weights, cls, res = saddle_problem("S5", family)
            calls.clear()
            report = saddle_check(res, pattern, weights, cls, n_samples=20, seed=1)
            assert report["n_samples"] == 20
            # DW and DVU blocks take one FFT each
            assert calls == ([] if family == "d0minus" else ["grid_fourier_coefficients"])

    @pytest.mark.parametrize("raise_delta0", [1.0, 1.003])
    def test_split_stack_matches_per_sample_loop(self, raise_delta0, monkeypatch):
        # n = 60 at G = 512: 32 * 60^2 > SADDLE_BLOCK * G, so each block's
        # Gram systems are solved in chunks of 4
        pattern = ObservationPattern("S6", N=19, M1=1, N1=20, M2=1, N2=20)
        idx = missing_indices(pattern)
        anchor = anchor_index(pattern)
        weights = FunctionalWeights(values={j: 1.0 if j == anchor else 0.01 for j in idx})
        cls = D0Minus(p=1.3)
        res = lf_d0minus(pattern, weights, cls, grid_size=512)
        res = dataclasses.replace(res, delta0=res.delta0 * raise_delta0)
        chunks = []
        cholesky = np.linalg.cholesky

        def counted(matrices):
            chunks.append(matrices.shape)
            return cholesky(matrices)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        batch = saddle_check(res, pattern, weights, cls, n_samples=40, seed=2)
        monkeypatch.undo()
        assert chunks == [(4, 60, 60)] * 10
        loop = loop_saddle_check(res, pattern, weights, cls, n_samples=40, seed=2)
        worst_batch = batch.pop("worst_upper_excess")
        worst_loop = loop.pop("worst_upper_excess")
        assert batch == loop
        assert abs(worst_batch - worst_loop) <= 1e-12 * abs(worst_loop)

    @pytest.mark.parametrize("grid", [*range(4, 13), 4096])
    def test_d0minus_block_coefficients(self, grid):
        pattern, _, cls, res = saddle_problem("S6", "d0minus")
        idx = missing_indices(pattern)
        max_lag = max(idx) - min(idx)
        if grid < 4096:
            # 1/f0 = 1.2 + 0.6 cos(lambda) on grids too coarse for the S6 result;
            # the lags of |P|^2 (up to 5) fold onto -max_lag..max_lag for G <= 10
            b0 = FourierCoeffs(np.array([0.3, 1.2, 0.3]))
            res = dataclasses.replace(res, f0=InversePolynomial(b0), b0=b0, grid_size=grid)
            max_lag = (grid - 1) // 2
        draw = minimax._member_sampler(cls, res, grid, max_lag)
        g, b = draw(np.random.default_rng(grid), 12)
        ref = grid_fourier_coefficients(g, max_lag)
        assert np.max(np.abs(b - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid", [32, 4096])
    def test_perturbation_scores(self, grid):
        # lags up to 20 on 32 points: the differences of lags fold mod G
        pattern, weights, cls, _ = saddle_problem("S6", "d0minus")
        res = lf_d0minus(pattern, weights, cls, grid_size=grid)
        rng = np.random.default_rng(grid)
        lags = np.stack([rng.choice(np.arange(-20, 21), size=5, replace=False) for _ in range(6)])
        coeffs = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        e = poly_on_grid(missing_indices(pattern), weight_vector(weights, pattern), grid) - res.h0_grid
        got = minimax._perturbed_errors(e, res.f0.on_grid(grid), lags, coeffs)
        lam = angular_grid(grid)
        for score, lag_row, c_row in zip(got, lags, coeffs):
            dh = np.exp(1j * np.outer(lam, lag_row)) @ c_row
            ref = mse_of_characteristic(res.h0_grid + dh, pattern, weights, res.f0)
            assert abs(score - ref) <= 1e-12 * ref

    # full reports of saddle_check(n_samples=100, seed=0) as recorded before the
    # members were built from their coefficients: the draws are the same, so the
    # counts must be too. Each problem has its own grid: 4096, and 512 for the
    # numerical DVU S5 result. Tuples are (upper, dominance, lower, worst excess).
    PINNED = {
        ("d0minus", "S4"): (100, 100, 50, -0.003742025958937356),
        ("d0minus", "S5"): (100, 100, 50, -0.00373859299685253),
        ("d0minus", "S6"): (100, 100, 50, -0.003742066899356078),
        ("dw", "S4"): (0, 100, 50, 0.003832518526738715),
        ("dw", "S5"): (0, 100, 50, 0.004634273784443588),
        ("dw", "S6"): (0, 100, 50, 0.004647226616854461),
        ("dvu", "S4"): (0, 0, 50, 13.61149644008335),
        ("dvu", "S5"): (99, 100, 50, 0.0030086050968773925),
        ("dvu", "S6"): (0, 0, 50, 15.009436589740623),
    }

    @pytest.mark.parametrize("family, kind", sorted(PINNED))
    def test_reports_pinned(self, family, kind):
        pattern, weights, cls, res = saddle_problem(kind, family)
        report = saddle_check(res, pattern, weights, cls, n_samples=100, seed=0)
        upper, dominance, lower, worst = self.PINNED[family, kind]
        assert res.grid_size == (512 if (family, kind) == ("dvu", "S5") else 4096)
        assert abs(report.pop("worst_upper_excess") - worst) <= 1e-12 * abs(worst)
        assert report == {"n_samples": 100, "upper_pass": upper, "dominance_pass": dominance,
                          "lower_pass": lower, "n_perturbations": 50,
                          "all_pass": upper == 100 and lower == 50}

    def test_no_samples_refused(self):
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        for n in (0, -3):
            with pytest.raises(InvalidParameters):
                saddle_check(res, S5_SMALL, W_SMALL, D0Minus(p=1.0), n_samples=n)


class TestStackedGramSolve:
    @pytest.mark.parametrize("pattern, grid, chunks", [
        (SADDLE_PATTERNS["S6"], 4096, 1),
        # n = 60: 32 * 60^2 > SADDLE_BLOCK * 512, so chunks of 4 rows
        (ObservationPattern("S6", N=19, M1=1, N1=20, M2=1, N2=20), 512, 8),
    ])
    def test_matches_solve_gram(self, pattern, grid, chunks, monkeypatch):
        idx = missing_indices(pattern)
        span = max(idx) - min(idx)
        rng = np.random.default_rng(6)
        a = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
        b = grid_fourier_coefficients(rng.uniform(0.05, 20.0, size=(32, grid)), span)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(m.shape) or cholesky(m))
        stacked = minimax._gram_errors(idx, a, b, grid)
        monkeypatch.undo()
        assert len(calls) == chunks
        single = [error_value(solve_gram(idx, a, FourierCoeffs(row)), a) for row in b]
        assert np.max(np.abs(stacked - single) / np.abs(single)) <= 1e-13


def breakpoint_roots(g, lo, hi, p):
    """The interval [s1, s2] of shifts s with sum clip(g + s, lo, hi) = p G,
    in exact rational arithmetic: each entry is free between its breakpoints
    lo - g and hi - g, and a sweep over the sorted breakpoints finds the
    pieces that hold p G (s1 < s2 only on a flat piece)."""
    events = sorted([(Fraction(l) - Fraction(x), 1) for l, x in zip(lo, g)]
                    + [(Fraction(h) - Fraction(x), -1) for h, x in zip(hi, g) if np.isfinite(h)])
    target = Fraction(p) * g.size
    value = sum(Fraction(l) for l in lo)  # every entry at lo, left of every breakpoint
    prev, slope, first = events[0][0], 0, None
    for point, change in events + [(None, 0)]:
        if point is None or point > prev:
            if value == target and first is None:
                first = prev
            if slope > 0 and first is not None:
                return first, prev
            if slope > 0 and (point is None or value + slope * (point - prev) > target):
                root = prev + (target - value) / slope
                return root, root
            if point is None:  # flat past every breakpoint: every entry at hi
                return first, math.inf
            value += slope * (point - prev)
            prev = point
        slope += change


@st.composite
def shift_clip_problems(draw):
    size = draw(st.integers(8, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    g = scale * rng.normal(size=size) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    lo = scale * rng.uniform(-1.0, 1.0, size)
    if draw(st.booleans()):  # one floor for every entry, as D0Minus projects
        lo[:] = lo[0]
    hi = lo + scale * rng.exponential(size=size)
    pinned = rng.random(size) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    hi[pinned] = lo[pinned]
    unbounded = draw(st.sampled_from(["none", "some", "all"]))
    if unbounded == "all":
        hi[:] = np.inf
    elif unbounded == "some":
        hi[rng.random(size) < 0.5] = np.inf
    t = draw(st.floats(0.0, 1.0))
    top = float(np.mean(hi)) if np.all(np.isfinite(hi)) else float(np.mean(lo)) + 3 * scale
    p = float(np.mean(lo)) + t * (top - float(np.mean(lo)))
    # mean lo <= p <= mean hi exactly, not only in rounded means
    while Fraction(p) * size < sum(Fraction(l) for l in lo):
        p = np.nextafter(p, np.inf)
    while np.all(np.isfinite(hi)) and Fraction(p) * size > sum(Fraction(h) for h in hi):
        p = np.nextafter(p, -np.inf)
    # with every entry pinned, p G may fall between two floats
    assume(Fraction(p) * size >= sum(Fraction(l) for l in lo))
    return g, lo, hi, float(p)


class TestShiftClip:
    @settings(max_examples=60, deadline=None)
    @given(shift_clip_problems())
    def test_matches_the_breakpoint_root(self, problem):
        g, lo, hi, p = problem
        out = minimax._shift_clip(g, lo, hi, p)
        first, last = (float(v) for v in breakpoint_roots(g, lo, hi, p))
        # out is clip(g + s') for one s' within tol of a root s: clipped
        # entries sit on their bounds and free ones share the shift s'
        assert np.all((lo <= out) & (out <= hi))
        free = (out > lo) & (out < hi)
        shift = out[free] - g[free]
        s = min(max(float(np.median(shift)) if free.any() else first, first), last)
        # on top of 1e-13 relative, s carries the rounding of the G-term sum
        # (pairwise: log2(G) eps sum|x|) and of p G, shared by the k free
        # entries; with k = 1 that alone reaches ~1e-13
        eps = np.finfo(float).eps
        rounding = eps * (np.log2(g.size) * np.sum(np.abs(out)) + abs(p) * g.size)
        tol = 1e-13 * (abs(s) + float(np.max(np.abs(g)))) + rounding / max(shift.size, 1)
        assert np.all(np.abs(shift - s) <= tol)
        assert np.all(np.abs(out - np.clip(g + s, lo, hi)) <= tol)
        # the mean holds p to rounding, plus the rounding of s and g + s that
        # each free entry carries
        finite = np.concatenate([np.abs(lo), np.abs(hi[np.isfinite(hi)]), np.abs(out)])
        shift_rounding = eps * shift.size * (abs(s) + float(np.max(np.abs(g)))) / g.size
        assert abs(np.mean(out) - p) <= 8 * eps * np.max(finite) + shift_rounding
        if np.all(lo == lo[0]):
            assert np.array_equal(minimax._shift_clip(g, float(lo[0]), hi, p), out)
