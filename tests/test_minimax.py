"""Least-favourable densities, robust characteristics, saddle certificates."""

import dataclasses
import itertools
import warnings

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
from gapinterp.interpolate import mse_of_characteristic, poly_on_grid, solve
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
)
from gapinterp.oracle import build_problem
from gapinterp.patterns import FunctionalWeights, ObservationPattern, missing_indices

from class_members import loop_sample_density


S5_SMALL = ObservationPattern("S5", N=0, M2=1, N2=1)  # K = {0, 2}
W_SMALL = FunctionalWeights(values={0: 1.0, 2: 0.2})


class TestAnchor:
    def test_by_kind(self):
        assert anchor_index(ObservationPattern("S5", N=1, M2=2, N2=3)) == 0
        assert anchor_index(ObservationPattern("S4", N=1, M1=2, N1=3)) == 1
        assert anchor_index(ObservationPattern("S6", N=1, M1=1, N1=1, M2=2, N2=2)) == 5
        assert anchor_index(ObservationPattern("S2", N=0, M2=1, T=3)) == 0
        # read from the fields: an uncut S1 needs no T, and an S6 whose right
        # block is empty anchors at the end of the central block
        assert anchor_index(ObservationPattern("S1", N=2, M1=1)) == 2
        assert anchor_index(ObservationPattern("S1", N=2, M1=1, T=4)) == 2
        assert anchor_index(ObservationPattern("S6", N=2, M1=1, N1=3, M2=2, N2=0)) == 2
        for T in (None, 3):
            with pytest.raises(NotCovered):
                anchor_index(ObservationPattern("S3", N=0, M1=1, M2=1, T=T))
        # the largest index of K with a left block, the smallest without
        for N, M, D in itertools.product(range(3), (1, 3), range(3)):
            for pattern in (ObservationPattern("S1", N=N, M1=M, T=D + 1),
                            ObservationPattern("S2", N=N, M2=M, T=D + 1),
                            ObservationPattern("S4", N=N, M1=M, N1=D),
                            ObservationPattern("S5", N=N, M2=M, N2=D),
                            ObservationPattern("S6", N=N, M1=M, N1=D, M2=M + 1, N2=D)):
                idx = missing_indices(pattern)
                assert anchor_index(pattern) == (min(idx) if pattern.kind in ("S2", "S5")
                                                 else max(idx))


class TestOneGapSetRead:
    """Each entry point builds K once and hands it to what it calls; `solve`
    builds its own."""

    @pytest.mark.parametrize("entry, reads", [("lf_d0minus", 2), ("lf_dW", 2),
                                              ("numerical_lf", 2), ("build_problem", 1)])
    def test_reads_of_k(self, monkeypatch, entry, reads):
        calls = []
        original = ObservationPattern.blocks

        def counted(self):
            calls.append(self.kind)
            return original(self)

        monkeypatch.setattr(ObservationPattern, "blocks", counted)
        box = DVU(v=Tabulated(np.full(512, 0.5)), u=Tabulated(np.full(512, 1.2)), p=1.0)
        run = {"lf_d0minus": lambda: lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0)),
               "lf_dW": lambda: lf_dW(S5_SMALL, W_SMALL, DW(b_given=np.array([1.25, -0.5, 0.0]))),
               "numerical_lf": lambda: numerical_lf(S5_SMALL, W_SMALL, box),
               "build_problem": lambda: build_problem(S5_SMALL, W_SMALL, RationalAR(alpha=[0.5]), 8)}
        run[entry]()
        assert calls == ["S5"] * reads


class TestD0Minus:
    def test_mean_constraint_exact(self):
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        assert res.solution.b[0] == 1.0  # exact, not approximate

    def test_mean_constraint_off_by_rounding(self):
        # b0(0) = p a(n*) / a(n*) rounds away from p in the last bit here
        p_val, anchor = 0.1, 3.0
        assert p_val * anchor / anchor != p_val
        w = FunctionalWeights(values={0: anchor, 2: 0.6})
        res = lf_d0minus(S5_SMALL, w, D0Minus(p=p_val))
        assert res.mechanism == "closed_form"
        assert abs(res.solution.delta - anchor ** 2 / p_val) < 1e-10 * anchor ** 2 / p_val

    def test_mean_near_the_float_range(self):
        # 1/f0 = 1e308 (1 + 0.4 cos 2 lambda): the sum c(m) + conj c(-m) of its
        # Hermitian part overflowed on the grid, a RuntimeWarning (an error under
        # this suite), and with warnings off PositivityLost for a valid density
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1e308))
        assert res.mechanism == "closed_form"
        assert res.solution.delta == 1e-308

    @pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-20])
    def test_complex_weights_refused_at_any_scale(self, scale):
        # the realness test allowed |Im a| up to 1e-14 max(max|a|, 1): at 1e-20
        # the closed form ran on the real parts, its solve on the complex weights
        # gave delta0 = 1.2525 s^2 against the formula's 1.0 s^2, and the
        # self-check's slack of 1e-8 max(expected, 1) let that through
        pattern = ObservationPattern("S5", N=0, M2=2, N2=1)  # K = {0, 3}
        weights = FunctionalWeights(values={0: scale * (1 + 0.5j), 3: 0.1 * scale})
        with pytest.raises(WeightsNotPositive, match="real weights"):
            lf_d0minus(pattern, weights, D0Minus(p=1.0))
        with pytest.raises(NotCovered, match="real weights"):
            lf_dW(pattern, weights, DW(b_given=np.array([1.25, -0.5, 0.0, 0.0])))

    def test_support_and_symmetry(self):
        p = ObservationPattern("S5", N=1, M2=1, N2=1)  # K = {0, 1, 3}
        w = FunctionalWeights(values={0: 1.0, 1: 0.3, 3: 0.1})
        res = lf_d0minus(p, w, D0Minus(p=2.0))
        b0 = res.solution.b
        nonzero = {m for m in range(-b0.half_length, b0.half_length + 1)
                   if abs(b0[m]) > 0}
        assert nonzero == {0, 1, -1, 3, -3}
        for m in nonzero:
            assert b0[m] == b0[-m]

    def test_error_value_formula(self):
        for p_val in (0.5, 1.0, 3.0):
            res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=p_val))
            assert abs(res.solution.delta - 1.0 / p_val) < 1e-10 / p_val

    def test_coefficients_concentrate_at_anchor(self):
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        c = res.solution.c
        assert abs(c[0] - 1.0) < 1e-10  # a(0)/p at the anchor
        assert abs(c[1]) < 1e-10

    def test_density_scales_inversely_with_p(self):
        r1 = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        r2 = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=2.0))
        f1 = r1.solution.f.on_grid(512)
        f2 = r2.solution.f.on_grid(512)
        assert np.allclose(f2, f1 / 2.0, atol=1e-12)
        assert abs(r2.solution.delta - r1.solution.delta / 2.0) < 1e-10

    def test_characteristic_mse_attains_delta0(self):
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        val = mse_of_characteristic(res.solution.h_grid, S5_SMALL, W_SMALL, res.solution.f)
        assert abs(val - res.solution.delta) < 1e-8 * res.solution.delta

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
        assert res.mechanism == "closed_form"
        assert abs(res.solution.delta - 1.0) < 1e-8  # a(0)^2 / p

    def test_saddle_check_passes(self):
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        report = saddle_check(res, D0Minus(p=1.0))
        assert report["all_pass"]
        assert report["upper_set"] == "sub_family" and report["upper_pass"]
        # the sub-family supremum is Delta(h0; f0) = delta0, attained at f0
        assert abs(report["upper_bound"] - res.solution.delta) <= 1e-12 * res.solution.delta
        assert report["lower_residual"] <= 1e-15

    def test_saddle_check_refuses_an_unknown_class(self):
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        with pytest.raises(InvalidParameters, match="unsupported class object"):
            saddle_check(res, object())

    @pytest.mark.parametrize("make", [
        D0Minus, lambda p: DVU(v=Tabulated(np.full(64, 0.5)), u=Tabulated(np.full(64, 2.0)), p=p),
    ], ids=["d0minus", "dvu"])
    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_nonpositive_p_refused(self, make, p):
        with pytest.raises(InvalidParameters, match="p must be positive"):
            make(p)

    def test_saddle_check_rejects_corrupted_characteristic(self):
        res = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        # no library call builds a result whose h0 is not its solution's:
        # the zero h0 goes into the h_grid cache of a copy of the solution
        sol = dataclasses.replace(res.solution)
        vars(sol)["h_grid"] = np.zeros_like(res.solution.h_grid)
        bad = dataclasses.replace(res, solution=sol)
        report = saddle_check(bad, D0Minus(p=1.0))
        assert not report["all_pass"]
        assert not report["lower_pass"] and report["lower_residual"] > 0.1

    def test_saddle_check_refuses_invalid_closed_form(self):
        # refused before any result reaches saddle_check
        p = ObservationPattern("S4", N=1, M1=2, N1=3)
        w = FunctionalWeights(values={j: 1.0 for j in missing_indices(p)})
        with pytest.raises(PositivityLost, match="not a valid density") as info:
            lf_d0minus(p, w, D0Minus(p=1.0))
        assert info.value.diagnostics["inv_min"] < 0


class TestDW:
    def test_degenerate_constant_error(self):
        cls = DW(b_given=np.array([1.25, -0.5, 0.0]))  # W = 2 >= span = 2
        res = lf_dW(S5_SMALL, W_SMALL, cls)
        assert res.mechanism == "degenerate"
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = loop_sample_density(cls, res, rng, res.solution.grid_size)
            d = solve(S5_SMALL, W_SMALL, f, grid_size=res.solution.grid_size).delta
            assert abs(d - res.solution.delta) < 1e-8 * res.solution.delta

    def test_degenerate_matches_direct_solve(self):
        cls = DW(b_given=np.array([1.25, -0.5, 0.0]))
        res = lf_dW(S5_SMALL, W_SMALL, cls)
        direct = solve(S5_SMALL, W_SMALL, InversePolynomial(cls.inverse_poly()))
        assert abs(res.solution.delta - direct.delta) < 1e-12

    def test_newton_solves_moment_structure(self):
        p = ObservationPattern("S5", N=0, M2=2, N2=1)  # K = {0, 3}
        w = FunctionalWeights(values={0: 1.0, 3: 0.1})
        cls = DW(b_given=np.array([1.25, -0.5]))  # W = 1 < span = 3
        res = lf_dW(p, w, cls)
        assert res.mechanism == "newton"
        assert res.lagrange["newton_residual"] < 1e-10
        # prescribed moments are reproduced exactly by the solved density
        assert abs(res.solution.b[0] - 1.25) < 1e-12
        assert abs(res.solution.b[1] + 0.5) < 1e-12
        # the only free lag is 3; lag 2 is structurally zero
        assert abs(res.solution.b[2]) == 0.0
        assert 3 in res.lagrange["solved_lags"]
        vals = res.solution.f.inverse_on_grid(4096)
        assert np.min(vals) > 0

    def test_newton_point_is_stationary(self):
        # the structured point is stationary within the moment class: the
        # error changes only to second order along feasible even directions
        p = ObservationPattern("S5", N=0, M2=2, N2=1)
        w = FunctionalWeights(values={0: 1.0, 3: 0.1})
        cls = DW(b_given=np.array([1.25, -0.5]))
        res = lf_dW(p, w, cls)
        G = res.solution.grid_size
        lam = angular_grid(G)
        g0 = res.solution.f.inverse_on_grid(G)
        # lag 3 is the only free coefficient lag that enters the system
        direction = np.cos(3 * lam)

        def excess(t):
            f = Tabulated(1.0 / (g0 + t * direction))
            return solve(p, w, f, grid_size=G).delta - res.solution.delta

        e1, e2 = excess(0.02), excess(0.01)
        assert 0 < abs(e1) < 1e-2 * res.solution.delta
        assert abs(e1) / abs(e2) > 2.5  # quadratic, not linear
        # directions at lags outside the system leave the error untouched
        f_other = Tabulated(1.0 / (g0 + 0.02 * np.cos(2 * lam)))
        assert abs(solve(p, w, f_other, grid_size=G).delta - res.solution.delta) < 1e-12

    def test_w0_reduces_to_mean_constrained_form(self):
        p = ObservationPattern("S5", N=1, M2=1, N2=1)  # K = {0, 1, 3}
        w = FunctionalWeights(values={0: 1.0, 1: 0.2, 3: 0.1})
        res_w = lf_dW(p, w, DW(b_given=np.array([2.0])))
        res_p = lf_d0minus(p, w, D0Minus(p=2.0))
        assert abs(res_w.solution.delta - res_p.solution.delta) < 1e-9
        for m in range(4):
            assert abs(res_w.solution.b[m] - res_p.solution.b[m]) < 1e-9

    def test_uncovered_geometry_refused(self):
        p = ObservationPattern("S4", N=1, M1=2, N1=3)  # K = {0,1,-3,-4,-5}
        w = FunctionalWeights(values={j: 1.0 for j in missing_indices(p)})
        with pytest.raises(NotCovered):
            lf_dW(p, w, DW(b_given=np.array([1.25, -0.5, 0.0, 0.0])))  # W = 3
        with pytest.raises(NotCovered, match="real weights only"):
            lf_dW(S5_SMALL, FunctionalWeights(values={0: 1.0, 2: 0.2j}), DW(b_given=[1.0]))

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

    def test_positivity_lost_carries_inv_min(self):
        # the same inputs: 1/f0 dips below zero, and the error says how far
        p = ObservationPattern("S5", N=0, M2=2, N2=1)
        w = FunctionalWeights(values={0: 1.0, 3: 1.0})
        with pytest.raises(PositivityLost, match="structured stationary point") as info:
            lf_dW(p, w, DW(b_given=np.array([1.25, -0.5])))
        assert info.value.diagnostics["inv_min"] < 0

    @pytest.mark.parametrize("b_given", [[np.inf], [2.0, np.inf], [1.0, np.nan]],
                             ids=["inf", "inf_moment", "nan_moment"])
    def test_non_finite_moments_refused_before_evaluation(self, b_given):
        # an infinite moment reached the grid evaluation, whose complex product
        # emitted a RuntimeWarning (an error under this suite) before any refusal
        with pytest.raises(InvalidParameters, match="not all finite"):
            DW(b_given=np.array(b_given))

    def test_moments_past_the_float_range_refused_before_evaluation(self):
        # 1e308 + 1.8e308 cos(lambda) overflowed in the grid evaluation, a
        # RuntimeWarning (an error under this suite) before any refusal
        with pytest.raises(InvalidParameters, match="too large"):
            DW(b_given=np.array([1e308, 9e307]))

    def test_nonpositive_moments_rejected_at_construction(self):
        with pytest.raises(InvalidParameters):
            DW(b_given=np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("b_given", [[1.0, -(1 - 1e-12) / 2], [np.nan], [1.0, np.nan],
                                         [0.5012988350493625, 0.03604074152070618, 0.25]],
                             ids=["dip", "nan", "nan_moment", "off_grid_dip"])
    def test_moments_held_to_the_density_positivity_rule(self, b_given):
        # 1 - (1 - 1e-12) cos(lambda) dips to 1e-12 at lambda = 0, below 1e-9 of
        # its maximum; it, and NaN moments, passed the old test min > 0. The last
        # polynomial falls to -1e-7 between the points of the 4096-point grid,
        # where it was accepted
        with pytest.raises(InvalidParameters, match="not strictly positive"):
            DW(b_given=np.array(b_given))

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
        with pytest.raises(NotCovered, match=r"indices \[-2\] hold only the unknown lags \[\]"):
            lf_dW(q, wq, DW(b_given=np.array([2.0, 0.3, -0.2])))

    def test_hall_violation_refused(self):
        # K = {0, 1, 2, 7, 8, 9, 10}, anchor 10, W = 1: every row and every
        # unknown lag enters some equation, but the rows 7 and 8 sit 2 and 3, 1
        # and 2 from the support {9, 10}, and only lag 2 is unknown among
        # those; this exited 2 with "singular coefficient system"
        p = ObservationPattern("S6", N=2, M1=5, N1=0, M2=4, N2=4)
        w = FunctionalWeights(values={j: 1.0 for j in missing_indices(p)})
        with pytest.raises(NotCovered, match=r"indices \[7, 8\] hold only the unknown lags \[2\]"):
            lf_dW(p, w, DW(b_given=np.array([2.0, 0.3])))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.2, 0.4, 0.7]))
    def test_hall_violation_against_permutations(self, n, seed, density):
        rng = np.random.default_rng(seed)
        links = rng.random((n, n)) < density
        rows, cols = minimax._hall_violation([np.flatnonzero(r) for r in links])
        perfect = any(all(links[u, v] for u, v in enumerate(perm))
                      for perm in itertools.permutations(range(n)))
        assert (rows == []) == perfect
        if rows:
            # the rows reach exactly those columns, one fewer than themselves
            assert cols == np.flatnonzero(links[rows].any(axis=0)).tolist()
            assert len(cols) == len(rows) - 1

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
            assert abs(res.solution.delta - delta0) <= 1e-14 * delta0
            half = len(b0) - 1
            assert res.solution.b.half_length == half
            got = np.array([res.solution.b[m] for m in range(-half, half + 1)])
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
        assert all(res.solution.b[m] == b_given[m] for m in range(W + 1))


@st.composite
def dvu_problems(draw):
    """A small S4-S6 pattern, positive, negative or complex weights, and a
    DVU class with constant (tabulated) or RationalAR bounds, v <= u."""
    kind = draw(st.sampled_from(["S4", "S5", "S6"]))
    dims = {"N": draw(st.integers(0, 2))}
    if kind in ("S4", "S6"):
        dims.update(M1=draw(st.integers(1, 3)), N1=draw(st.integers(0, 2)))
    if kind in ("S5", "S6"):
        dims.update(M2=draw(st.integers(1, 3)), N2=draw(st.integers(0, 2)))
    pattern = ObservationPattern(kind, **dims)
    sign = draw(st.sampled_from([1.0, -1.0, 1j]))
    weights = FunctionalWeights(values={
        j: draw(st.floats(0.1, 2.0)) * (sign if draw(st.booleans()) else 1.0)
        for j in missing_indices(pattern)})
    low = draw(st.floats(0.05, 1.0))
    if draw(st.booleans()):
        v = Tabulated(np.full(16, low))
        u = Tabulated(np.full(16, low * draw(st.floats(1.1, 20.0))))
    else:
        alpha, beta = draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.7, 0.7))
        v = RationalAR(alpha=alpha, sigma2=low * (1 - abs(alpha)) ** 2)  # max v = low
        u = RationalAR(alpha=beta, sigma2=low * draw(st.floats(1.1, 20.0)) * (1 + abs(beta)) ** 2)
    idx = missing_indices(pattern)
    grid = max(512, 4 * (max(idx) - min(idx)))
    top, bottom = (float(np.mean(b.inverse_on_grid(grid))) for b in (v, u))
    p = bottom + draw(st.floats(0.0, 1.0)) * (top - bottom)
    return pattern, weights, DVU(v=v, u=u, p=p)


class TestDVU:
    def test_inactive_bounds_match_mean_constrained_form(self):
        cls = DVU(v=Tabulated(np.full(512, 0.05)), u=Tabulated(np.full(512, 20.0)),
                  p=1.0)
        res = lf_dvu(S5_SMALL, W_SMALL, cls)
        base = lf_d0minus(S5_SMALL, W_SMALL, D0Minus(p=1.0))
        assert res.mechanism == "closed_form"
        assert abs(res.solution.delta - base.solution.delta) < 1e-12
        assert res.lagrange["lower_active"] == []
        assert res.lagrange["upper_active"] == []

    def test_pinned_class(self):
        f = RationalAR(alpha=0.5)
        cls = DVU(v=f, u=f, p=minimality_value(f))
        res = lf_dvu(S5_SMALL, W_SMALL, cls)
        assert res.mechanism == "pinned"
        direct = solve(S5_SMALL, W_SMALL, f)
        assert abs(res.solution.delta - direct.delta) < 1e-10

    def test_active_upper_bound(self):
        cls = DVU(v=Tabulated(np.full(512, 0.5)), u=Tabulated(np.full(512, 1.2)),
                  p=1.0)
        res = lf_dvu(S5_SMALL, W_SMALL, cls)
        assert res.mechanism == "numerical"
        f0 = res.solution.f.on_grid(res.solution.grid_size)
        assert np.all(f0 >= 0.5 - 1e-9)
        assert np.all(f0 <= 1.2 + 1e-9)
        assert abs(np.mean(1.0 / f0) - 1.0) < 1e-9
        assert len(res.lagrange["upper_active"]) > 0
        rng = np.random.default_rng(5)
        for _ in range(40):
            f = loop_sample_density(cls, res, rng, res.solution.grid_size)
            d = solve(S5_SMALL, W_SMALL, f, grid_size=res.solution.grid_size).delta
            assert d <= res.solution.delta * (1 + 1e-6)

    def test_forced_white_noise(self):
        # f <= 1 with mean(1/f) = 1 forces f identically one
        cls = DVU(v=Tabulated(np.full(512, 0.1)), u=Tabulated(np.full(512, 1.0)),
                  p=1.0)
        res = lf_dvu(S5_SMALL, W_SMALL, cls)
        assert abs(res.solution.delta - 1.04) < 1e-8  # sum of squared weights

    def test_infeasible_p(self):
        cls = DVU(v=Tabulated(np.full(512, 0.5)), u=Tabulated(np.full(512, 1.0)),
                  p=10.0)
        with pytest.raises(InfeasibleClass):
            lf_dvu(S5_SMALL, W_SMALL, cls)

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 40])
    def test_infeasible_p_in_any_units(self, scale):
        # p = 1.5 times the largest attainable mean(1/f): the range was widened
        # by 1e-12 absolute, which at bounds of 2^40 let p = 3 2^-40 through to a
        # numerical result
        pattern = ObservationPattern("S6", N=1, M1=2, N1=2, M2=2, N2=2)
        weights = FunctionalWeights(values={j: 0.5 for j in missing_indices(pattern)})
        cls = DVU(v=Tabulated(np.full(512, 0.5 * scale)), u=Tabulated(np.full(512, 1.2 * scale)),
                  p=3.0 / scale)
        with pytest.raises(InfeasibleClass, match="attainable"):
            lf_dvu(pattern, weights, cls)
        # within 1e-12 relative of the range's ends p is accepted
        for end in (1 / 1.2, 2.0):
            for p in (end * (1 - 5e-13), end * (1 + 5e-13)):
                lf_dvu(pattern, weights, dataclasses.replace(cls, p=p / scale))

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
        assert res.solution.delta == numerical_lf(pattern, weights, cls).solution.delta
        f0 = res.solution.f.on_grid(res.solution.grid_size)
        assert np.all(f0 >= 0.5 - 1e-9)
        assert np.all(f0 <= 1.2 + 1e-9)

    def test_two_sided_infinite_goes_numerical(self):
        # lf_d0minus's NotCovered escaped lf_dvu
        pattern = ObservationPattern("S3", N=0, M1=2, M2=2, T=10)
        cls = DVU(v=Tabulated(np.full(512, 0.5)), u=Tabulated(np.full(512, 1.2)), p=1.0)
        res = lf_dvu(pattern, FunctionalWeights(geometric=(1.0, 0.5)), cls)
        assert res.mechanism == "numerical"
        f0 = res.solution.f.on_grid(res.solution.grid_size)
        assert np.all(f0 >= 0.5 * (1 - 1e-12)) and np.all(f0 <= 1.2 * (1 + 1e-12))
        assert abs(np.mean(1.0 / f0) - 1.0) <= 1e-12

    def test_bounds_compared_at_their_nodes(self):
        # the 4096-point interpolant of v rings up to 1.2032 next to the dip,
        # above u, though v <= u at every tabulated node
        v = np.ones(512)
        v[7] = 0.05
        cls = DVU(v=Tabulated(v), u=Tabulated(np.full(512, 1.2)), p=1.0)
        v_grid, u_grid = cls.validate(4096)
        assert np.max(v_grid) > 1.2
        assert np.array_equal(u_grid, np.maximum(cls.u.on_grid(4096), v_grid))
        res = lf_dvu(S5_SMALL, W_SMALL, cls)
        f0 = res.solution.f.on_grid(res.solution.grid_size)
        v_grid, u_grid = cls.validate(res.solution.grid_size)
        assert np.all(f0 >= v_grid * (1 - 1e-12)) and np.all(f0 <= u_grid * (1 + 1e-12))

    def test_bounds_crossing_at_a_node(self):
        v = np.ones(512)
        v[7] = 1.3
        cls = DVU(v=Tabulated(v), u=Tabulated(np.full(512, 1.2)), p=1.0)
        with pytest.raises(InvalidParameters, match="lower density exceeds upper density"):
            lf_dvu(S5_SMALL, W_SMALL, cls)

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
    @pytest.mark.parametrize("scale", [1e150, 1e-170])
    def test_ascent_does_not_depend_on_weight_scale(self, scale):
        # the ascent ran on the caller's weights: at 1e-170 every Gram error
        # underflowed, and it stopped after 3 solves at its white-noise start
        pattern = ObservationPattern("S4", N=1, M1=2, N1=1)
        cls = DVU(v=Tabulated(np.full(64, 0.5)), u=Tabulated(np.full(64, 2.0)), p=1.0)

        def climb(s):
            weights = FunctionalWeights(values={0: s, 1: 0.1 * s, -3: 0.1 * s})
            return numerical_lf(pattern, weights, cls)

        ref, res = climb(1.0), climb(scale)
        assert ref.diagnostics["iterations"] == res.diagnostics["iterations"] == 12
        assert len(ref.lagrange["lower_active"]) == 170
        assert len(ref.lagrange["upper_active"]) == 341
        assert res.lagrange == ref.lagrange
        assert np.array_equal(res.solution.f.values, ref.solution.f.values)
        # the result solves the caller's weights
        assert np.array_equal(res.solution.a, [scale, 0.1 * scale, 0.1 * scale])

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
        f0 = res.solution.f.on_grid(res.solution.grid_size)
        assert np.all(f0 >= 0.5 - 1e-9)
        assert np.all(f0 <= 1.2 + 1e-9)
        assert res.lagrange["lower_active"] == np.flatnonzero(f0 <= 0.5 + 1.2e-6).tolist()
        assert res.lagrange["upper_active"] == np.flatnonzero(f0 >= 1.2 - 1.2e-6).tolist()

    @settings(max_examples=40, deadline=None)
    @given(dvu_problems())
    def test_vertex_ascent(self, problem):
        pattern, weights, cls = problem
        res = numerical_lf(pattern, weights, cls)
        G = res.solution.grid_size
        v, u = cls.validate(G)
        f0 = res.solution.f.on_grid(G)
        assert np.all(f0 >= v * (1 - 1e-12)) and np.all(f0 <= u * (1 + 1e-12))
        assert abs(np.mean(1.0 / f0) - cls.p) <= 1e-12 * cls.p
        # the ascent starts at the member 1/g, g = 1/u + t (1/v - 1/u) with mean p
        lo, hi = 1.0 / u, 1.0 / v
        t = (cls.p - np.mean(lo)) / (np.mean(hi) - np.mean(lo))
        start = solve(pattern, weights, Tabulated(1.0 / (lo + t * (hi - lo))), grid_size=G)
        assert res.solution.delta >= start.delta * (1 - 1e-12)
        report = saddle_check(res, cls)
        assert report["vertex_classical"] <= res.solution.delta * (1 + 1e-9)

    def test_sampled_members_stay_in_class(self):
        cls = D0Minus(p=1.0)
        res = lf_d0minus(S5_SMALL, W_SMALL, cls)
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = loop_sample_density(cls, res, rng, res.solution.grid_size)
            g = f.inverse_on_grid(res.solution.grid_size)
            assert np.mean(g) >= 1.0 - 1e-10

    @pytest.mark.parametrize("family", ["d0minus", "dw", "dvu"])
    def test_sample_density_refuses_empty_grids(self, family):
        # the members the certificates name live on the result's grid, which
        # must hold 4 span(K) points: an empty grid is refused, not drawn on
        pattern, weights, cls, res = saddle_problem("S6", family)
        idx = missing_indices(pattern)
        for grid in (0, -3, 4 * (max(idx) - min(idx)) - 1):
            with pytest.raises(InvalidParameters, match="too coarse"):
                saddle_check(dataclasses.replace(
                    res, solution=dataclasses.replace(res.solution, grid_size=grid)), cls)


def loop_members(result, pattern, weights, cls, n_samples, seed):
    """The sampled counterpart of saddle_check, one member at a time: for
    n_samples members of cls from the test-side sampler, Delta(h0; f) by
    mse_of_characteristic and the classical error by solve; for
    min(n_samples, 50) perturbations dh of h0, each with 5 random
    coefficients at observed lags within max|K| + 10 and grid rms
    0.1 ||a||, Delta(h0 + dh; f0). Returns the three arrays."""
    rng = np.random.default_rng(seed)
    sol = result.solution
    G = sol.grid_size
    upper, classical = [], []
    for _ in range(n_samples):
        f = loop_sample_density(cls, result, rng, G)
        upper.append(mse_of_characteristic(sol.h_grid, pattern, weights, f))
        classical.append(solve(pattern, weights, f, grid_size=G).delta)
    idx = set(missing_indices(pattern))
    reach = max(abs(min(idx)), abs(max(idx))) + 10
    observed = [j for j in range(-reach, reach + 1) if j not in idx]
    lam = angular_grid(G)
    scale = np.sqrt(float(np.sum(np.abs(weights.on_gap_set(missing_indices(pattern))) ** 2)))
    lower = []
    for _ in range(min(n_samples, 50)):
        picks = rng.choice(observed, size=min(5, len(observed)), replace=False)
        dh = np.zeros(G, dtype=complex)
        for j in picks:
            dh += (rng.normal() + 1j * rng.normal()) * np.exp(1j * j * lam)
        dh *= 0.1 * scale / max(float(np.sqrt(np.mean(np.abs(dh) ** 2))), 1e-300)  # grid rms
        lower.append(mse_of_characteristic(sol.h_grid + dh, pattern, weights, sol.f))
    return np.array(upper), np.array(classical), np.array(lower)


def witness_member(result, witness, t):
    """g0 - t cos(m (lambda - lambda*)) on the result's grid, from a report's witness."""
    G = result.solution.grid_size
    lam = angular_grid(G)
    g0 = result.solution.f.inverse_on_grid(G)
    return g0 - t * np.cos(witness["m"] * (lam - witness["lambda"]))


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
    """saddle_check's certificates against the members and perturbations of
    h0 that the test-side sampler draws one at a time (loop_members)."""

    # raising delta0 by 0.3% moves the sampled members across delta0, so that
    # a member above it which the certificate passed would show
    @pytest.mark.parametrize("raise_delta0", [1.0, 1.003])
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("kind", ["S4", "S5", "S6"])
    @pytest.mark.parametrize("family", ["d0minus", "dw", "dvu"])
    def test_matches_per_sample_loop(self, family, kind, seed, raise_delta0):
        pattern, weights, cls, res = saddle_problem(kind, family)
        res = dataclasses.replace(res, solution=dataclasses.replace(
            res.solution, delta=res.solution.delta * raise_delta0))
        report = saddle_check(res, cls)
        upper, classical, lower = loop_members(res, pattern, weights, cls, 40, seed)
        tol = 1e-8 * max(res.solution.delta, 1.0)
        # D0Minus members are drawn from the sub-family, so every sampled
        # member lies in the set that upper_pass covers
        if np.any(upper > res.solution.delta + tol):
            assert not report["upper_pass"]
        bound = report["upper_bound"]
        if bound is not None:
            # no member exceeds the bound of its set, nor does its classical
            # error, which is at most Delta(h0; f)
            assert np.max(upper) <= bound * (1 + 1e-12)
            assert np.max(classical) <= bound * (1 + 1e-12)
        if family == "dvu":
            assert report["minimax_bracket"][0] <= report["minimax_bracket"][1]
            assert report["vertex_error"] <= bound
        else:
            # the witness family reaches twice the largest sampled error
            assert report["class_bounded"] is False
            witness = report["witness"]
            t = witness["t_max"] - witness["growth"] / (2 * np.max(upper))
            assert 0 < t < witness["t_max"]
            f = Tabulated(1.0 / witness_member(res, witness, t))
            reached = mse_of_characteristic(res.solution.h_grid, pattern, weights, f)
            assert reached >= 2 * np.max(upper) * (1 - 1e-12)
        # the lower side: no perturbation of h0 lowers Delta(h0; f0)
        base = mse_of_characteristic(res.solution.h_grid, pattern, weights, res.solution.f)
        assert report["lower_pass"]
        assert np.min(lower) >= base * (1 - 1e-12)

    @pytest.mark.parametrize("t_frac", [0.5, 1 - 1e-3])
    @pytest.mark.parametrize("kind", ["S4", "S5", "S6"])
    @pytest.mark.parametrize("family", ["d0minus", "dw"])
    def test_witness_stays_in_class(self, family, kind, t_frac):
        pattern, weights, cls, res = saddle_problem(kind, family)
        witness = saddle_check(res, cls)["witness"]
        t = t_frac * witness["t_max"]
        g = witness_member(res, witness, t)
        assert np.min(g) > 0
        if family == "d0minus":
            assert witness["m"] == 1
            assert np.mean(g) >= cls.p * (1 - 1e-12)
        else:
            assert witness["m"] == cls.W + 1
            moments = grid_fourier_coefficients(g, cls.W)[cls.W:]
            assert np.max(np.abs(moments - cls.b_given)) <= 1e-12 * np.max(np.abs(cls.b_given))
        # the error under the witness is at least growth / (t_max - t)
        value = mse_of_characteristic(res.solution.h_grid, pattern, weights, Tabulated(1.0 / g))
        assert value >= witness["growth"] / (witness["t_max"] - t) * (1 - 1e-12)
        if t_frac > 0.9:
            assert value > res.solution.delta

    @pytest.mark.parametrize("family", ["d0minus", "dw", "dvu"])
    def test_zeroed_characteristic_fails_lower_side(self, family):
        pattern, weights, cls, res = saddle_problem("S6", family)
        report = saddle_check(res, cls)
        assert report["lower_residual"] <= 1e-10
        # no library call builds a result whose h0 is not its solution's:
        # the zero h0 goes into the h_grid cache of a copy of the solution
        sol = dataclasses.replace(res.solution)
        vars(sol)["h_grid"] = np.zeros_like(res.solution.h_grid)
        bad = dataclasses.replace(res, solution=sol)
        report = saddle_check(bad, cls)
        assert report["lower_residual"] > 1e-3
        assert not report["lower_pass"] and not report["all_pass"]
        # a perturbation of the zero characteristic that the residual points
        # to does lower the error under f0
        lam = angular_grid(res.solution.grid_size)
        e = poly_on_grid(missing_indices(pattern), weights.on_gap_set(missing_indices(pattern)),
                         res.solution.grid_size)
        r = grid_fourier_coefficients(e * res.solution.f.on_grid(res.solution.grid_size), 20)
        lags = np.arange(-20, 21)
        off = ~np.isin(lags, missing_indices(pattern))
        j = lags[off][np.argmax(np.abs(r[off]))]
        step = r[lags == j][0] / np.mean(res.solution.f.on_grid(res.solution.grid_size))
        better = mse_of_characteristic(0.5 * step * np.exp(1j * j * lam), pattern, weights,
                                       res.solution.f)
        assert better < mse_of_characteristic(bad.solution.h_grid, pattern, weights, res.solution.f)

    @pytest.mark.parametrize("raise_delta0", [1.0, 1.003])
    def test_split_stack_matches_per_sample_loop(self, raise_delta0, monkeypatch):
        # n = 60 at G = 512, where the sampled check split its stack of Gram
        # systems into chunks: the D0Minus certificate solves none of them
        pattern = ObservationPattern("S6", N=19, M1=1, N1=20, M2=1, N2=20)
        idx = missing_indices(pattern)
        anchor = anchor_index(pattern)
        weights = FunctionalWeights(values={j: 1.0 if j == anchor else 0.01 for j in idx})
        cls = D0Minus(p=1.3)
        res = lf_d0minus(pattern, weights, cls, grid_size=512)
        res = dataclasses.replace(res, solution=dataclasses.replace(
            res.solution, delta=res.solution.delta * raise_delta0))
        chunks = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: chunks.append(m.shape) or cholesky(m))
        report = saddle_check(res, cls)
        monkeypatch.undo()
        assert chunks == []
        upper, classical, lower = loop_members(res, pattern, weights, cls, 40, 2)
        # the sub-family bound is Delta(h0; f0), attained at f0, so it passes
        # at delta0 and above, and no sampled member of the sub-family exceeds it
        base = mse_of_characteristic(res.solution.h_grid, pattern, weights, res.solution.f)
        assert abs(report["upper_bound"] - base) <= 1e-12 * base
        assert report["upper_pass"] and report["lower_pass"] and report["all_pass"]
        assert np.max(upper) <= report["upper_bound"] * (1 + 1e-12)
        assert np.max(classical) <= report["upper_bound"] * (1 + 1e-12)
        assert np.min(lower) >= base * (1 - 1e-12)

    @pytest.mark.parametrize("grid", [*range(4, 13), 4096])
    def test_d0minus_block_coefficients(self, grid):
        # the D0Minus member the report names, g0 - t cos(lambda - lambda*):
        # its coefficients are b0's with -t e^{-+i lambda*} / 2 added at lags
        # +-1, so its mean is g0's; they match an FFT of its grid values
        if grid < 4096:
            # K = {0, 1}: grids of 4 points up pass the coarseness guard
            pattern = ObservationPattern("S5", N=1, M2=1, N2=0)
            weights = FunctionalWeights(values={0: 1.0, 1: 0.3})
            cls = D0Minus(p=1.3)
            res = lf_d0minus(pattern, weights, cls, grid_size=grid)
            max_lag = (grid - 1) // 2
        else:
            pattern, weights, cls, res = saddle_problem("S6", "d0minus")
            max_lag = res.solution.b.half_length + 2
        witness = saddle_check(res, cls)["witness"]
        assert witness["m"] == 1
        t = 0.5 * witness["t_max"]
        ref = res.solution.b.resized(max_lag).values.copy()
        ref[max_lag + 1] -= 0.5 * t * np.exp(-1j * witness["lambda"])
        ref[max_lag - 1] -= 0.5 * t * np.exp(1j * witness["lambda"])
        got = grid_fourier_coefficients(witness_member(res, witness, t), max_lag)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert got[max_lag].real >= cls.p * (1 - 1e-13)

    def test_pinned_class_passes(self):
        # u = v: the class is one member, so the chord bound is delta0 itself
        f = RationalAR(alpha=0.5)
        cls = DVU(v=f, u=f, p=minimality_value(f))
        res = lf_dvu(S5_SMALL, W_SMALL, cls)
        report = saddle_check(res, cls)
        assert abs(report["upper_bound"] - res.solution.delta) <= 1e-12 * res.solution.delta
        assert report["minimax_bracket"][0] == res.solution.delta
        assert report["all_pass"]

    def test_pinned_table_finer_than_grid_passes(self):
        # bounds tabulated on 8192 points, solved and certified on the default
        # 4096: both read the table by on_grid, so the certificate checks the
        # problem the solve answered
        lam = angular_grid(8192)
        f = Tabulated(1.5 + np.cos(lam))
        cls = DVU(v=f, u=f, p=float(np.mean(1.0 / f.values)))
        res = lf_dvu(S5_SMALL, W_SMALL, cls)
        assert res.mechanism == "pinned"
        assert saddle_check(res, cls)["all_pass"]

    def test_no_per_sample_calls(self, monkeypatch):
        # no solve or grid pass per member; DVU takes one FFT and one Gram
        # solve, for its vertex member's classical error
        calls = []
        for name in ("solve", "solve_gram", "mse_of_characteristic",
                     "evaluate_trig_poly", "grid_fourier_coefficients"):
            original = getattr(minimax, name, None)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(minimax, name, counted, raising=False)
        for family in ("dvu", "dw", "d0minus"):
            pattern, weights, cls, res = saddle_problem("S5", family)
            calls.clear()
            report = saddle_check(res, cls)
            assert report["n_samples"] == 0
            assert calls == (["grid_fourier_coefficients", "solve_gram"] if family == "dvu" else [])

    @pytest.mark.parametrize("scale", [1.0, 1e-170])
    @pytest.mark.parametrize("family", ["dw", "dvu"])
    def test_lower_side_at_any_weight_scale(self, family, scale):
        # the residual is relative to ||a||_2, which np.linalg.norm gave as 0
        # for weights whose squares underflow, near 1e-170 a residual of 5e120
        pattern = ObservationPattern("S4", N=1, M1=2, N1=1)  # K = {0, 1, -3}
        weights = FunctionalWeights(values={0: scale, 1: 0.1 * scale, -3: 0.1 * scale})
        if family == "dw":
            cls = DW(b_given=np.array([1.25, -0.5, 0.0, 0.0, 0.0]))
            res = lf_dW(pattern, weights, cls)
        else:
            cls = DVU(v=Tabulated(np.full(64, 0.5)), u=Tabulated(np.full(64, 2.0)), p=1.0)
            res = lf_dvu(pattern, weights, cls)
        report = saddle_check(res, cls)
        assert report["lower_residual"] <= 1e-10
        assert report["lower_pass"] is True

    @pytest.mark.parametrize("family", ["d0minus", "dw"])
    def test_lower_side_in_any_units_of_f(self, family):
        # r, the Fourier coefficients of e f0, has the units of f; it passed at
        # 1e-10 whatever they were, so the same saddle point given in units
        # 2^40 larger failed its lower side with a residual near 1e-5
        pattern = ObservationPattern("S4", N=1, M1=2, N1=1)  # K = {0, 1, -3}
        weights = FunctionalWeights(values={0: 0.1, 1: 1.0, -3: 0.1})
        residuals = []
        for t in (2.0 ** -40, 1.0, 2.0 ** 40):
            if family == "dw":
                cls = DW(b_given=np.array([1.25, -0.5, 0.0, 0.0, 0.0]) / t)
                res = lf_dW(pattern, weights, cls)
            else:
                cls = D0Minus(p=1.0 / t)
                res = lf_d0minus(pattern, weights, cls)
            report = saddle_check(res, cls)
            assert report["lower_pass"] is True
            residuals.append(report["lower_residual"] / t)
        assert residuals[0] == residuals[1] == residuals[2]

    @pytest.mark.parametrize("scale", [1.0, 1e-5, 1e-170])
    def test_upper_side_at_any_weight_scale(self, scale):
        # the vertex bound lies 0.8% above delta0 at every scale, but the slack
        # was 1e-8 max(delta0, 1), absolute below delta0 = 1: upper_pass held at
        # 1e-5, and at 1e-170, where the squares of the weights underflow and
        # delta0, the bound and the bracket read 0.0, on 0 <= 0
        pattern = ObservationPattern("S6", N=1, M1=2, N1=2, M2=2, N2=2)
        k = missing_indices(pattern)
        a = np.random.default_rng(0).uniform(0.2, 1.0, len(k))
        weights = FunctionalWeights(values=dict(zip(k, scale * a)))
        cls = DVU(v=Tabulated(np.full(512, 0.5)), u=Tabulated(np.full(512, 1.2)), p=1.0)
        res = lf_dvu(pattern, weights, cls)
        report = saddle_check(res, cls)
        assert report["lower_pass"] is True
        assert report["upper_pass"] is False and report["all_pass"] is False
        if scale > 1e-100:  # the report keeps the caller's units
            assert report["upper_bound"] / scale ** 2 == pytest.approx(2.8380096833, rel=1e-9)
            assert res.solution.delta / scale ** 2 == pytest.approx(2.8157739756, rel=1e-9)
        else:
            assert report["upper_bound"] == res.solution.delta == 0.0

    @pytest.mark.parametrize("grid", [32, 4096])
    def test_perturbation_scores(self, grid):
        # lags up to 20 on 32 points: none of the observed ones folds onto K
        pattern, weights, cls, _ = saddle_problem("S6", "d0minus")
        res = lf_d0minus(pattern, weights, cls, grid_size=grid)
        assert saddle_check(res, cls)["lower_residual"] <= 1e-10
        rng = np.random.default_rng(grid)
        observed = np.setdiff1d(np.arange(-20, 21), missing_indices(pattern))
        lags = np.stack([rng.choice(observed, size=5, replace=False) for _ in range(6)])
        coeffs = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        lam = angular_grid(grid)
        f0 = res.solution.f.on_grid(grid)
        base = mse_of_characteristic(res.solution.h_grid, pattern, weights, res.solution.f)
        for lag_row, c_row in zip(lags, coeffs):
            dh = np.exp(1j * np.outer(lam, lag_row)) @ c_row
            score = mse_of_characteristic(res.solution.h_grid + dh, pattern, weights,
                                          res.solution.f)
            # r vanishes off K, so the cross term is gone
            assert abs(score - base - np.mean(np.abs(dh) ** 2 * f0)) <= 1e-12 * score

    # saddle_check's reports as first recorded: (upper_bound, then the DVU
    # vertex error and classical error, or the witness t_max, lambda and growth).
    # Each problem has its own grid: 4096, and 512 for the numerical DVU S5 result.
    PINNED = {
        ("d0minus", "S4"): (0.7692307692307696, 1.0489217895131981, -2.356194490192345,
                            0.000158942325102217),
        ("d0minus", "S5"): (0.7692307692307692, 0.610532449739527, 0.6948932969121953,
                            5.384815784846351e-05),
        ("d0minus", "S6"): (0.7692307692307689, 0.7214752067716445, 2.0586022173425302,
                            7.519624774439876e-05),
        ("dvu", "S4"): (19.860513513660862, 19.857630558801745, 9.628807912601502),
        ("dvu", "S5"): (1.333798892337379, 1.333683507269937, 1.1665433235230347),
        ("dvu", "S6"): (22.035073216811945, 22.033600441797585, 10.417536498116235),
        ("dw", "S4"): (None, 0.25, 0.0, 3.650173611111112e-05),
        ("dw", "S5"): (None, 0.25, 0.0, 6.103515625e-05),
        ("dw", "S6"): (None, 0.25, 0.0, 5.5006944444444446e-05),
    }

    @pytest.mark.parametrize("family, kind", sorted(PINNED))
    def test_reports_pinned(self, family, kind):
        pattern, weights, cls, res = saddle_problem(kind, family)
        report = saddle_check(res, cls)
        assert res.solution.grid_size == (512 if (family, kind) == ("dvu", "S5") else 4096)
        bound, *rest = self.PINNED[family, kind]
        assert report.pop("lower_residual") <= 1e-15
        got = report.pop("upper_bound")
        if bound is None:
            assert got is None
        else:
            assert abs(got - bound) <= 1e-12 * bound
        if family == "dvu":
            vertex_error, vertex_classical = rest
            assert abs(report.pop("vertex_error") - vertex_error) <= 1e-12 * vertex_error
            assert abs(report.pop("vertex_classical") - vertex_classical) <= 1e-12 * vertex_classical
            low, high = report.pop("minimax_bracket")
            assert low == max(res.solution.delta, vertex_classical) and high == got
            assert report == {"n_samples": 0, "lower_pass": True, "upper_set": "class",
                              "class_bounded": True, "upper_pass": False, "all_pass": False}
        else:
            t_max, lam, growth = rest
            witness = report.pop("witness")
            assert witness["m"] == (1 if family == "d0minus" else cls.W + 1)
            assert witness["lambda"] == lam
            assert abs(witness["t_max"] - t_max) <= 1e-12 * t_max
            assert abs(witness["growth"] - growth) <= 1e-12 * growth
            upper = family == "d0minus"
            assert report == {"n_samples": 0, "lower_pass": True,
                              "upper_set": "sub_family" if upper else "class",
                              "class_bounded": False, "upper_pass": upper, "all_pass": upper}


class TestDVUVertex:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
    def test_chord_bound_against_vertex_enumeration(self, G, seed, t):
        rng = np.random.default_rng(seed)
        w = rng.exponential(size=G) * (rng.random(G) < 0.8)
        lo = rng.uniform(0.05, 1.0, G)
        hi = lo + rng.exponential(size=G) * (rng.random(G) < 0.8)
        p = float(np.mean(lo) + t * (np.mean(hi) - np.mean(lo)))
        g, bound = minimax._dvu_vertex(w, lo, hi, p)
        # the vertex: a class member with at most one point off its bounds
        assert np.all((lo <= g) & (g <= hi))
        assert abs(np.mean(g) - p) <= 1e-12 * max(p, 1.0)
        assert np.count_nonzero((g > lo) & (g < hi)) <= 1
        vertex = float(np.mean(w / g))
        # every vertex of {lo <= g <= hi, mean g = p}: all points on a bound
        # but at most one, which takes what the mean leaves
        best = -np.inf
        for free in range(G):
            others = np.delete(np.arange(G), free)
            picks = np.array(list(itertools.product((0, 1), repeat=G - 1)),
                             dtype=bool).reshape(2 ** (G - 1), G - 1)
            rest = np.where(picks, hi[others], lo[others])
            value = p * G - rest.sum(axis=1)
            ok = (value >= lo[free] - 1e-12) & (value <= hi[free] + 1e-12)
            if ok.any():
                scores = (np.sum(w[others] / rest[ok], axis=1)
                          + w[free] / np.clip(value[ok], lo[free], hi[free])) / G
                best = max(best, float(np.max(scores)))
        assert bound * (1 + 1e-12) >= best >= vertex * (1 - 1e-12)
        # the bound exceeds the vertex by the chord's gap at its one free point
        free = (g > lo) & (g < hi)
        gap = np.sum(w[free] / hi[free] + w[free] * (hi[free] - g[free]) / (lo[free] * hi[free])
                     - w[free] / g[free]) / G
        assert abs(bound - vertex - gap) <= 1e-12 * max(bound, 1e-300)



# --- scale equivariance -------------------------------------------------------
#
# Delta(s a; t f) = s^2 t Delta(a; f), and a power of two s = 2^j, t = 2^(2m)
# scales every step of a solve exactly (t's square root too), so each decision
# must be the one taken at s = t = 1 and each error must be its value times s^2 t.


@st.composite
def scalable_problems(draw):
    """A small S4-S6 pattern (N <= 2, side blocks <= 3), weights on K that are
    positive, mixed in sign, or complex with an imaginary part far above
    rounding, a RationalAR, InversePolynomial (perhaps skewed off Hermitian by
    far less or far more than 1e-10 max|b|) or Tabulated density, and the three
    classes, their p sometimes 1.5 times outside DVU's attainable range.
    Returns pattern, weights(s) and problem(t), which maps each entry point's
    name to the entry point and a maker of its input for a density scaled by t."""
    kind = draw(st.sampled_from(["S4", "S5", "S6"]))
    dims = {"N": draw(st.integers(0, 2))}
    if kind in ("S4", "S6"):
        dims.update(M1=draw(st.integers(1, 3)), N1=draw(st.integers(0, 3)))
    if kind in ("S5", "S6"):
        dims.update(M2=draw(st.integers(1, 3)), N2=draw(st.integers(0, 3)))
    pattern = ObservationPattern(kind, **dims)
    idx = missing_indices(pattern)
    anchor = anchor_index(pattern)
    style = draw(st.sampled_from(["positive", "mixed", "complex"]))
    values = {}
    for j in idx:
        x = draw(st.floats(0.1, 2.0)) * (4.0 if j == anchor else 1.0)
        if style == "mixed" and draw(st.booleans()):
            x = -x
        if style == "complex" and draw(st.booleans()):
            x = x * (1 + 0.5j)
        values[j] = x

    density = draw(st.sampled_from(["ar", "inverse_poly", "tabulated"]))
    rho, beta = draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.7, 0.7))
    alpha = [rho, draw(st.floats(-0.2, 0.2))]
    d = np.array([1.0, -rho, draw(st.floats(-0.3, 0.3))])
    b = np.correlate(d, d, "full").astype(complex)
    b[2] += 0.1
    b += draw(st.sampled_from([0.0, 1e-12, 1e-3])) * np.abs(b).max() * np.array(
        [1j, 0.5, 0.0, -0.5, 1j])  # anti-Hermitian
    table = 1.0 / np.abs(1 - rho * np.exp(-1j * angular_grid(256))) ** 2 + 0.2

    def make_f(t):
        if density == "ar":
            return RationalAR(alpha=alpha, sigma2=t)
        if density == "inverse_poly":
            return InversePolynomial(FourierCoeffs(b / t))
        return Tabulated(table * t)

    b_given = np.array([1 + rho ** 2, -rho] + [0.0] * draw(st.integers(0, 3)))
    low, ratio, constant = draw(st.floats(0.05, 1.0)), draw(st.floats(1.1, 20.0)), draw(st.booleans())

    def bounds(t):
        if constant:
            return Tabulated(np.full(16, low * t)), Tabulated(np.full(16, low * ratio * t))
        return (RationalAR(alpha=rho, sigma2=low * (1 - abs(rho)) ** 2 * t),
                RationalAR(alpha=beta, sigma2=low * ratio * (1 + abs(beta)) ** 2 * t))

    top, bottom = (float(np.mean(f.inverse_on_grid(4096))) for f in bounds(1.0))
    share = draw(st.floats(0.0, 1.0))
    if draw(st.integers(0, 3)) == 0:
        share = draw(st.sampled_from([-0.5, 1.5]))
    p_dvu = bottom + share * (top - bottom)
    p_d0 = draw(st.floats(0.2, 5.0))

    def problem(t):
        return {"solve": (solve, lambda: make_f(t)),
                "d0minus": (lf_d0minus, lambda: D0Minus(p=p_d0 / t)),
                "dw": (lf_dW, lambda: DW(b_given=b_given / t)),
                "dvu": (lf_dvu, lambda: DVU(*bounds(t), p=p_dvu / t))}

    def weights(s):
        return FunctionalWeights(values={j: s * x for j, x in values.items()})

    return pattern, weights, problem


def scaled_outcomes(pattern, weights, problem, j, m):
    """Each entry point's decisions, and its errors divided by 2^(2j + 2m), for the
    weights scaled by 2^j and the density by 2^(2m)."""
    s, t = 2.0 ** j, 2.0 ** (2 * m)
    w = weights(s)
    out = {}
    for name, (call, make_input) in problem(t).items():
        try:
            given = make_input()
            res = call(pattern, w, given)
            if name == "solve":
                out[name] = (), {"delta": res.delta}
                continue
            report = saddle_check(res, given)
        except GapInterpError as exc:
            out[name] = type(exc).__name__, {}
            continue
        bracket = report.get("minimax_bracket")
        out[name] = ((res.mechanism, report["lower_pass"], report["upper_pass"],
                      report["all_pass"]),
                     {"delta0": res.solution.delta, "upper_bound": report["upper_bound"],
                      "bracket": None if bracket is None else tuple(bracket)})
    factor = s * s * t
    return {name: (decisions, {key: None if x is None else np.array(x) / factor
                               for key, x in numbers.items()})
            for name, (decisions, numbers) in out.items()}


class TestScaleEquivariance:
    @settings(max_examples=40, deadline=None)
    @given(scalable_problems())
    def test_decisions_and_errors_follow_the_scale(self, case):
        pattern, weights, problem = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = scaled_outcomes(pattern, weights, problem, 0, 0)
            for j, m in itertools.product((-60, 0, 60), (-20, 0, 20)):
                if j == m == 0:
                    continue
                got = scaled_outcomes(pattern, weights, problem, j, m)
                for name, (decisions, numbers) in ref.items():
                    assert got[name][0] == decisions, (name, j, m)
                    for key, x in numbers.items():
                        y = got[name][1][key]
                        assert (x is None) == (y is None), (name, key, j, m)
                        if x is not None:
                            assert np.all(np.abs(y - x) <= 1e-12 * np.abs(x)), (name, key, j, m)
