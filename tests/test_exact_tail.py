"""Solves of the infinite gap sets S1-S3 for densities whose 1/f has finite
degree, cut once where the cut no longer matters, checked against deep
truncations and the projection oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapinterp import interpolate
from gapinterp.densities import FourierCoeffs, InversePolynomial, RationalAR, Tabulated
from gapinterp.errors import InvalidParameters, SupportMismatch
from gapinterp.interpolate import TRUNCATION_SCHEDULE, solve, solve_truncated
from gapinterp.oracle import build_problem, project
from gapinterp.patterns import FunctionalWeights, ObservationPattern, missing_indices

DEEP = TRUNCATION_SCHEDULE[-1]  # 6400


def cond(f):
    g = f.on_grid(4096)
    return float(g.max() / g.min())


def check_against_deep(pattern, weights, f, rtol=1e-13):
    """Delta within rtol * (max f / min f) of the solve at T = 6400; K, c and a
    held to the reported depth; h within 1e-12 |a| on K."""
    sol = solve_truncated(pattern, weights, f)
    deep = solve(pattern.with_truncation(DEEP), weights, f)
    assert sol.convergence["method"] == "exact_tail"
    assert sol.convergence["converged"] is True
    depth = sol.convergence["depth"]
    assert sol.indices == tuple(missing_indices(pattern.with_truncation(depth)))
    assert sol.c.shape == sol.a.shape == (len(sol.indices),)
    scale = max(abs(deep.delta), 1e-300)
    assert abs(sol.delta - deep.delta) <= rtol * cond(f) * scale
    top = float(np.max(np.abs(sol.a)))
    norm_a = top * float(np.linalg.norm(np.abs(sol.a) / top)) if top > 0 else 0.0  # no underflow
    h = sol.h_coeffs
    assert max(abs(h.get(j, 0.0)) for j in sol.indices) <= 1e-12 * norm_a
    # the cut drops only a tail that moves Delta below rounding: past the
    # depth, the deep c is small against itself and against a (the rule reads
    # the cut solution, whose edge understates c by about 1 - radius^2)
    held = set(sol.indices)
    out = np.array([j not in held for j in deep.indices])
    c_out, a_out = (float(np.max(np.abs(v[out]), initial=0.0) / max(np.max(np.abs(v)), 1e-300))
                    for v in (deep.c, deep.a))
    assert c_out * max(c_out, a_out) <= 1e-13
    return sol


def ar2_with_roots(r1, r2):
    """AR(2) whose polynomial 1 - a1 z - a2 z^2 has the inverse roots r1, r2."""
    return RationalAR(alpha=np.array([r1 + r2, -r1 * r2]))


def positive_inverse_poly(gamma):
    """1/f = |sum gamma_n e^{-in lambda}|^2, Hermitian coefficients."""
    q = gamma.size - 1
    b = np.array([np.sum(gamma[max(0, -m): q + 1 - max(0, m)] *
                         np.conj(gamma[max(0, m): q + 1 + min(0, m)]))
                  for m in range(-q, q + 1)])
    return InversePolynomial(FourierCoeffs(b).symmetrized())


complex_unit = st.tuples(st.floats(0.05, 0.9), st.floats(-np.pi, np.pi)).map(
    lambda rt: rt[0] * np.exp(1j * rt[1]))
# RationalAR takes its roots from the monic companion matrix, so tiny and
# subnormal roots, and products of two that underflow, are accepted; tiny
# roots give a tiny b(p)
real_root = st.floats(-0.9, 0.9)

densities = st.one_of(
    real_root.map(lambda a: RationalAR(alpha=np.array([a]))),
    complex_unit.map(lambda z: RationalAR(alpha=np.array([z]))),
    st.tuples(real_root, real_root).map(lambda r: ar2_with_roots(*r)),
    complex_unit.map(lambda z: ar2_with_roots(z, np.conj(z))),
    st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), min_size=1, max_size=3).map(
        lambda g: positive_inverse_poly(np.array([2.0] + [complex(*z) for z in g]))),
)

patterns = st.builds(
    lambda kind, n, m1, m2: ObservationPattern(kind, N=n, M1=m1, M2=m2, T=1),
    st.sampled_from(["S1", "S2", "S3"]), st.integers(0, 3), st.integers(1, 4), st.integers(1, 4),
)


class TestAgainstDeepTruncation:
    @settings(max_examples=60, deadline=None)
    @given(pattern=patterns, f=densities, rho=st.floats(0.3, 0.99),
           C=st.floats(0.2, 3.0))
    def test_geometric_weights(self, pattern, f, rho, C):
        check_against_deep(pattern, FunctionalWeights(geometric=(C, rho)), f)

    @settings(max_examples=30, deadline=None)
    @given(pattern=patterns, f=densities, data=st.data())
    def test_explicit_weights_reaching_into_the_blocks(self, pattern, f, data):
        # weights on the central block and up to 12 indices into each side
        # block; past them every row of a block is unforced
        central, left, right = pattern.with_truncation(12).blocks()
        pool = [*central, *left, *right]
        chosen = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
        values = {j: complex(data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2)))
                  for j in chosen}
        check_against_deep(pattern, FunctionalWeights(values=values), f)

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.97])
    def test_resonance(self, kind, rho):
        # alpha = rho puts rho on a root of the characteristic polynomial,
        # where a root-based basis divides by zero
        p = ObservationPattern(kind, N=2, M1=2, M2=3, T=1)
        check_against_deep(p, FunctionalWeights(geometric=(1.3, rho)), RationalAR(alpha=rho))

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    @pytest.mark.parametrize("alpha", [(1.0, -0.25), (1.8, -0.81)])
    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.97])
    def test_repeated_roots(self, kind, alpha, rho):
        # double roots 0.5 and 0.9; with rho on them, triple roots
        p = ObservationPattern(kind, N=1, M1=3, M2=2, T=1)
        check_against_deep(p, FunctionalWeights(geometric=(0.7, rho)),
                           RationalAR(alpha=np.array(alpha)))

    def test_white_noise(self):
        # degree 0: c = a / b(0) and the blocks hold no coupling
        f = InversePolynomial(FourierCoeffs(np.array([2.0])))
        p = ObservationPattern("S3", N=1, M1=1, M2=2, T=1)
        sol = check_against_deep(p, FunctionalWeights(geometric=(1.0, 0.6)), f)
        assert np.allclose(sol.c, sol.a / 2.0, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    def test_subnormal_lead(self, kind):
        # b(1) = 2.2e-308 i: dividing by it overflowed the companion matrix
        f = positive_inverse_poly(np.array([2.0, 1.1125369292536007e-308j]))
        p = ObservationPattern(kind, N=0, M1=1, M2=1, T=1)
        check_against_deep(p, FunctionalWeights(geometric=(1.0, 0.5)), f)

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    @pytest.mark.parametrize("alpha", [[5e-324], [0.5, 5e-324], [0.9, -2.2e-310]])
    def test_subnormal_ar_coefficient(self, kind, alpha):
        # np.roots of phi divided by the subnormal lead and overflowed; the
        # monic companion keeps the root near 0
        p = ObservationPattern(kind, N=2, M1=2, M2=3, T=1)
        check_against_deep(p, FunctionalWeights(geometric=(1.0, 0.7)),
                           RationalAR(alpha=np.array(alpha)))

    @pytest.mark.parametrize("sigma2", [1e-90, 1e90])
    def test_scale_of_the_density(self, sigma2):
        # Delta = a^H B^-1 a scales with f; the depth of the cut does not
        alpha = np.array([-0.489 + 0.678j, -0.489 + 0.678j])
        p = ObservationPattern("S1", N=1, M1=1, T=1)
        w = FunctionalWeights(values={0: 1.0, 1: 0.5})
        unit = solve_truncated(p, w, RationalAR(alpha=alpha))
        scaled = solve_truncated(p, w, RationalAR(alpha=alpha, sigma2=sigma2))
        assert abs(scaled.delta / sigma2 - unit.delta) <= 1e-13 * unit.delta

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    def test_zero_scale(self, kind):
        p = ObservationPattern(kind, N=1, M1=2, M2=2, T=1)
        sol = solve_truncated(p, FunctionalWeights(geometric=(0.0, 0.8)),
                              RationalAR(alpha=np.array([0.6, -0.3])))
        assert sol.delta == 0.0
        assert not np.any(sol.c)


class TestAgainstProjection:
    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    @pytest.mark.parametrize("f", [RationalAR(alpha=0.5), RationalAR(alpha=np.array([0.3 + 0.4j])),
                                   ar2_with_roots(0.5, -0.4)], ids=["ar1", "ar1c", "ar2"])
    def test_projection_at_the_depth(self, kind, f):
        p = ObservationPattern(kind, N=1, M1=2, M2=1, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.6))
        sol = solve_truncated(p, w, f)
        proj = project(build_problem(p.with_truncation(sol.convergence["depth"]), w, f,
                                     window=80))
        assert abs(sol.delta - proj["mse"]) <= 1e-8 * proj["mse"]


class TestPathChoice:
    def test_no_truncation_loop(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the exact path solves no truncated problem")

        monkeypatch.setattr(interpolate, "solve", refuse)
        p = ObservationPattern("S3", N=1, M1=2, M2=2, T=1)
        solve_truncated(p, FunctionalWeights(geometric=(1.0, 0.97)), RationalAR(alpha=0.5))

    def test_tabulated_runs_the_doubling_loop(self):
        p = ObservationPattern("S1", N=0, M1=1, T=1)
        sol = solve_truncated(p, FunctionalWeights(geometric=(1.0, 0.5)),
                              Tabulated(RationalAR(alpha=0.4).on_grid(4096)))
        assert sol.convergence["method"] == "doubling"
        assert sol.convergence["depth"] == sol.convergence["schedule"][-1]
        assert sol.convergence["schedule"] == list(TRUNCATION_SCHEDULE[: len(
            sol.convergence["schedule"])])

    def test_looser_rtol_cuts_shallower(self):
        p = ObservationPattern("S3", N=1, M1=2, M2=1, T=1)
        w = FunctionalWeights(geometric=(1.0, 0.97))
        f = RationalAR(alpha=0.5)
        tight, loose = solve_truncated(p, w, f), solve_truncated(p, w, f, rtol=1e-12)
        assert loose.convergence["depth"] < tight.convergence["depth"]
        assert abs(loose.delta - tight.delta) <= 1e-10 * tight.delta

    @pytest.mark.parametrize("rtol", [0.0, -1e-3, 1.0])
    def test_rtol_outside_the_unit_interval_refused(self, rtol):
        p = ObservationPattern("S2", N=1, M2=3, T=1)
        with pytest.raises(InvalidParameters):
            solve_truncated(p, FunctionalWeights(geometric=(1.0, 0.5)), RationalAR(alpha=0.5),
                            rtol=rtol)

    def test_weights_on_observed_indices_refused(self):
        p = ObservationPattern("S2", N=1, M2=3, T=1)  # 2..4 observed
        with pytest.raises(SupportMismatch):
            solve_truncated(p, FunctionalWeights(values={0: 1.0, 3: 1.0}), RationalAR(alpha=0.5))

    def test_weights_deeper_than_the_schedule_refused(self):
        # index 5 + 6400 is 6400 deep into the right block, one more is refused
        p = ObservationPattern("S2", N=1, M2=3, T=1)
        f = RationalAR(alpha=0.5)
        solve_truncated(p, FunctionalWeights(values={0: 1.0, 5 + 6399: 1.0}), f)
        with pytest.raises(InvalidParameters):
            solve_truncated(p, FunctionalWeights(values={0: 1.0, 5 + 6400: 1.0}), f)
