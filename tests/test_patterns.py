"""Gap geometries and functional weights."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapinterp.densities import RationalAR
from gapinterp.errors import InvalidParameters, SupportMismatch
from gapinterp.interpolate import solve, solve_truncated
from gapinterp.patterns import (
    FunctionalWeights,
    ObservationPattern,
    missing_indices,
    weight_vector,
)


class TestMissingIndices:
    def test_s4_canonical(self):
        p = ObservationPattern("S4", N=1, M1=3, N1=3)
        assert missing_indices(p) == [0, 1, -4, -5, -6]

    def test_s5_canonical(self):
        p = ObservationPattern("S5", N=1, M2=2, N2=3)
        assert missing_indices(p) == [0, 1, 4, 5, 6]

    def test_s6_small(self):
        p = ObservationPattern("S6", N=0, M1=1, N1=1, M2=1, N2=1)
        assert missing_indices(p) == [0, -2, 2]

    def test_s1_truncated(self):
        p = ObservationPattern("S1", N=1, M1=2, T=4)
        assert missing_indices(p) == [0, 1, -3, -4, -5, -6]

    def test_s2_truncated(self):
        p = ObservationPattern("S2", N=0, M2=1, T=3)
        assert missing_indices(p) == [0, 2, 3, 4]

    def test_s3_both_tails(self):
        p = ObservationPattern("S3", N=0, M1=1, M2=1, T=2)
        assert missing_indices(p) == [0, -2, -3, 2, 3]

    def test_sizes_finite(self):
        p = ObservationPattern("S6", N=2, M1=2, N1=3, M2=1, N2=2)
        assert len(missing_indices(p)) == (2 + 1) + 3 + 2

    def test_stable_repeated_calls(self):
        p = ObservationPattern("S6", N=1, M1=2, N1=2, M2=3, N2=1)
        assert missing_indices(p) == missing_indices(p)

    def test_s6_empty_right_equals_s4(self):
        s6 = ObservationPattern("S6", N=1, M1=2, N1=3, M2=1, N2=0)
        s4 = ObservationPattern("S4", N=1, M1=2, N1=3)
        assert missing_indices(s6) == missing_indices(s4)

    def test_s6_empty_left_equals_s5(self):
        s6 = ObservationPattern("S6", N=1, M1=1, N1=0, M2=2, N2=3)
        s5 = ObservationPattern("S5", N=1, M2=2, N2=3)
        assert missing_indices(s6) == missing_indices(s5)

    def test_truncation_appends_per_block(self):
        p = ObservationPattern("S3", N=1, M1=2, M2=1, T=3)
        q = p.with_truncation(6)
        pc, pl, pr = p.blocks()
        qc, ql, qr = q.blocks()
        assert qc == pc
        assert ql[: len(pl)] == pl
        assert qr[: len(pr)] == pr

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            ObservationPattern("S4", N=-1, M1=1, N1=1)
        with pytest.raises(InvalidParameters):
            ObservationPattern("S4", N=0, M1=0, N1=1)
        with pytest.raises(InvalidParameters):
            ObservationPattern("S1", N=0, M1=1)  # missing T
        with pytest.raises(InvalidParameters):
            ObservationPattern("S9", N=0)


class TestWeights:
    def test_vector_all_ones(self):
        p = ObservationPattern("S4", N=1, M1=3, N1=3)
        w = FunctionalWeights(values={j: 1.0 for j in [0, 1, -4, -5, -6]})
        assert np.allclose(weight_vector(w, p), np.ones(5))

    def test_vector_dyadic(self):
        p = ObservationPattern("S5", N=0, M2=1, N2=2)
        w = FunctionalWeights(values={0: 1.0, 2: 0.25, 3: 0.125})
        assert np.allclose(weight_vector(w, p), [1.0, 0.25, 0.125])

    def test_support_mismatch(self):
        p = ObservationPattern("S5", N=0, M2=1, N2=2)
        w = FunctionalWeights(values={0: 1.0, 1: 1.0})  # index 1 is observed
        with pytest.raises(SupportMismatch):
            weight_vector(w, p)

    def test_zeros_inside_support_allowed(self):
        p = ObservationPattern("S5", N=0, M2=1, N2=2)
        w = FunctionalWeights(values={0: 1.0, 2: 0.0})
        assert np.allclose(weight_vector(w, p), [1.0, 0.0, 0.0])

    def test_geometric_truncated(self):
        p = ObservationPattern("S1", N=0, M1=1, T=50)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        vec = weight_vector(w, p)
        assert vec.size == 51
        assert abs(vec[0] - 1.0) < 1e-15
        assert abs(vec[1] - 0.5 ** 2) < 1e-15  # index -2

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    def test_geometric_matches_per_index_values(self, kind):
        for T in (25, 800, 6400):
            p = ObservationPattern(kind, N=2, M1=1, M2=3, T=T)
            for rho in (0.3, 0.97):
                w = FunctionalWeights(geometric=(1.7, rho))
                per_index = np.array([w(j) for j in missing_indices(p)])
                # one numpy power against Python's: equal to a few ulp
                assert np.allclose(weight_vector(w, p), per_index, rtol=1e-15, atol=0.0)

    def test_geometric_tail_fraction_decreases(self):
        w = FunctionalWeights(geometric=(1.0, 0.5))
        shallow = w.tail_fraction(ObservationPattern("S1", N=0, M1=1, T=5))
        deep = w.tail_fraction(ObservationPattern("S1", N=0, M1=1, T=30))
        assert deep < shallow
        assert w.tail_fraction(ObservationPattern("S1", N=0, M1=1, T=200)) < 1e-10

    def test_geometric_tail_matches_series(self):
        w = FunctionalWeights(geometric=(1.0, 0.5))
        p = ObservationPattern("S1", N=0, M1=1, T=5)
        q = 0.25
        first = 1 + 1 + 5  # first dropped index magnitude
        tail = q ** first / (1 - q)
        mass = sum(0.25 ** abs(j) for j in [0, -2, -3, -4, -5, -6])
        assert abs(w.tail_fraction(p) - tail / (mass + tail)) < 1e-12

    def test_bad_rho(self):
        with pytest.raises(InvalidParameters):
            FunctionalWeights(geometric=(1.0, 1.0))

    def test_exactly_one_spec(self):
        with pytest.raises(InvalidParameters):
            FunctionalWeights()
        with pytest.raises(InvalidParameters):
            FunctionalWeights(values={0: 1.0}, geometric=(1.0, 0.5))

    def test_complex_values(self):
        p = ObservationPattern("S5", N=0, M2=1, N2=1)
        w = FunctionalWeights(values={0: 1 + 2j, 2: [3, 4][0]})
        vec = weight_vector(w, p)
        assert vec[0] == 1 + 2j


def per_index_missing(p):
    """K built one index at a time: central, left descending, right ascending."""
    left = [-p.M1 - 1 - i for i in range(p.left_depth())] if p.has_left else []
    right = [p.N + p.M2 + 1 + i for i in range(p.right_depth())] if p.has_right else []
    return list(range(p.N + 1)) + left + right


def per_index_weight_vector(values, p):
    """The weight vector through a per-index dict lookup, with the support
    check on sets."""
    table = {int(k): complex(v) for k, v in values.items()}
    k = per_index_missing(p)
    outside = sorted(set(table) - set(k))
    if outside:
        raise SupportMismatch(f"weights at indices {outside} lie outside the missing set")
    return np.array([table.get(j, 0j) for j in k], dtype=complex)


class TestWeightGather:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["S1", "S2", "S3", "S4", "S5", "S6"]),
        N=st.integers(0, 4), M1=st.integers(1, 6), N1=st.integers(0, 8),
        M2=st.integers(1, 6), N2=st.integers(0, 8), T=st.integers(1, 60),
        key_type=st.sampled_from(["int", "numpy", "float"]),
        share=st.sampled_from([0.0, 0.3, 1.0]), n_outside=st.integers(0, 3),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_per_index_reference(self, kind, N, M1, N1, M2, N2, T, key_type,
                                         share, n_outside, seed):
        rng = np.random.default_rng(seed)
        p = ObservationPattern(kind, N=N, M1=M1, N1=N1, M2=M2, N2=N2, T=T)
        k = missing_indices(p)
        assert k == per_index_missing(p)

        chosen = [j for j in k if rng.uniform() < share]
        observed = [j for j in range(min(k) - 5, max(k) + 6) if j not in set(k)]
        chosen += list(rng.choice(observed, size=min(n_outside, len(observed)), replace=False))
        chosen = [chosen[i] for i in rng.permutation(len(chosen))]  # insertion order
        convert = {"int": int, "numpy": np.int64, "float": float}[key_type]
        values = {convert(j): complex(rng.normal(), rng.normal()) for j in chosen}
        w = FunctionalWeights(values=values)

        try:
            expected = per_index_weight_vector(values, p)
        except SupportMismatch as exc:
            with pytest.raises(SupportMismatch) as got:
                weight_vector(w, p)
            assert str(got.value) == str(exc)
            with pytest.raises(SupportMismatch) as got:
                w.check_support(k)
            assert str(got.value) == str(exc)
        else:
            w.check_support(k)
            vec = weight_vector(w, p)
            assert vec.dtype == complex
            assert np.array_equal(vec, expected)

    def test_empty_map(self):
        p = ObservationPattern("S6", N=1, M1=2, N1=3, M2=1, N2=2)
        vec = weight_vector(FunctionalWeights(values={}), p)
        assert vec.dtype == complex
        assert np.array_equal(vec, np.zeros(len(missing_indices(p))))


class TestTailFraction:
    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    def test_matches_summed_definition(self, kind):
        for rho in (0.3, 0.7, 0.97, 0.999):
            for T in (1, 25, 400, 6400):
                C = -1.7
                p = ObservationPattern(kind, N=2, M1=1, M2=3, T=T)
                w = FunctionalWeights(geometric=(C, rho))
                mass = math.fsum(abs(w(j)) ** 2 for j in missing_indices(p))
                q = rho ** 2
                firsts = [abs(b[-1]) + 1 for b in p.blocks()[1:] if b]
                tail = sum(C ** 2 * q ** first / (1 - q) for first in firsts)
                expected = tail / (mass + tail)
                assert abs(w.tail_fraction(p) - expected) <= 1e-13 * expected

    def test_zero_scale_converges(self):
        # a = 0 has no mass; the fraction is a property of the profile alone
        p = ObservationPattern("S3", N=0, M1=1, M2=1, T=1)
        w = FunctionalWeights(geometric=(0.0, 0.5))
        assert w.tail_fraction(p) == FunctionalWeights(geometric=(2.0, 0.5)).tail_fraction(p)
        sol = solve_truncated(p, w, RationalAR(alpha=0.5))
        assert sol.delta == 0.0


def test_solve_path_makes_no_per_index_calls(monkeypatch):
    calls = []
    original = FunctionalWeights.__call__

    def counting(self, j):
        calls.append(j)
        return original(self, j)

    monkeypatch.setattr(FunctionalWeights, "__call__", counting)
    f = RationalAR(alpha=np.array([0.3, -0.2]))
    p6 = ObservationPattern("S6", N=2, M1=3, N1=40, M2=2, N2=30)
    solve(p6, FunctionalWeights(values={j: 1.0 for j in missing_indices(p6)}), f)
    for kind in ("S1", "S2", "S3"):
        p = ObservationPattern(kind, N=1, M1=2, M2=3, T=1)
        solve_truncated(p, FunctionalWeights(geometric=(1.0, 0.9)), f)
    assert calls == []
