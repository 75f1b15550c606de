"""Gap geometries and functional weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapinterp import interpolate
from gapinterp.densities import RationalAR, Tabulated
from gapinterp.errors import InvalidParameters, SupportMismatch
from gapinterp.interpolate import (
    error_value,
    solve,
    solve_gram,
    solve_truncated,
)
from gapinterp.minimax import D0Minus, lf_d0minus
from gapinterp.patterns import (
    FunctionalWeights,
    ObservationPattern,
    missing_indices,
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
            ObservationPattern("S1", N=0, M1=1, T=0)
        with pytest.raises(InvalidParameters):
            ObservationPattern("S9", N=0)
        for kind, params, match in [("S2", {}, "S2 requires M2 >= 1"),
                                    ("S4", {"M1": 1, "N1": -1}, "S4 requires N1 >= 0"),
                                    ("S5", {"M2": 1, "N2": -1}, "S5 requires N2 >= 0")]:
            with pytest.raises(InvalidParameters, match=match):
                ObservationPattern(kind, N=0, **params)
        with pytest.raises(InvalidParameters, match="S4 has no truncation depth"):
            ObservationPattern("S4", N=0, M1=1, N1=1).with_truncation(3)

    @pytest.mark.parametrize("field, value", [
        ("N", 1.5), ("N", "1"), ("N", None), ("N", float("nan")), ("M1", "2"), ("M1", 2.5),
        ("N1", 3.5), ("N1", 3 + 1j), ("N1", [3])])
    def test_sizes_that_are_not_integers_refused(self, field, value):
        # N1=3.5 constructed and solve raised a bare TypeError; N="1" raised
        # one in __post_init__
        sizes = {"N": 1, "M1": 2, "N1": 3, field: value}
        with pytest.raises(InvalidParameters, match=f"pattern size {field} .* is not an integer"):
            ObservationPattern("S4", **sizes)

    def test_depth_that_is_not_an_integer_refused(self):
        # T=2.5 constructed and solve raised a bare TypeError
        with pytest.raises(InvalidParameters, match="pattern size T 2.5 is not an integer"):
            ObservationPattern("S1", N=0, M1=1, T=2.5)
        with pytest.raises(InvalidParameters, match="pattern size T 2.5 is not an integer"):
            ObservationPattern("S1", N=0, M1=1).with_truncation(2.5)

    @pytest.mark.parametrize("value", [3.0, np.int64(3), np.float64(3.0), 3 + 0j])
    def test_integral_sizes_held_as_ints(self, value):
        # N1=3.0 constructed and solve raised a bare TypeError from range()
        p = ObservationPattern("S6", N=value, M1=value, N1=value, M2=value, N2=value)
        ref = ObservationPattern("S6", N=3, M1=3, N1=3, M2=3, N2=3)
        assert p == ref
        assert all(type(getattr(p, name)) is int for name in ("N", "M1", "N1", "M2", "N2"))
        w, f = FunctionalWeights(values={0: 1.0, -4: 0.5}), RationalAR(alpha=np.array([0.5]))
        assert solve(p, w, f).delta == solve(ref, w, f).delta
        cut = ObservationPattern("S1", N=1, M1=2, T=value)
        assert cut == ObservationPattern("S1", N=1, M1=2, T=3) and type(cut.T) is int

    def test_infinite_pattern_without_depth(self):
        # T may be left out where solve_truncated picks the cut; the blocks need it
        p = ObservationPattern("S3", N=1, M1=2, M2=1)
        w, f = FunctionalWeights(geometric=(1.0, 0.6)), RationalAR(alpha=np.array([0.5]))
        for uncut in (missing_indices, lambda q: solve(q, w, f)):
            with pytest.raises(InvalidParameters, match="with_truncation.*solve_truncated"):
                uncut(p)
        got = solve_truncated(p, w, f)
        ref = solve_truncated(ObservationPattern("S3", N=1, M1=2, M2=1, T=1), w, f)
        assert got.indices == ref.indices and got.delta == ref.delta
        assert np.array_equal(got.c, ref.c) and np.array_equal(got.h_grid, ref.h_grid)


class TestWeights:
    def test_vector_all_ones(self):
        p = ObservationPattern("S4", N=1, M1=3, N1=3)
        w = FunctionalWeights(values={j: 1.0 for j in [0, 1, -4, -5, -6]})
        assert np.allclose(w.on_gap_set(missing_indices(p)), np.ones(5))

    def test_vector_dyadic(self):
        p = ObservationPattern("S5", N=0, M2=1, N2=2)
        w = FunctionalWeights(values={0: 1.0, 2: 0.25, 3: 0.125})
        assert np.allclose(w.on_gap_set(missing_indices(p)), [1.0, 0.25, 0.125])

    def test_support_mismatch(self):
        p = ObservationPattern("S5", N=0, M2=1, N2=2)
        w = FunctionalWeights(values={0: 1.0, 1: 1.0})  # index 1 is observed
        with pytest.raises(SupportMismatch):
            w.on_gap_set(missing_indices(p))

    def test_zeros_inside_support_allowed(self):
        p = ObservationPattern("S5", N=0, M2=1, N2=2)
        w = FunctionalWeights(values={0: 1.0, 2: 0.0})
        assert np.allclose(w.on_gap_set(missing_indices(p)), [1.0, 0.0, 0.0])

    def test_geometric_truncated(self):
        p = ObservationPattern("S1", N=0, M1=1, T=50)
        w = FunctionalWeights(geometric=(1.0, 0.5))
        vec = w.on_gap_set(missing_indices(p))
        assert vec.size == 51
        assert abs(vec[0] - 1.0) < 1e-15
        assert abs(vec[1] - 0.5 ** 2) < 1e-15  # index -2

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    def test_geometric_matches_per_index_values(self, kind):
        for T in (25, 800, 6400):
            p = ObservationPattern(kind, N=2, M1=1, M2=3, T=T)
            for rho in (0.3, 0.97):
                w = FunctionalWeights(geometric=(1.7, rho))
                per_index = np.array([complex(1.7 * rho ** abs(j)) for j in missing_indices(p)])
                # one numpy power against Python's: equal to a few ulp
                assert np.allclose(w.on_gap_set(missing_indices(p)), per_index,
                                   rtol=1e-15, atol=0.0)

    def test_bad_rho(self):
        with pytest.raises(InvalidParameters):
            FunctionalWeights(geometric=(1.0, 1.0))

    @pytest.mark.parametrize("geometric", [("x", 0.5), (1.0, "x"), (None, 0.5), (1.0, None),
                                           (1j, 0.5), (1.0,), 2.0])
    def test_geometric_that_is_not_two_numbers_refused(self, geometric):
        # float() raised ValueError or TypeError, outside GapInterpError
        with pytest.raises(InvalidParameters, match="two numbers"):
            FunctionalWeights(geometric=geometric)

    def test_weights_are_not_callable(self):
        # per-index access went with __call__: weights are read through on()
        assert not callable(FunctionalWeights(geometric=(1.0, 0.5)))

    @pytest.mark.parametrize("C", [float("nan"), float("inf")])
    def test_scale_that_is_not_finite_refused(self, C):
        with pytest.raises(InvalidParameters, match="finite"):
            FunctionalWeights(geometric=(C, 0.5))

    def test_exactly_one_spec(self):
        with pytest.raises(InvalidParameters):
            FunctionalWeights()
        with pytest.raises(InvalidParameters):
            FunctionalWeights(values={0: 1.0}, geometric=(1.0, 0.5))

    def test_complex_values(self):
        p = ObservationPattern("S5", N=0, M2=1, N2=1)
        w = FunctionalWeights(values={0: 1 + 2j, 2: [3, 4][0]})
        vec = w.on_gap_set(missing_indices(p))
        assert vec[0] == 1 + 2j

    @pytest.mark.parametrize("values", [5, [1, 2], "ab", [(0, 1, 2)], 1.5])
    def test_values_that_are_not_a_map_refused(self, values):
        # dict() raised TypeError or ValueError, outside GapInterpError
        with pytest.raises(InvalidParameters, match="map indices to values"):
            FunctionalWeights(values=values)

    @pytest.mark.parametrize("key", ["x", None, 1.5, float("inf"), float("nan"), 1j, 2 + 1j,
                                     "2", (2,)])
    def test_keys_that_are_not_integers_refused_at_first_read(self, key):
        # construction keeps the keys as given; every read that needs int keys
        # refuses them, where int() raised or truncated 1.5 to 1
        w = FunctionalWeights(values={0: 1.0, key: 2.0})
        finite = ObservationPattern("S5", N=0, M2=1, N2=1)
        infinite = ObservationPattern("S2", N=0, M2=1)
        k = missing_indices(finite)
        reads = (lambda: w.on_gap_set(missing_indices(finite)), lambda: w.on(k),
                 lambda: w.on(np.array(k)), lambda: w.on(tuple(k)),
                 lambda: w.reach(infinite), lambda: solve(finite, w, RationalAR(alpha=0.5)),
                 lambda: solve_truncated(infinite, w, RationalAR(alpha=0.5)))
        for read in reads:
            with pytest.raises(InvalidParameters, match="is not an integer"):
                read()

    def test_key_that_is_not_integral_no_longer_truncated(self):
        # {1.5: 2.0, 1: 3.0} read as {1: 3.0}; it holds |K| keys, so the
        # one-lookup gather tries it first, misses at 0, and the general path refuses
        p = ObservationPattern("S5", N=1, M2=1, N2=0)
        assert missing_indices(p) == [0, 1]
        w = FunctionalWeights(values={1.5: 2.0, 1: 3.0})
        with pytest.raises(InvalidParameters, match="1.5 is not an integer"):
            w.on_gap_set(missing_indices(p))

    def test_integral_keys_of_other_types_accepted(self):
        p = ObservationPattern("S5", N=1, M2=1, N2=0)
        for values in ({np.float64(1.0): 3.0}, {True: 3.0}, {1 + 0j: 3.0},
                       {np.complex128(0): 0.0, 1.0: 3.0}):
            w = FunctionalWeights(values=values)
            assert w.reach(ObservationPattern("S2", N=0, M2=1)) == 0
            assert np.array_equal(w.on([0, 1]), [0, 3])
            assert np.array_equal(w.on_gap_set(missing_indices(p)), [0, 3])


def per_index_missing(p):
    """K built one index at a time: central, left descending, right ascending."""
    left = [-p.M1 - 1 - i for i in range(p.T if p.is_infinite else p.N1)] if p.has_left else []
    right = ([p.N + p.M2 + 1 + i for i in range(p.T if p.is_infinite else p.N2)]
             if p.has_right else [])
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
                w.on_gap_set(missing_indices(p))
            assert str(got.value) == str(exc)
            with pytest.raises(SupportMismatch) as got:  # K as a list
                w.on(k)
            assert str(got.value) == str(exc)
            with pytest.raises(SupportMismatch) as got:  # K as an int array
                w.on(np.array(k))
            assert str(got.value) == str(exc)
        else:
            assert np.array_equal(w.on(k), expected)
            vec = w.on_gap_set(missing_indices(p))
            assert vec.dtype == complex
            assert np.array_equal(vec, expected)
            assert np.array_equal(w.on(np.array(k)), expected)
            # K in any order, with repeated indices, reads the same weights
            shuffled = np.array(k)[rng.integers(0, len(k), size=2 * len(k))]
            shuffled = np.concatenate((shuffled, k))
            assert np.array_equal(w.on(shuffled), w.on(shuffled.tolist()))

    def test_empty_map(self):
        p = ObservationPattern("S6", N=1, M1=2, N1=3, M2=1, N2=2)
        vec = FunctionalWeights(values={}).on_gap_set(missing_indices(p))
        assert vec.dtype == complex
        assert np.array_equal(vec, np.zeros(len(missing_indices(p))))
        arr = FunctionalWeights(values={}).on(np.array(missing_indices(p)))
        assert arr.dtype == complex and np.array_equal(arr, vec)


class TestArrayGather:
    """on() with K as an int array reads the weights it reads on K as a list."""

    def test_repeated_indices(self):
        w = FunctionalWeights(values={0: 1 + 1j, 3: 2.0, -4: -0.5j})
        k = [3, 0, 3, -4, 0, 0, 7, 3]
        a = w.on(np.array(k))
        assert a.dtype == complex
        assert np.array_equal(a, w.on(k))
        assert np.array_equal(a, [2, 1 + 1j, 2, -0.5j, 1 + 1j, 1 + 1j, 0, 2])

    def test_empty_k(self):
        empty = np.array([], dtype=int)
        for w in (FunctionalWeights(values={}), FunctionalWeights(geometric=(1.0, 0.5))):
            a = w.on(empty)
            assert a.dtype == complex and a.shape == (0,)
        with pytest.raises(SupportMismatch) as got:
            FunctionalWeights(values={2: 1.0, -1: 1.0}).on(empty)
        assert str(got.value) == "weights at indices [-1, 2] lie outside the missing set"

    def test_keys_outside_k(self):
        w = FunctionalWeights(values={9: 1.0, 0: 1.0, -7: 2.0, 4.0: 1.0, np.int64(-2): 3.0})
        k = [0, 1, -3, -4, -5]
        with pytest.raises(SupportMismatch) as listed:
            w.on(k)
        with pytest.raises(SupportMismatch) as arrayed:
            w.on(np.array(k))
        assert str(arrayed.value) == str(listed.value)
        assert str(arrayed.value) == "weights at indices [-7, -2, 4, 9] lie outside the missing set"

    def test_keys_past_int64_outside_a_large_k(self):
        # a key no int64 holds lies outside K, on every form of K, in solve too
        p = ObservationPattern("S4", N=3, M1=2, N1=200)
        k = missing_indices(p)
        assert len(k) >= interpolate.ARRAY_MIN
        w = FunctionalWeights(values={0: 1.0, 10 ** 30: 1.0, -10 ** 30: 2.0})
        message = ("weights at indices [-1000000000000000000000000000000, "
                   "1000000000000000000000000000000] lie outside the missing set")
        for form in (k, tuple(k), np.array(k)):
            with pytest.raises(SupportMismatch) as got:
                w.on(form)
            assert str(got.value) == message
        with pytest.raises(SupportMismatch) as got:
            solve(p, w, RationalAR(alpha=0.5))
        assert str(got.value) == message

    @pytest.mark.parametrize("bad, match", [("x", "malformed string"), ([1.0], "not a number"),
                                            (float("nan"), "finite"), (None, "finite"),
                                            (complex(1.0, float("inf")), "finite")])
    def test_values_refused(self, bad, match):
        w = FunctionalWeights(values={0: 1.0, 2: bad})
        for k in ([0, 1, 2], np.array([0, 1, 2])):
            with pytest.raises(InvalidParameters, match=match):
                w.on(k)


class TestExactCoverGather:
    """As many keys as K is not enough for the one-lookup gather: a map that
    misses an index of K, and public on() on repeated indices, are checked
    against K as before."""

    AR2 = RationalAR(alpha=np.array([0.3, -0.2]), sigma2=1.3)

    def test_size_of_k_with_a_key_outside_and_an_index_missing(self):
        p = ObservationPattern("S6", N=3, M1=2, N1=70, M2=2, N2=70)
        k = per_index_missing(p)
        values = {j: 1.0 + j for j in k if j != -3}
        values[4] = 2.0  # 4 is observed
        assert len(values) == len(k) >= interpolate.ARRAY_MIN
        with pytest.raises(SupportMismatch) as reference:
            per_index_weight_vector(values, p)
        assert str(reference.value) == "weights at indices [4] lie outside the missing set"
        w = FunctionalWeights(values=values)
        bad_value = FunctionalWeights(values={**values, 0: "x"})  # the support check comes first
        reads = (lambda: w.on_gap_set(missing_indices(p)), lambda: w.on_gap_set(tuple(k)),
                 lambda: w.on(k), lambda: solve(p, w, self.AR2),
                 lambda: bad_value.on_gap_set(missing_indices(p)))
        for read in reads:
            with pytest.raises(SupportMismatch) as got:
                read()
            assert str(got.value) == str(reference.value)

    def test_repeated_indices_on_public_on(self):
        # [0, 0] has as many entries as the map has keys, and both lookups
        # hit: on() still checks the support and finds 3 outside
        w = FunctionalWeights(values={0: 1, 3: 2})
        for k in ([0, 0], (0, 0), np.array([0, 0])):
            with pytest.raises(SupportMismatch) as got:
                w.on(k)
            assert str(got.value) == "weights at indices [3] lie outside the missing set"


def reference_half_length(k, degree):
    """The lags of 1/f a solution holds when 1/f has degree p: the span of K,
    from Python's max and min over K, or p if that is larger, whatever the
    grid."""
    return max(max(k) - min(k), degree)


class TestLargeGather:
    """The large-solve path against per-index references, bit for bit."""

    AR2 = RationalAR(alpha=np.array([0.3, -0.2]), sigma2=1.3)

    @pytest.mark.parametrize("key_type", ["int", "numpy", "float"])
    def test_s6_explicit_map(self, key_type):
        rng = np.random.default_rng(17)
        p = ObservationPattern("S6", N=3, M1=5, N1=998, M2=4, N2=998)
        k = per_index_missing(p)
        assert len(k) == 2000
        convert = {"int": int, "numpy": np.int64, "float": float}[key_type]
        order = rng.permutation(len(k))
        values = {convert(k[i]): complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
                  for i in order}
        zero = convert(k[1234])
        values[zero] = 0j
        w = FunctionalWeights(values=values)
        expected = per_index_weight_vector(values, p)
        assert np.array_equal(w.on_gap_set(missing_indices(p)), expected)

        grid = 8192
        sol = solve(p, w, self.AR2, grid_size=grid)
        # the map holds exactly K: one lookup per index, no int keys made
        assert w._ints is None
        b = self.AR2.exact_inverse_coeffs().resized(reference_half_length(k, 2))
        c = solve_gram(k, expected, b)
        assert sol.indices == tuple(k)
        assert sol.b == b
        assert np.array_equal(sol.a, expected)
        assert np.array_equal(sol.c, c)
        assert sol.delta == error_value(c, expected)
        # the general path: public on(), and the map less its zero weight
        assert np.array_equal(w.on(np.array(k)), expected)
        assert w._ints is not None
        less = FunctionalWeights(values={j: v for j, v in values.items() if j != zero})
        general = solve(p, less, self.AR2, grid_size=grid)
        assert np.array_equal(general.a, sol.a) and np.array_equal(general.c, sol.c)
        assert general.delta == sol.delta

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    def test_geometric_at_depth_682(self, kind):
        p = ObservationPattern(kind, N=2, M1=3, M2=1, T=1)
        C, rho = 1.7, 0.97
        f = RationalAR(alpha=0.5)
        sol = solve_truncated(p, FunctionalWeights(geometric=(C, rho)), f)
        depth = sol.convergence["depth"]
        assert depth == 682
        cut = p.with_truncation(depth)
        k = per_index_missing(cut)
        # the expression the gather used before it took K through np.fromiter
        expected = (C * rho ** np.abs(np.array(k, dtype=float))).astype(complex)
        assert np.array_equal(
            FunctionalWeights(geometric=(C, rho)).on_gap_set(missing_indices(cut)), expected)
        assert np.array_equal(FunctionalWeights(geometric=(C, rho)).on(np.array(k)), expected)
        # b holds the span of the cut K, whatever grid the solution then takes
        b = f.exact_inverse_coeffs().resized(reference_half_length(k, 1))
        c = solve_gram(k, expected, b)
        assert sol.indices == tuple(k)
        assert sol.b == b
        assert np.array_equal(sol.a, expected)
        assert np.array_equal(sol.c, c)
        assert sol.delta == error_value(c, expected)

    def test_values_are_converted_where_they_are_gathered(self):
        # construction keeps the values as given; the gather in on() makes
        # them complex, so a string complex() refuses is refused there, with
        # InvalidParameters, by on_gap_set and by solve alike
        p = ObservationPattern("S5", N=0, M2=1, N2=1)
        w = FunctionalWeights(values={0: 1.0, 2: "x"})
        with pytest.raises(InvalidParameters, match="malformed string"):
            w.on_gap_set(missing_indices(p))
        with pytest.raises(InvalidParameters, match="malformed string"):
            w.on(np.array(missing_indices(p)))
        with pytest.raises(InvalidParameters, match="malformed string"):
            solve(p, w, self.AR2)
        with pytest.raises(InvalidParameters, match="not a number"):
            FunctionalWeights(values={0: 1.0, 2: [1.0]}).on_gap_set(missing_indices(p))
        # numpy reads None as NaN: refused with the other values that are not finite
        for bad in (None, float("nan"), float("inf"), complex(1.0, float("nan"))):
            w = FunctionalWeights(values={0: 1.0, 2: bad})
            with pytest.raises(InvalidParameters, match="finite"):
                w.on_gap_set(missing_indices(p))
            with pytest.raises(InvalidParameters, match="finite"):
                w.on(np.array(missing_indices(p)))
        # values complex() accepts give complex() of themselves
        w = FunctionalWeights(values={0: "1+2j", np.int64(2): np.float64(0.5)})
        assert np.array_equal(w.on_gap_set(missing_indices(p)), [1 + 2j, 0.5 + 0j])


def test_nan_weight_refused_before_any_solve():
    # refused where the weights are gathered, before the D0Minus closed form
    # could read it as a density failure and before any Gram solve
    p = ObservationPattern("S4", N=1, M1=2, N1=3)
    w = FunctionalWeights(values={0: 0.1, 1: 1.0, -3: float("nan"), -4: 0.1, -5: 0.1})
    with pytest.raises(InvalidParameters, match="finite"):
        lf_d0minus(p, w, D0Minus(p=1.0))
    with pytest.raises(InvalidParameters, match="finite"):
        solve(p, w, RationalAR(alpha=0.5))


class TestTailFraction:
    def test_zero_scale_converges(self):
        # a = 0 has an empty tail: c = 0 at the first depth, whatever the density
        p = ObservationPattern("S3", N=0, M1=1, M2=1, T=1)
        w = FunctionalWeights(geometric=(0.0, 0.5))
        for f in (RationalAR(alpha=0.5), Tabulated(RationalAR(alpha=0.5).on_grid(4096))):
            sol = solve_truncated(p, w, f)
            assert sol.delta == 0.0 and not np.any(sol.c)
