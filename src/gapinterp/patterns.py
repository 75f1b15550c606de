"""Observation-gap geometries S1..S6 and the weights of the target functional.

A pattern describes which time indices are *missing*: a central block {0..N},
optionally a left block ending at -M1-1, optionally a right block starting at
N+M2+1. Kinds S1-S3 have (one or two) infinite missing tails; a pattern
holds them to a depth T (`with_truncation`), which `solve_truncated` sets,
for every density, to where the cut tail is negligible (T may be left out).

The missing set K is always emitted in the canonical order

    central {0..N}, left {-M1-1, -M1-2, ...}, right {N+M2+1, N+M2+2, ...},

which matches the stacked coefficient-vector layout used by the Gram systems.
The sizes N, M1, M2, N1, N2 and T follow the rule of the weight keys: each is
a number equal to an integer, held as an int (3.0 and np.int64(3) are 3), and
anything else raises InvalidParameters.
Each block is a `range` (step -1 on the left). An explicit map is kept as the
caller gave it, after one `dict()` copy; its values become complex, and are
checked, only where they are gathered. `on_gap_set()` gathers K as `blocks()`
gives it: a map of exactly |K| keys is read with one lookup per index, and
when every lookup hits, its keys are exactly K. Any other map, and `on()` on
any indices, takes the general path: the keys are made ints once, on first
use, the map is checked against K with one set difference and gathered
with one `dict.get` per index. A geometric profile is computed in numpy on K,
read with one np.asarray: `solve` hands it the int array of K that
`interpolate._gap_set` builds, at every size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping

import numpy as np

from .errors import InvalidParameters, SupportMismatch

KINDS = ("S1", "S2", "S3", "S4", "S5", "S6")
_HAS_LEFT = {"S1": True, "S2": False, "S3": True, "S4": True, "S5": False, "S6": True}
_HAS_RIGHT = {"S1": False, "S2": True, "S3": True, "S4": False, "S5": True, "S6": True}
INFINITE_KINDS = ("S1", "S2", "S3")


@dataclass(frozen=True)
class ObservationPattern:
    kind: str
    N: int = 0
    M1: int | None = None
    M2: int | None = None
    N1: int | None = None
    N2: int | None = None
    T: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameters(f"unknown pattern kind {self.kind!r}")
        sizes = (self.N, self.M1, self.M2, self.N1, self.N2, self.T)
        if self.N is None or not {int, type(None)}.issuperset(map(type, sizes)):
            for name, size in zip(("N", "M1", "M2", "N1", "N2", "T"), sizes):
                if size is not None or name == "N":
                    object.__setattr__(self, name, _integer(size, f"pattern size {name}"))
        if self.N < 0:
            raise InvalidParameters("N must be >= 0")
        if self.has_left:
            if self.M1 is None or self.M1 < 1:
                raise InvalidParameters(f"{self.kind} requires M1 >= 1")
        if self.has_right:
            if self.M2 is None or self.M2 < 1:
                raise InvalidParameters(f"{self.kind} requires M2 >= 1")
        if self.is_infinite:
            if self.T is not None and self.T < 1:
                raise InvalidParameters(f"{self.kind} requires a truncation depth T >= 1")
        else:
            # zero-length side blocks are allowed to express degenerate
            # reductions (e.g. S6 with N2=0 collapses to S4)
            if self.kind in ("S4", "S6") and (self.N1 is None or self.N1 < 0):
                raise InvalidParameters(f"{self.kind} requires N1 >= 0")
            if self.kind in ("S5", "S6") and (self.N2 is None or self.N2 < 0):
                raise InvalidParameters(f"{self.kind} requires N2 >= 0")

    @property
    def has_left(self) -> bool:
        return _HAS_LEFT[self.kind]

    @property
    def has_right(self) -> bool:
        return _HAS_RIGHT[self.kind]

    @property
    def is_infinite(self) -> bool:
        return self.kind in INFINITE_KINDS

    def blocks(self) -> tuple[range, range, range]:
        """(central, left, right) index blocks in canonical internal order; S1-S3 need T,
        which is then the depth of each side block, N1 and N2 the depths otherwise."""
        if self.is_infinite and self.T is None:
            raise InvalidParameters(f"{self.kind} has no truncation depth T: cut it with "
                                    f"with_truncation, or solve it with solve_truncated")
        n_left, n_right = (self.T, self.T) if self.is_infinite else (self.N1, self.N2)
        left = range(-self.M1 - 1, -self.M1 - 1 - n_left, -1) if self.has_left else range(0)
        right = (range(self.N + self.M2 + 1, self.N + self.M2 + 1 + n_right)
                 if self.has_right else range(0))
        return range(self.N + 1), left, right

    def with_truncation(self, T: int) -> "ObservationPattern":
        if not self.is_infinite:
            raise InvalidParameters(f"{self.kind} has no truncation depth")
        return ObservationPattern(kind=self.kind, N=self.N, M1=self.M1, M2=self.M2,
                                  N1=self.N1, N2=self.N2, T=T)


def missing_indices(pattern: ObservationPattern) -> list[int]:
    """The missing set K in canonical order: central, then left descending,
    then right ascending."""
    central, left, right = pattern.blocks()
    return [*central, *left, *right]


class FunctionalWeights:
    """Weights a(j) of the target functional, supported on the missing set.

    Either an explicit index->value map, or a geometric profile
    a(j) = C * rho^{|j|} for the infinite kinds.

    Construction keeps one `dict()` copy of the map and refuses, with
    InvalidParameters, an argument `dict()` cannot read (5, "ab"). Neither
    its keys nor its values are looked at there. A key is a number equal to
    an integer (2.0, np.int64(2) and 2+0j mean 2). The keys are made ints
    once, where the general gather, the support check or `reach` first needs
    them, and a key that is not such a number ("x", "2", None, 1.5, NaN) is
    refused with InvalidParameters at that first read. `on_gap_set()` on a
    map whose keys are exactly K needs no int keys and never makes them.
    The values are turned into complex numbers as they are gathered, with
    the values `complex()` would give; a value numpy cannot convert (the
    string "x") or that is not finite (NaN, inf, and None, which numpy reads
    as NaN) raises InvalidParameters there. A geometric (C, rho) that is not
    two numbers with C finite and 0 < rho < 1 is refused at construction.
    """

    def __init__(self, values: Mapping[int, complex] | None = None,
                 geometric: tuple[float, float] | None = None):
        if (values is None) == (geometric is None):
            raise InvalidParameters("provide exactly one of values or geometric")
        self._values = self._geometric = self._ints = None
        if values is not None:
            try:
                self._values = dict(values)
            except (TypeError, ValueError) as exc:
                raise InvalidParameters(f"weights must map indices to values: {exc}") from None
        else:
            try:
                c, rho = map(float, geometric)
            except (TypeError, ValueError) as exc:
                raise InvalidParameters(f"geometric (C, rho) must be two numbers: {exc}") from None
            if not (0 < rho < 1):
                raise InvalidParameters("geometric decay requires 0 < rho < 1")
            if not math.isfinite(c):
                raise InvalidParameters(f"geometric scale C must be finite, got {c}")
            self._geometric = (c, rho)

    @property
    def geometric(self) -> tuple[float, float] | None:
        """(C, rho) of a geometric profile; None for an explicit map."""
        return self._geometric

    def _int_keyed(self) -> dict:
        """The explicit map with int keys, made on first use and kept."""
        if self._ints is None:
            self._ints = _int_keys(self._values)
        return self._ints

    def reach(self, pattern: ObservationPattern) -> int:
        """The smallest depth T at which the side blocks of an infinite
        pattern hold every explicit weight index that lies in them (0 for a
        geometric profile or an empty map)."""
        if not self._values:
            return 0
        values = self._int_keyed()
        reach = 0
        if pattern.has_left:  # index j <= -M1-1 sits at depth -M1 - j
            reach = max(reach, -pattern.M1 - min(values))
        if pattern.has_right:  # index j >= N+M2+1 sits at depth j - N - M2
            reach = max(reach, max(values) - pattern.N - pattern.M2)
        return reach

    def on(self, indices) -> np.ndarray:
        """The weights at the indices of K, an int array, a list or a tuple.
        Explicit weights at indices outside them raise SupportMismatch, and an
        explicit value that is not a finite number raises InvalidParameters. A
        geometric profile reads the indices with one np.asarray."""
        if self._geometric is not None:
            c, rho = self._geometric
            return (c * rho ** np.abs(np.asarray(indices, dtype=float))).astype(complex)
        outside = sorted(self._int_keyed().keys() - indices)
        if outside:
            raise SupportMismatch(f"weights at indices {outside} lie outside the missing set")
        try:
            a = np.fromiter(map(self._int_keyed().get, indices, repeat(0j)), complex,
                            count=len(indices))
        except (TypeError, ValueError) as exc:
            raise InvalidParameters(f"a weight value is not a number: {exc}") from None
        return _finite(a)

    def on_gap_set(self, indices) -> np.ndarray:
        """`on(indices)` for indices that hold each index once, as K from
        `blocks()` does. A map of exactly len(indices) keys is read with one
        lookup per index; when every lookup hits, each hits its own key, so
        the keys are exactly the indices and nothing lies outside them. A
        miss, a value numpy refuses, or a map of another size goes to `on()`,
        which refuses what it refuses, in its order."""
        values = self._values
        if values is not None and len(values) == len(indices):
            try:
                a = np.fromiter(map(values.__getitem__, indices), complex, count=len(indices))
            except (KeyError, TypeError, ValueError):
                pass
            else:
                return _finite(a)
        return self.on(indices)


def _integer(x, name: str) -> int:
    """x as an int, for a number equal to an integer (3.0, np.int64(3) and
    3+0j give 3); anything else ("3", None, NaN, 1.5) raises
    InvalidParameters. Such a number hashes as the integer does, so a weight
    key of this kind is found by the lookups of on_gap_set() too."""
    try:
        j = int(x.real)
    except (AttributeError, TypeError, ValueError, OverflowError):
        j = None
    if j is None or j != x:
        raise InvalidParameters(f"{name} {x!r} is not an integer")
    return j


def _int_keys(values: dict) -> dict:
    """values with each key made an int by _integer."""
    if {int}.issuperset(map(type, values)):
        return values
    return {_integer(key, "weight index"): value for key, value in values.items()}


def _finite(a: np.ndarray) -> np.ndarray:
    """a, refused unless every value is finite (NaN, inf, or a None that numpy
    read as NaN raise InvalidParameters)."""
    if not np.isfinite(a).all():
        raise InvalidParameters(f"weight values must be finite, got {a[~np.isfinite(a)][0]}")
    return a
