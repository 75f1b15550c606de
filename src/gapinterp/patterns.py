"""Observation-gap geometries S1..S6 and the weights of the target functional.

A pattern describes which time indices are *missing*: a central block {0..N},
optionally a left block ending at -M1-1, optionally a right block starting at
N+M2+1. Kinds S1-S3 have (one or two) infinite missing tails; a pattern
holds them to a depth T (`with_truncation`), which `solve_truncated` sets,
for every density, to where the cut tail is negligible (T may be left out).

The missing set K is always emitted in the canonical order

    central {0..N}, left {-M1-1, -M1-2, ...}, right {N+M2+1, N+M2+2, ...},

which matches the stacked coefficient-vector layout used by the Gram systems.
Each block is a `range` (step -1 on the left). An explicit map is kept as the
caller gave it, after one `dict()` copy: its keys pass through `int()` only
when some key is not an `int`, and its values become complex, and are
checked, only where `on()` gathers them. `on()` checks an explicit map
against K with one set difference and gathers it with one `dict.get` per
index; a geometric profile is computed in numpy on K, read without a
conversion when K is an int array (`solve` on a large K).
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

    def left_depth(self) -> int:
        if not self.has_left:
            return 0
        return self.T if self.is_infinite else self.N1

    def right_depth(self) -> int:
        if not self.has_right:
            return 0
        return self.T if self.is_infinite else self.N2

    def blocks(self) -> tuple[range, range, range]:
        """(central, left, right) index blocks in canonical internal order; S1-S3 need T."""
        if self.is_infinite and self.T is None:
            raise InvalidParameters(f"{self.kind} has no truncation depth T: cut it with "
                                    f"with_truncation, or solve it with solve_truncated")
        left = -self.M1 - 1 if self.has_left else 0
        right = self.N + self.M2 + 1 if self.has_right else 0
        return (range(self.N + 1), range(left, left - self.left_depth(), -1),
                range(right, right + self.right_depth()))

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

    Construction keeps one `dict()` copy of the map. Its keys go through
    `int()` (2.0 and np.int64(2) mean 2) only when some key is not an `int`;
    its values are not converted: `on()` (and so `weight_vector` and `solve`)
    turns them into complex numbers as it gathers them, with the values
    `complex()` would give. A value numpy cannot convert (the string "x") or
    that is not finite (NaN, inf, and None, which numpy reads as NaN) raises
    InvalidParameters there, not here. A geometric (C, rho) that is not two
    numbers with C finite and 0 < rho < 1 is refused at construction.
    """

    def __init__(self, values: Mapping[int, complex] | None = None,
                 geometric: tuple[float, float] | None = None):
        if (values is None) == (geometric is None):
            raise InvalidParameters("provide exactly one of values or geometric")
        self._values = self._geometric = None
        if values is not None:
            values = dict(values)
            if not {int}.issuperset(map(type, values)):
                values = dict(zip(map(int, values), values.values()))
            self._values = values
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

    def reach(self, pattern: ObservationPattern) -> int:
        """The smallest depth T at which the side blocks of an infinite
        pattern hold every explicit weight index that lies in them (0 for a
        geometric profile or an empty map)."""
        if not self._values:
            return 0
        reach = 0
        if pattern.has_left:  # index j <= -M1-1 sits at depth -M1 - j
            reach = max(reach, -pattern.M1 - min(self._values))
        if pattern.has_right:  # index j >= N+M2+1 sits at depth j - N - M2
            reach = max(reach, max(self._values) - pattern.N - pattern.M2)
        return reach

    def check_support(self, indices) -> None:
        """Refuse explicit weights at indices outside the missing set K."""
        if self._values is None:
            return
        outside = sorted(self._values.keys() - indices)
        if outside:
            raise SupportMismatch(f"weights at indices {outside} lie outside the missing set")

    def on(self, indices) -> np.ndarray:
        """The weights at the indices of K, a sequence or an int array, after the
        support check; an explicit value that is not a finite number raises
        InvalidParameters."""
        if self._geometric is not None:
            c, rho = self._geometric
            t = (indices.astype(float) if isinstance(indices, np.ndarray)
                 else np.fromiter(indices, float, len(indices)))
            return (c * rho ** np.abs(t)).astype(complex)
        self.check_support(indices)
        try:
            a = np.fromiter(map(self._values.get, indices, repeat(0j)), complex,
                            count=len(indices))
        except (TypeError, ValueError) as exc:
            raise InvalidParameters(f"a weight value is not a number: {exc}") from None
        if not np.isfinite(a).all():  # NaN, inf, or a None that numpy read as NaN
            raise InvalidParameters(f"weight values must be finite, got {a[~np.isfinite(a)][0]}")
        return a


def weight_vector(weights: FunctionalWeights, pattern: ObservationPattern) -> np.ndarray:
    """Weights stacked in the canonical order of missing_indices(pattern)."""
    return weights.on(missing_indices(pattern))

