"""Spectral densities on [-pi, pi], Fourier coefficients of 1/f and covariances.

All integrals carry the 1/(2*pi) normalization. Grid quadrature uses G uniform
points lambda_g = -pi + 2*pi*g/G, which is exact for trigonometric polynomials
of degree < G/2. The densities and coefficient sets are immutable, so each
computes its values on a grid once per grid size and returns them read-only.
The constructors hold their arrays read-only, copying one only when it is the
caller's own writable array. A polynomial 1/f is judged once, on the whole circle,
when it is built (certify_positive), and other densities where their grid values are read.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg.lapack import zgeev

from .errors import InvalidParameters, NonPositiveDensity

DEFAULT_GRID = 4096
POSITIVITY_RTOL = 1e-9
# below this, f = 1/(1/f) is past the largest float
_INVERSE_FLOOR = 1.0 / sys.float_info.max
CERTIFY_MAX_GRID = 1 << 20


def angular_grid(n: int) -> np.ndarray:
    """Uniform grid of n >= 1 points on [-pi, pi)."""
    if n < 1:
        raise InvalidParameters(f"a grid needs at least one point, got {n}")
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def grid_fourier_coefficients(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Quadrature values of (1/2pi) * integral of values(lambda) e^{-im lambda}
    for m = -max_lag .. max_lag, computed by FFT of the values of one function
    on the angular grid of values.size points.

    Real values go through one real FFT, which gives the lags m >= 0; the
    lags m < 0 are their conjugates, so the result is exactly Hermitian,
    b(-m) = conj(b(m)). Complex values go through the full FFT."""
    values = np.asarray(values)
    n = values.size
    if 2 * max_lag >= n:
        raise InvalidParameters(f"grid of {n} points resolves lags < {n // 2}, got {max_lag}")
    # phase factor e^{i m pi} from the grid starting at -pi; only the kept
    # lags are divided by n
    if np.iscomplexobj(values):
        m = np.arange(-max_lag, max_lag + 1)
        return np.where(m % 2 == 0, 1.0, -1.0) * np.fft.fft(values)[m % n] / n
    m = np.arange(max_lag + 1)
    right = np.where(m % 2 == 0, 1.0, -1.0) * np.fft.rfft(values)[: max_lag + 1] / n
    return np.concatenate((np.conj(right[:0:-1]), right))


def evaluate_trig_poly(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Real values of sum_m c(m) e^{im lambda} on the angular grid of n >= 1 points, those
    of its Hermitian part, exact for any degree; coeffs holds c(m), m = -L..L,
    L = (coeffs.size - 1) // 2. When 2L < n, one unscaled real inverse FFT (norm="forward")
    gives them, the phases and scale riding on the short coefficient vector, so the grid is
    written once; a longer polynomial has its lags summed at m mod n (poly_on_grid)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    half = (coeffs.size - 1) // 2
    if 2 * half >= n:
        hermitian = 0.5 * coeffs + 0.5 * np.conj(coeffs[::-1])
        return poly_on_grid(np.arange(-half, half + 1), hermitian, n).real
    # the Hermitian part c(m) / 2 + conj c(-m) / 2 (no overflow), m >= 0, to one irfft
    right = 0.5 * coeffs[half:] + 0.5 * np.conj(coeffs[half::-1])
    right[1::2] *= -1.0
    return np.fft.irfft(right, n, norm="forward")


def poly_on_grid(indices, coeffs, grid_size: int) -> np.ndarray:
    """sum_j coeffs_j e^{ij lambda} over the integer lags j on the angular grid of
    grid_size >= 1 points, exact for any lags: e^{ij lambda_g} = (-1)^j e^{2 pi i j g / G},
    so the signed coefficients are summed at j mod G, colliding lags included, and one
    unscaled inverse FFT gives the values."""
    if grid_size < 1:
        raise InvalidParameters(f"a grid needs at least one point, got {grid_size}")
    idx = np.asarray(indices, dtype=int)
    spread = np.zeros(grid_size, dtype=complex)
    np.add.at(spread, idx % grid_size, np.where(idx % 2 == 0, 1.0, -1.0) * coeffs)
    return np.fft.ifft(spread, norm="forward")


def _per_grid(method):
    """Keep the array method(self, grid_size) returns on the instance, one per grid size,
    and return it read-only on every call; a call that raises keeps nothing, and a grid
    of fewer than one point raises InvalidParameters before method runs."""
    @functools.wraps(method)
    def cached(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        if grid_size < 1:
            raise InvalidParameters(f"a grid needs at least one point, got {grid_size}")
        memo = self.__dict__.setdefault("_grid_values", {})
        key = (method, grid_size)
        values = memo.get(key)
        if values is None:
            values = memo[key] = method(self, grid_size)
            values.setflags(write=False)
        return values
    return cached


def _private(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype. A writable array that np.asarray did not
    make afresh (the caller's own array, or a view of the caller's memory: a slice, an
    ndarray subclass, a buffer) is copied, so that no later edit of it reaches the
    instance; a fresh array, or one already read-only, is kept as it is."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        if arr is values or not arr.flags.owndata:
            arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A fresh array, marked read-only so that a constructor keeps it without a copy."""
    arr.setflags(write=False)
    return arr


def _last_nonzero(values: np.ndarray) -> int:
    """The largest k with values[k] != 0 (0 when there is none)."""
    if values[-1]:  # the usual case, read without a scan
        return values.size - 1
    support = np.flatnonzero(values)
    return int(support[-1]) if support.size else 0


def _fields_equal(self, other) -> bool:
    """Dataclass equality that compares array fields by value; fields with
    compare=False are left out."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True)
class FourierCoeffs:
    """Hermitian-symmetric coefficients b(m), m = -L..L, of a real function."""

    values: np.ndarray  # complex, length 2L+1, entry k holds b(k - L)
    __eq__ = _fields_equal

    def __post_init__(self):
        vals = _private(self.values, complex)
        if vals.ndim != 1 or vals.size % 2 == 0:
            raise InvalidParameters("coefficient array must have odd length (m = -L..L)")
        object.__setattr__(self, "values", vals)

    @classmethod
    def _of_degree(cls, values: np.ndarray, degree: int) -> "FourierCoeffs":
        """cls(values) for a builder that knows its degree, which is then not scanned for."""
        coeffs = cls(values)
        coeffs.__dict__["degree"] = degree
        return coeffs

    @functools.cached_property
    def degree(self) -> int:
        """The largest lag p with b(p) != 0 (0 for none)."""
        return _last_nonzero(self.values[self.half_length:])

    @classmethod
    def from_dict(cls, entries: dict[int, complex]) -> "FourierCoeffs":
        """b(m) = entries[m] at the lags up to the largest |m| given, zero elsewhere."""
        half = max((abs(int(m)) for m in entries), default=0)
        vals = np.zeros(2 * half + 1, dtype=complex)
        for m, v in entries.items():
            vals[int(m) + half] = v
        return cls(_frozen(vals))

    @property
    def half_length(self) -> int:
        return (self.values.size - 1) // 2

    def __getitem__(self, m: int) -> complex:
        if abs(m) > self.half_length:
            return 0.0 + 0.0j
        return complex(self.values[m + self.half_length])

    def resized(self, half_length: int) -> "FourierCoeffs":
        """b at the lags -half_length..half_length: cut, or padded with zeros."""
        extra = half_length - self.half_length
        if extra < 0:
            return FourierCoeffs(self.values[-extra: extra])
        if extra == 0:
            return self
        zeros = np.zeros(extra, dtype=complex)
        return FourierCoeffs._of_degree(_frozen(np.concatenate((zeros, self.values, zeros))),
                                        self.degree)

    @_per_grid
    def evaluate(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        """Real values of sum b(m) e^{im lambda} on the grid, those of its Hermitian part,
        exact on any grid: a lag past it is summed at m mod grid_size."""
        return evaluate_trig_poly(self.values, grid_size)


class SpectralDensity:
    """Base class; subclasses provide values of f and 1/f on the angular grid."""

    def on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        raise NotImplementedError

    @_per_grid
    def inverse_on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        f = self.on_grid(grid_size)
        check_positive(f)
        return 1.0 / f


@dataclass(frozen=True)
class RationalAR(SpectralDensity):
    """f(lambda) = sigma2 / |phi(e^{-i lambda})|^2, on the grid from one FFT of the coefficients
    of phi(z) = 1 - sum alpha_k z^k (poly_on_grid); refused when a root r = 1/w of phi lies
    within 1e-8 of the unit circle, w the eigenvalues of the monic companion of z^p - alpha_1
    z^(p-1) - ... - alpha_p (one ?geev). A root of multiplicity m is computed only to about
    eps^(1/m), so phi is also tested at r/|r| = conj(w)/|w|."""

    alpha: np.ndarray
    sigma2: float = 1.0
    _eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)  # w: S1-S3 decay
    __eq__ = _fields_equal

    def __post_init__(self):
        alpha = np.atleast_1d(_private(self.alpha, complex))
        object.__setattr__(self, "alpha", alpha)
        if not 0 < self.sigma2 < math.inf:  # refuses nan
            raise InvalidParameters(f"sigma2 must be positive and finite, got {self.sigma2}")
        if alpha.ndim != 1:
            raise InvalidParameters(f"alpha must be one-dimensional, got shape {alpha.shape}")
        coeffs = alpha.tolist()  # the scalar tests below run on Python numbers
        if not all(map(cmath.isfinite, coeffs)):
            raise InvalidParameters("AR polynomial roots cannot be computed: "
                                    "Array must not contain infs or NaNs")
        # 1/f = |phi|^2 / sigma2 <= (1 + sum |alpha_k|)^2 / sigma2 must stay a finite
        # float (a subnormal sigma2 overflows it); compared in logs, which cannot overflow
        # (math.hypot gives inf where abs of a complex would raise)
        bound = 1.0 + sum(math.hypot(a.real, a.imag) for a in coeffs)
        if 2.0 * math.log(bound) - math.log(self.sigma2) >= math.log(sys.float_info.max):
            raise InvalidParameters(f"sigma2 = {self.sigma2} is too small for 1/f to be "
                                    f"a finite float")
        companion = np.eye(max(alpha.size, 1), k=-1, dtype=complex)  # [[0]] for white noise
        companion[0, :alpha.size] = alpha
        w, _, _, info = zgeev(companion, compute_vl=0, compute_vr=0)
        if info:  # where np.roots raised LinAlgError
            raise InvalidParameters("AR polynomial roots cannot be computed: no convergence")
        object.__setattr__(self, "_eigenvalues", w)
        for z in w.tolist():
            size = abs(z)
            z = z.conjugate() / (size or 1.0)  # r/|r|; w = 0 (alpha_p = 0) passes both tests
            phi = 1.0 - sum(a * z ** k for k, a in enumerate(coeffs, 1))
            if abs(1.0 - size) < 1e-8 * size or abs(phi) < 1e-8:
                raise InvalidParameters("AR polynomial has a (near-)root on the unit circle")

    def _phi_squared(self, grid_size: int) -> np.ndarray:  # |phi| = |sum conj(d_k) e^{ik lambda}|
        conj_d = np.concatenate(([1.0], -np.conj(self.alpha)))
        return np.abs(poly_on_grid(np.arange(conj_d.size), conj_d, grid_size)) ** 2

    @property
    def order(self) -> int:
        return self.alpha.size

    @_per_grid
    def on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        return self.sigma2 / self._phi_squared(grid_size)

    @_per_grid
    def inverse_on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        return self._phi_squared(grid_size) / self.sigma2

    def exact_inverse_coeffs(self, half_length: int = 0) -> FourierCoeffs:
        """Finite expansion of 1/f: b(m) = (1/sigma2) sum_j d_j conj(d_{j+m})
        with d = (1, -alpha_1, ..., -alpha_p), one convolution, held at the lags
        up to max(half_length, p) and zero past p."""
        p = self.alpha.size
        half = max(half_length, p)
        d = np.concatenate(([1.0 + 0j], -self.alpha))
        b = np.convolve(np.conj(d), d[::-1]) / self.sigma2
        vals = np.zeros(2 * half + 1, dtype=complex)
        vals[half - p: half + p + 1] = b
        return FourierCoeffs._of_degree(_frozen(vals), _last_nonzero(b[p:]))


@dataclass(frozen=True)
class InversePolynomial(SpectralDensity):
    """1/f(lambda) = sum_m b(m) e^{im lambda} with finite Hermitian b. A b with max |b(m) -
    conj b(-m)| <= 1e-10 max |b|, in whatever units, is held as its Hermitian part, b(m) -
    (b(m) - conj b(-m)) / 2 at m >= 0 mirrored to -m, so that 1/f is real on every grid; a
    Hermitian b is kept.
    The held b is then judged on the whole circle, with no grid (certify_positive)."""

    inv_coeffs: FourierCoeffs
    __eq__ = _fields_equal

    def __post_init__(self):
        b = self.inv_coeffs.values
        skew = b - b[::-1].conj()
        dev = abs(skew).max()
        if not dev <= 1e-10 * abs(b).max():  # NaN fails
            raise InvalidParameters("inverse-polynomial coefficients must be Hermitian")
        if dev:
            right = b[b.size // 2:] - 0.5 * skew[b.size // 2:]
            object.__setattr__(self, "inv_coeffs", FourierCoeffs(
                _frozen(np.concatenate((np.conj(right[:0:-1]), right)))))
        certify_positive(self.inv_coeffs)

    def inverse_on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        return self.inv_coeffs.evaluate(grid_size)  # which keeps one array per grid size

    @_per_grid
    def on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        return 1.0 / self.inverse_on_grid(grid_size)


@dataclass(frozen=True)
class Tabulated(SpectralDensity):
    """Finite nonnegative values on a uniform grid over [-pi, pi); resampled
    to other grid sizes by trigonometric interpolation."""

    values: np.ndarray
    __eq__ = _fields_equal

    def __post_init__(self):
        vals = _private(self.values, float)
        if vals.ndim != 1 or vals.size < 4:
            raise InvalidParameters("tabulated density needs at least 4 grid values")
        if not (vals.min() >= 0 and vals.max() < np.inf):  # NaN fails both
            raise InvalidParameters("tabulated density needs finite nonnegative values")
        object.__setattr__(self, "values", vals)

    @_per_grid
    def on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        n = self.values.size
        if grid_size == n:
            return self.values
        half = min((n - 1) // 2, (grid_size - 1) // 2)
        coeffs = grid_fourier_coefficients(self.values, half)
        if n % 2 == 0 and grid_size > n:
            # the Nyquist term b(n/2) cos(n lambda / 2), half at each of +-n/2, which
            # grid_fourier_coefficients does not give: without it the nodes are not reproduced
            top = (-1) ** (n // 2) * np.fft.rfft(self.values)[n // 2].real / (2 * n)
            coeffs = np.concatenate(([top], coeffs, [top]))
        return evaluate_trig_poly(coeffs, grid_size)


def check_positive(values: np.ndarray) -> None:
    """Raise NonPositiveDensity unless the grid values of one density are strictly
    positive relative to their maximum, min > POSITIVITY_RTOL max; NaN fails."""
    top, low = values.max(), values.min()
    if not (top > 0 and low > POSITIVITY_RTOL * top):
        raise NonPositiveDensity(
            f"density not strictly positive on grid (min {low:.3e}, max {top:.3e})"
        )


def certify_positive(b: FourierCoeffs) -> None:
    """Decide min P > POSITIVITY_RTOL max P on the whole circle, for P = sum b(m) e^{im lambda}
    with Hermitian b of degree p, scaled by 1 / max |b|. P lies within h |P'_g| + h^2 S (h = pi/G,
    S = sum_{m>0} m^2 |b(m)|) of its value at the nearest of the G points 2 pi g / G (for even G,
    the angular grid), found with P' by one real FFT. From the least power of two >= 4 (p + 1),
    G grows 4-fold until the grid values break the rule or these bounds meet it, and past
    CERTIFY_MAX_GRID P is refused undecided. A refusal's diagnostics are inv_lower_bound, inv_min,
    inv_max and grid_size. A certified minimum below 1 / max float raises InvalidParameters."""
    right = b.values[b.half_length: b.half_length + b.degree + 1]
    scale = float(np.abs(right).max()) or 1.0  # b = 0 is refused below as P = 0
    m = np.arange(right.size)
    unit = right.real / scale + 1j * (right.imag / scale)  # by parts: complex/subnormal overflows
    rows = np.array((unit, 1j * m * unit))
    curvature = float(m * m @ np.abs(unit))
    G = 1 << (4 * right.size - 1).bit_length()
    while True:
        values, slope = np.fft.irfft(rows, G, norm="forward")
        reach = np.pi / G * np.abs(slope) + (np.pi / G) ** 2 * curvature
        lower, upper = float((values - reach).min()), float((values + reach).max())
        if lower > POSITIVITY_RTOL * upper:
            break
        low, top = float(values.min()), float(values.max())
        refuted = not (top > 0 and low > POSITIVITY_RTOL * top)
        if refuted or 4 * G > CERTIFY_MAX_GRID:
            bracket = {"inv_lower_bound": lower * scale, "inv_min": low * scale,
                       "inv_max": top * scale, "grid_size": G}
            raise NonPositiveDensity(f"density not {'' if refuted else 'certified '}strictly "
                                     f"positive on the circle: {bracket}", diagnostics=bracket)
        G *= 4
    if lower < _INVERSE_FLOOR / scale:
        raise InvalidParameters(f"1/f is certified only above {lower * scale:.3e}, too small "
                                f"for f = 1/(1/f) to be a finite float")


def inverse_fourier_coeffs(
    f: SpectralDensity,
    half_length: int,
    grid_size: int = DEFAULT_GRID,
) -> FourierCoeffs:
    """Fourier coefficients b(m) = (1/2pi) int e^{-im lambda} / f dlambda.

    RationalAR and InversePolynomial inputs give their exact finite expansion
    of degree p, padded with zeros to max(half_length, p) and never cut, and
    read no grid: an InversePolynomial was judged on the whole circle when it
    was built. Tabulated inputs give the FFT quadrature at the lags up to
    half_length and need grid_size >= 4 * half_length.
    """
    if isinstance(f, RationalAR):
        return f.exact_inverse_coeffs(half_length)
    if isinstance(f, InversePolynomial):
        return f.inv_coeffs.resized(max(half_length, f.inv_coeffs.half_length))
    if grid_size < 4 * half_length:
        raise InvalidParameters("grid_size must be at least 4 * half_length")
    return FourierCoeffs(_frozen(grid_fourier_coefficients(f.inverse_on_grid(grid_size),
                                                           half_length)))


def minimality_value(f: SpectralDensity, grid_size: int = DEFAULT_GRID) -> float:
    """(1/2pi) int 1/f dlambda, the quantity whose finiteness permits nontrivial
    interpolation error: b(0), exactly, for a finite-degree 1/f."""
    if isinstance(f, (RationalAR, InversePolynomial)) and grid_size >= 1:  # else refused below
        return inverse_fourier_coeffs(f, 0)[0].real
    inv = np.real(f.inverse_on_grid(grid_size))
    scale = float(1 << (inv.size - 1).bit_length())  # a power of two >= G: exact, no overflow
    return float(np.mean(inv / scale) * scale)


def covariances(f: SpectralDensity, max_lag: int) -> np.ndarray:
    """r(n) = (1/2pi) int e^{in lambda} f(lambda) dlambda for n = 0..max_lag (r(-n) =
    conj r(n)), by quadrature on the least power of two >= max(DEFAULT_GRID, 4 (max_lag + 1))
    points: DEFAULT_GRID up to max_lag = DEFAULT_GRID / 4 - 1. f must be strictly positive
    there (check_positive)."""
    g = 1 << (max(DEFAULT_GRID, 4 * (max_lag + 1)) - 1).bit_length()
    vals = f.on_grid(g)
    check_positive(vals)
    coeffs = grid_fourier_coefficients(vals, max_lag)
    return coeffs[max_lag::-1].copy()  # index n -> coefficient at e^{+in}
