"""Spectral densities on [-pi, pi], Fourier coefficients of 1/f, covariances,
and spectral factorization of positive trigonometric polynomials.

All integrals carry the 1/(2*pi) normalization. Grid quadrature uses G uniform
points lambda_g = -pi + 2*pi*g/G, which is exact for trigonometric polynomials
of degree < G/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg.lapack import zgeev

from .errors import (
    InvalidParameters,
    MaskViolation,
    NonPositiveDensity,
    NotPositive,
)

DEFAULT_GRID = 4096
POSITIVITY_RTOL = 1e-9
ROOT_PAIRING_TOL = 1e-8


def angular_grid(n: int) -> np.ndarray:
    """Uniform grid of n points on [-pi, pi)."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def grid_fourier_coefficients(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Quadrature values of (1/2pi) * integral of values(lambda) e^{-im lambda}
    for m = -max_lag .. max_lag, computed by FFT on the angular grid along the
    last axis (one row of coefficients per row of values).

    Real values go through one real FFT, which gives the lags m >= 0; the
    lags m < 0 are their conjugates, so the result is exactly Hermitian,
    b(-m) = conj(b(m)). Complex values go through the full FFT."""
    values = np.asarray(values)
    n = values.shape[-1]
    if 2 * max_lag >= n:
        raise InvalidParameters(f"grid of {n} points resolves lags < {n // 2}, got {max_lag}")
    # phase factor e^{i m pi} from the grid starting at -pi; only the kept
    # lags are divided by n
    if np.iscomplexobj(values):
        m = np.arange(-max_lag, max_lag + 1)
        spec = np.fft.fft(values, axis=-1)
        return np.where(m % 2 == 0, 1.0, -1.0) * spec[..., m % n] / n
    m = np.arange(max_lag + 1)
    right = np.where(m % 2 == 0, 1.0, -1.0) * np.fft.rfft(values, axis=-1)[..., : max_lag + 1] / n
    return np.concatenate((np.conj(right[..., :0:-1]), right), axis=-1)


def evaluate_trig_poly(coeffs: np.ndarray, n: int, real: bool = False) -> np.ndarray:
    """Evaluate sum_m c(m) e^{im lambda} on the angular grid of n points.

    coeffs is indexed m = -L..L along the last axis, L = (coeffs.shape[-1]-1)//2;
    each row of coefficients gives one row of grid values; real=True keeps their real part.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    half = (coeffs.shape[-1] - 1) // 2
    if 2 * half >= n:
        raise InvalidParameters(f"grid of {n} points cannot hold degree {half}")
    if real:  # twice the Hermitian part (c(m) + conj c(-m)) / 2, m >= 0, to one real inverse FFT
        right = coeffs[..., half:] + np.conj(coeffs[..., half::-1])
        return 0.5 * n * np.fft.irfft((-1.0) ** np.arange(half + 1) * right, n, axis=-1)
    m = np.arange(-half, half + 1)
    spread = np.zeros(coeffs.shape[:-1] + (n,), dtype=complex)
    spread[..., m % n] = np.where(m % 2 == 0, 1.0, -1.0) * coeffs
    return n * np.fft.ifft(spread, axis=-1)


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
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size % 2 == 0:
            raise InvalidParameters("coefficient array must have odd length (m = -L..L)")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_dict(cls, entries: dict[int, complex], half_length: int | None = None) -> "FourierCoeffs":
        lags = [abs(int(m)) for m in entries]
        half = half_length if half_length is not None else (max(lags) if lags else 0)
        vals = np.zeros(2 * half + 1, dtype=complex)
        for m, v in entries.items():
            vals[int(m) + half] = v
        return cls(vals)

    @property
    def half_length(self) -> int:
        return (self.values.size - 1) // 2

    def __getitem__(self, m: int) -> complex:
        if abs(m) > self.half_length:
            return 0.0 + 0.0j
        return complex(self.values[m + self.half_length])

    def symmetrized(self) -> "FourierCoeffs":
        """Enforce b(-m) = conj(b(m)) by Hermitian averaging."""
        sym = 0.5 * (self.values + np.conj(self.values[::-1]))
        return FourierCoeffs(sym)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        scale = max(np.max(np.abs(self.values)), 1.0)
        return bool(np.max(np.abs(self.values - np.conj(self.values[::-1]))) <= tol * scale)

    def evaluate(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        """Real values of sum b(m) e^{im lambda} on the grid, those of its Hermitian part."""
        return evaluate_trig_poly(self.values, grid_size, real=True)

    def is_real_on_grid(self, values: np.ndarray, rtol: float) -> bool:
        """Whether the imaginary part left out of `values` is within rtol max(max |value|, 1):
        it is at most sum |b(m) - conj b(-m)| / 2, and evaluated only when that bound is not."""
        skew = np.sum(np.abs(self.values - np.conj(self.values[::-1])))
        if skew <= 2.0 * rtol * max(np.max(np.abs(values)), 1.0):
            return True
        full = evaluate_trig_poly(self.values, values.size)
        return bool(np.max(np.abs(full.imag)) <= rtol * max(np.max(np.abs(full)), 1.0))


class SpectralDensity:
    """Base class; subclasses provide values of f and 1/f on the angular grid."""

    def on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        raise NotImplementedError

    def inverse_on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        f = self.on_grid(grid_size)
        check_positive(f)
        return 1.0 / f


@dataclass(frozen=True)
class RationalAR(SpectralDensity):
    """f(lambda) = sigma2 / |1 - sum_k alpha_k e^{-ik lambda}|^2, refused when a root
    r = 1/w of phi(z) = 1 - sum alpha_k z^k lies within 1e-8 of the unit circle, w the
    eigenvalues of the monic companion of z^p - alpha_1 z^(p-1) - ... - alpha_p (one ?geev).
    A root of multiplicity m is computed only to about eps^(1/m), so phi is also tested at
    r/|r| = conj(w)/|w|."""

    alpha: np.ndarray
    sigma2: float = 1.0
    _eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)  # w: S1-S3 decay
    __eq__ = _fields_equal

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=complex))
        object.__setattr__(self, "alpha", alpha)
        if not 0 < self.sigma2 < np.inf:  # refuses nan
            raise InvalidParameters(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not np.isfinite(alpha).all():
            raise InvalidParameters("AR polynomial roots cannot be computed: "
                                    "Array must not contain infs or NaNs")
        companion = np.eye(max(alpha.size, 1), k=-1, dtype=complex)  # [[0]] for white noise
        companion[0, :alpha.size] = alpha
        w, _, _, info = zgeev(companion, compute_vl=0, compute_vr=0)
        if info:  # where np.roots raised LinAlgError
            raise InvalidParameters("AR polynomial roots cannot be computed: no convergence")
        object.__setattr__(self, "_eigenvalues", w)
        for z in w.tolist():
            size = abs(z)
            z = z.conjugate() / (size or 1.0)  # r/|r|; w = 0 (alpha_p = 0) passes both tests
            phi = 1.0 - sum(a * z ** k for k, a in enumerate(alpha.tolist(), 1))
            if abs(1.0 - size) < 1e-8 * size or abs(phi) < 1e-8:
                raise InvalidParameters("AR polynomial has a (near-)root on the unit circle")

    def _phi_on_grid(self, lam: np.ndarray) -> np.ndarray:
        phi = np.ones_like(lam, dtype=complex)
        for k, a in enumerate(self.alpha, start=1):
            phi -= a * np.exp(-1j * k * lam)
        return phi

    @property
    def order(self) -> int:
        return self.alpha.size

    def on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        phi = self._phi_on_grid(angular_grid(grid_size))
        return self.sigma2 / np.abs(phi) ** 2

    def inverse_on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        phi = self._phi_on_grid(angular_grid(grid_size))
        return np.abs(phi) ** 2 / self.sigma2

    def exact_inverse_coeffs(self) -> FourierCoeffs:
        """Finite expansion of 1/f: b(m) = (1/sigma2) sum_j d_j conj(d_{j+m})
        with d = (1, -alpha_1, ..., -alpha_p), one convolution."""
        d = np.concatenate(([1.0 + 0j], -self.alpha))
        return FourierCoeffs(np.convolve(np.conj(d), d[::-1]) / self.sigma2)


@dataclass(frozen=True)
class InversePolynomial(SpectralDensity):
    """1/f(lambda) = sum_m b(m) e^{im lambda} with finite Hermitian b."""

    inv_coeffs: FourierCoeffs
    __eq__ = _fields_equal

    def __post_init__(self):
        if not self.inv_coeffs.is_hermitian():
            raise InvalidParameters("inverse-polynomial coefficients must be Hermitian")

    def inverse_on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        """1/f by one real FFT of b; refused unless real and positive on the grid."""
        inv = self.inv_coeffs.evaluate(grid_size)
        if not self.inv_coeffs.is_real_on_grid(inv, 1e-10):
            raise InvalidParameters("inverse polynomial is not real on the grid")
        check_positive(inv)
        return inv

    def on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        return 1.0 / self.inverse_on_grid(grid_size)


@dataclass(frozen=True)
class Tabulated(SpectralDensity):
    """Nonnegative values on a uniform grid over [-pi, pi); resampled to other
    grid sizes by trigonometric interpolation."""

    values: np.ndarray
    __eq__ = _fields_equal

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 4:
            raise InvalidParameters("tabulated density needs at least 4 grid values")
        if np.min(vals) < 0:
            raise InvalidParameters("tabulated density has negative values")
        object.__setattr__(self, "values", vals)

    def on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        n = self.values.size
        if grid_size == n:
            return self.values.copy()
        half = min((n - 1) // 2, (grid_size - 1) // 2)
        coeffs = grid_fourier_coefficients(self.values, half)
        return evaluate_trig_poly(coeffs, grid_size, real=True)


def check_positive(values: np.ndarray, rtol: float = POSITIVITY_RTOL) -> None:
    """Raise NonPositiveDensity unless every row of values (along the last
    axis) is strictly positive relative to its maximum."""
    top = values.max(axis=-1)
    low = values.min(axis=-1)
    bad = (top <= 0) | (low <= rtol * top)
    if np.count_nonzero(bad):  # the message names the first failing row
        low, top = np.ravel(low)[bad.argmax()], np.ravel(top)[bad.argmax()]
        raise NonPositiveDensity(
            f"density not strictly positive on grid (min {low:.3e}, max {top:.3e})"
        )


def inverse_fourier_coeffs(
    f: SpectralDensity,
    half_length: int,
    grid_size: int = DEFAULT_GRID,
) -> FourierCoeffs:
    """Fourier coefficients b(m) = (1/2pi) int e^{-im lambda} / f dlambda,
    m = -half_length..half_length.

    RationalAR and InversePolynomial inputs give their exact finite
    expansion, cut or padded with zeros to half_length; an InversePolynomial
    is first refused unless 1/f is real and positive on the grid. Tabulated
    inputs go through FFT quadrature and need grid_size >= 4 * half_length.
    """
    if isinstance(f, RationalAR):
        return _resize(f.exact_inverse_coeffs(), half_length)
    if isinstance(f, InversePolynomial):
        f.inverse_on_grid(grid_size)
        return _resize(f.inv_coeffs, half_length)
    if grid_size < 4 * half_length:
        raise InvalidParameters("grid_size must be at least 4 * half_length")
    return FourierCoeffs(grid_fourier_coefficients(f.inverse_on_grid(grid_size), half_length))


def _resize(b: FourierCoeffs, half_length: int) -> FourierCoeffs:
    """b at the lags -half_length..half_length: cut, or padded with zeros."""
    extra = half_length - b.half_length
    if extra < 0:
        return FourierCoeffs(b.values[-extra: extra])
    if extra == 0:
        return b
    zeros = np.zeros(extra, dtype=complex)
    return FourierCoeffs(np.concatenate((zeros, b.values, zeros)))


def minimality_value(f: SpectralDensity, grid_size: int = DEFAULT_GRID) -> float:
    """(1/2pi) int 1/f dlambda, the quantity whose finiteness permits
    nontrivial interpolation error."""
    inv = f.inverse_on_grid(grid_size)
    return float(np.mean(np.real(inv)))


def covariance(f: SpectralDensity, lag: int, grid_size: int = DEFAULT_GRID) -> complex:
    """r(n) = (1/2pi) int e^{in lambda} f(lambda) dlambda by grid quadrature."""
    if abs(lag) > grid_size // 4:
        raise InvalidParameters("lag too large for the grid")
    vals = f.on_grid(grid_size)
    check_positive(vals)
    return complex(grid_fourier_coefficients(vals, abs(lag))[-lag + abs(lag)])


def covariances(f: SpectralDensity, max_lag: int, grid_size: int | None = None) -> np.ndarray:
    """r(n) for n = 0..max_lag (r(-n) = conj r(n))."""
    g = grid_size if grid_size is not None else max(DEFAULT_GRID, 8 * max_lag)
    vals = f.on_grid(g)
    check_positive(vals)
    coeffs = grid_fourier_coefficients(vals, max_lag)
    return coeffs[max_lag::-1].copy()  # index n -> coefficient at e^{+in}


@dataclass(frozen=True)
class Factorization:
    """gamma_n, n = 0..L, with |sum gamma_n e^{-in lambda}|^2 equal to the
    source trigonometric polynomial."""

    gamma: np.ndarray
    mask: frozenset = field(default_factory=frozenset)

    def evaluate(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        lam = angular_grid(grid_size)
        acc = np.zeros(grid_size, dtype=complex)
        for n, g in enumerate(self.gamma):
            acc += g * np.exp(-1j * n * lam)
        return np.abs(acc) ** 2


def factorize_inverse(
    b: FourierCoeffs,
    mask: frozenset | set | None = None,
    grid_size: int = DEFAULT_GRID,
) -> Factorization:
    """Fejer-Riesz factorization of the positive trig polynomial sum b(m)e^{im l}.

    Roots of the associated polynomial are paired across the unit circle; the
    inside roots define gamma up to a unimodular phase, fixed so gamma_0 > 0.
    """
    mask = frozenset(mask or ())
    target = b.evaluate(grid_size)
    if not b.is_real_on_grid(target, 1e-9):
        raise NotPositive("trig polynomial is not real on the grid")
    if np.min(target) <= POSITIVITY_RTOL * np.max(target):
        raise NotPositive(f"trig polynomial dips to {np.min(target):.3e} on the grid")

    half = b.half_length
    scale = np.max(np.abs(b.values))
    while half > 0 and abs(b[half]) <= 1e-14 * scale:
        half -= 1
    if half == 0:
        gamma = np.array([np.sqrt(b[0].real)], dtype=complex)
    else:
        # q(z) = sum_m b(m) z^{m+half}; roots pair as (r, 1/conj(r))
        poly = np.array([b[m] for m in range(half, -half - 1, -1)])  # descending powers
        roots = np.roots(poly)
        inside = roots[np.abs(roots) < 1.0 - ROOT_PAIRING_TOL]
        if inside.size != half:
            # fall back to magnitude ranking when roots sit close to the circle
            inside = roots[np.argsort(np.abs(roots))][:half]
        coeffs = np.array([1.0 + 0j])
        for r in inside:
            coeffs = np.convolve(coeffs, np.array([1.0, -r]))  # product of (1 - r w)
        lam = angular_grid(grid_size)
        base = np.zeros(grid_size, dtype=complex)
        for n, c in enumerate(coeffs):
            base += c * np.exp(-1j * n * lam)
        ratio = target / np.abs(base) ** 2
        gamma = np.sqrt(np.mean(ratio)) * coeffs
    # fix the unimodular phase
    phase = gamma[np.argmax(np.abs(gamma))]
    gamma = gamma * np.conj(phase / abs(phase))
    if abs(gamma[0].imag) < 1e-12 * max(np.max(np.abs(gamma)), 1.0):
        gamma = gamma.copy()
        gamma[0] = gamma[0].real

    fact = Factorization(gamma=gamma, mask=mask)
    recon = fact.evaluate(grid_size)
    err = np.max(np.abs(recon - target)) / np.max(np.abs(target))
    if err > 1e-8:
        raise NotPositive(f"factorization reconstruction error {err:.3e} exceeds 1e-8")
    bad = [n for n in mask if n < gamma.size and abs(gamma[n]) > 1e-8 * max(np.max(np.abs(gamma)), 1.0)]
    if bad:
        raise MaskViolation(f"gamma indices {sorted(bad)} violate the zero mask")
    return fact
