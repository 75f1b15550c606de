"""Spectral densities on [-pi, pi], Fourier coefficients of 1/f, covariances,
and spectral factorization of positive trigonometric polynomials.

All integrals carry the 1/(2*pi) normalization. Grid quadrature uses G uniform
points lambda_g = -pi + 2*pi*g/G, which is exact for trigonometric polynomials
of degree < G/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParameters,
    MaskViolation,
    NonPositiveDensity,
    NotPositive,
    TruncationTooShort,
)

DEFAULT_GRID = 4096
DEFAULT_HALF_LENGTH = 256
POSITIVITY_RTOL = 1e-9
TAIL_RTOL = 1e-10
ROOT_PAIRING_TOL = 1e-8


def angular_grid(n: int) -> np.ndarray:
    """Uniform grid of n points on [-pi, pi)."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def grid_fourier_coefficients(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Quadrature values of (1/2pi) * integral of values(lambda) e^{-im lambda}
    for m = -max_lag .. max_lag, computed by FFT on the angular grid."""
    values = np.asarray(values, dtype=complex)
    n = values.size
    if 2 * max_lag >= n:
        raise InvalidParameters(f"grid of {n} points resolves lags < {n // 2}, got {max_lag}")
    spec = np.fft.fft(values) / n
    m = np.arange(-max_lag, max_lag + 1)
    # phase factor e^{i m pi} from the grid starting at -pi
    return np.where(m % 2 == 0, 1.0, -1.0) * spec[m % n]


def evaluate_trig_poly(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Evaluate sum_m c(m) e^{im lambda} on the angular grid of n points.

    coeffs is indexed m = -L..L with L = (len(coeffs)-1)//2.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    half = (coeffs.size - 1) // 2
    if 2 * half >= n:
        raise InvalidParameters(f"grid of {n} points cannot hold degree {half}")
    m = np.arange(-half, half + 1)
    spread = np.zeros(n, dtype=complex)
    spread[m % n] = np.where(m % 2 == 0, 1.0, -1.0) * coeffs
    return n * np.fft.ifft(spread)


@dataclass(frozen=True)
class FourierCoeffs:
    """Hermitian-symmetric coefficients b(m), m = -L..L, of a real function."""

    values: np.ndarray  # complex, length 2L+1, entry k holds b(k - L)

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
        """Values of sum b(m) e^{im lambda} on the angular grid (complex array)."""
        return evaluate_trig_poly(self.values, grid_size)


class SpectralDensity:
    """Base class; subclasses provide values of f and 1/f on the angular grid."""

    def on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        raise NotImplementedError

    def inverse_on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        f = self.on_grid(grid_size)
        _check_positive(f)
        return 1.0 / f


@dataclass(frozen=True)
class RationalAR(SpectralDensity):
    """f(lambda) = sigma2 / |1 - sum_k alpha_k e^{-ik lambda}|^2."""

    alpha: np.ndarray
    sigma2: float = 1.0

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=complex))
        object.__setattr__(self, "alpha", alpha)
        if self.sigma2 <= 0:
            raise InvalidParameters("sigma2 must be positive")
        # reject roots of phi(z) = 1 - sum alpha_k z^k on the unit circle; a
        # root of multiplicity m is computed only to about eps^(1/m), so phi
        # is also tested where each root projects onto the circle
        poly = np.concatenate((-alpha[::-1], [1.0]))
        roots = np.roots(poly)
        off_circle = np.abs(np.abs(roots) - 1.0)
        phi_on_circle = np.abs(np.polyval(poly, roots / np.abs(roots)))
        if np.any(off_circle < 1e-8) or np.any(phi_on_circle < 1e-8):
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
        with d = (1, -alpha_1, ..., -alpha_p)."""
        d = np.concatenate(([1.0 + 0j], -self.alpha))
        p = self.order
        vals = np.zeros(2 * p + 1, dtype=complex)
        for m in range(-p, p + 1):
            acc = 0.0 + 0j
            for j in range(p + 1):
                if 0 <= j + m <= p:
                    acc += d[j] * np.conj(d[j + m])
            vals[m + p] = acc / self.sigma2
        return FourierCoeffs(vals)


@dataclass(frozen=True)
class InversePolynomial(SpectralDensity):
    """1/f(lambda) = sum_m b(m) e^{im lambda} with finite Hermitian b."""

    inv_coeffs: FourierCoeffs

    def __post_init__(self):
        if not self.inv_coeffs.is_hermitian():
            raise InvalidParameters("inverse-polynomial coefficients must be Hermitian")

    def inverse_on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        vals = self.inv_coeffs.evaluate(grid_size)
        if np.max(np.abs(vals.imag)) > 1e-10 * max(np.max(np.abs(vals)), 1.0):
            raise InvalidParameters("inverse polynomial is not real on the grid")
        inv = vals.real
        _check_positive(inv)
        return inv

    def on_grid(self, grid_size: int = DEFAULT_GRID) -> np.ndarray:
        return 1.0 / self.inverse_on_grid(grid_size)


@dataclass(frozen=True)
class Tabulated(SpectralDensity):
    """Nonnegative values on a uniform grid over [-pi, pi); resampled to other
    grid sizes by trigonometric interpolation."""

    values: np.ndarray

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
        out = evaluate_trig_poly(coeffs, grid_size)
        return out.real


def _check_positive(values: np.ndarray, rtol: float = POSITIVITY_RTOL) -> None:
    top = np.max(values)
    if top <= 0 or np.min(values) <= rtol * top:
        raise NonPositiveDensity(
            f"density not strictly positive on grid (min {np.min(values):.3e}, max {top:.3e})"
        )


def inverse_fourier_coeffs(
    f: SpectralDensity,
    half_length: int = DEFAULT_HALF_LENGTH,
    grid_size: int = DEFAULT_GRID,
    check_tail: bool = True,
) -> FourierCoeffs:
    """Fourier coefficients b(m) = (1/2pi) int e^{-im lambda} / f dlambda,
    m = -half_length..half_length.

    For RationalAR and InversePolynomial inputs the exact finite expansion is
    returned (padded with zeros) at any half_length; Tabulated inputs go
    through FFT quadrature with a tail check and need grid_size >= 4 * half_length.

    check_tail=False skips the truncation guards; the returned coefficients
    at lags within half_length are still exact quadrature values, which is
    all that matrix assembly over a bounded lag set needs.
    """
    if isinstance(f, RationalAR):
        exact = f.exact_inverse_coeffs()
        if exact.half_length > half_length:
            if not check_tail:
                c = exact.values
                mid = exact.half_length
                return FourierCoeffs(c[mid - half_length: mid + half_length + 1])
            raise TruncationTooShort(
                f"inverse expansion has support {exact.half_length} > {half_length}"
            )
        return _pad(exact, half_length)
    if isinstance(f, InversePolynomial):
        b = f.inv_coeffs
        if b.half_length > half_length:
            tail = np.max(np.abs(np.concatenate([
                b.values[: b.half_length - half_length],
                b.values[b.half_length + half_length + 1:],
            ])))
            if check_tail and tail > TAIL_RTOL * max(abs(b[0]), 1e-300):
                raise TruncationTooShort("requested half-length drops nonzero coefficients")
            return FourierCoeffs(b.values[b.half_length - half_length: b.half_length + half_length + 1])
        # validate positivity on the grid as a precondition
        f.inverse_on_grid(grid_size)
        return _pad(b, half_length)
    if grid_size < 4 * half_length:
        raise InvalidParameters("grid_size must be at least 4 * half_length")
    inv = f.inverse_on_grid(grid_size)
    b = FourierCoeffs(grid_fourier_coefficients(inv, half_length)).symmetrized()
    if check_tail and abs(b[half_length]) > TAIL_RTOL * max(abs(b[0]), 1e-300):
        raise TruncationTooShort(
            f"|b(L)|/b(0) = {abs(b[half_length]) / abs(b[0]):.3e} exceeds tail threshold"
        )
    return b


def _pad(b: FourierCoeffs, half_length: int) -> FourierCoeffs:
    if b.half_length == half_length:
        return b
    pad = half_length - b.half_length
    return FourierCoeffs(np.concatenate([np.zeros(pad), b.values, np.zeros(pad)]))


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
    _check_positive(vals)
    return complex(grid_fourier_coefficients(vals, abs(lag))[-lag + abs(lag)])


def covariances(f: SpectralDensity, max_lag: int, grid_size: int | None = None) -> np.ndarray:
    """r(n) for n = 0..max_lag (r(-n) = conj r(n))."""
    g = grid_size if grid_size is not None else max(DEFAULT_GRID, 8 * max_lag)
    vals = f.on_grid(g)
    _check_positive(vals)
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
    if np.max(np.abs(target.imag)) > 1e-9 * max(np.max(np.abs(target)), 1.0):
        raise NotPositive("trig polynomial is not real on the grid")
    target = target.real
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
