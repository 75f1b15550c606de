"""Reference values computed without gapinterp.

Every check in the benchmark compares the solver against one of these:

* the closed-form AR(1) error for the two-block geometry {0, 1} + {-3, -4, -5}
  and its mirror {0, 1} + {4, 5, 6} (the 412/51 family);
* the time-domain projection of the target functional onto nearby
  observations, with covariances computed here from the density's own formula;
* the anchored D0Minus value a(n*)^2 / p.

Density specs are plain dicts:
    {"type": "ar", "alpha": [complex...], "sigma2": float}
    {"type": "invpoly", "b": {lag: complex}}         1/f = sum_m b(m) e^{im l}
    {"type": "tabulated", "of": <ar or invpoly spec>}  grid samples of that density
"""

from __future__ import annotations

import numpy as np


def density_values(spec: dict, grid_size: int) -> np.ndarray:
    """f(lambda_g), lambda_g = -pi + 2 pi g / G."""
    lam = -np.pi + 2.0 * np.pi * np.arange(grid_size) / grid_size
    kind = spec["type"]
    if kind == "ar":
        phi = np.ones(grid_size, dtype=complex)
        for k, a in enumerate(spec["alpha"], start=1):
            phi -= complex(a) * np.exp(-1j * k * lam)
        return spec.get("sigma2", 1.0) / np.abs(phi) ** 2
    if kind == "invpoly":
        inv = np.zeros(grid_size, dtype=complex)
        for m, b in spec["b"].items():
            inv += complex(b) * np.exp(1j * int(m) * lam)
        return 1.0 / inv.real
    if kind == "tabulated":
        return density_values(spec["of"], grid_size)
    raise ValueError(f"unknown density spec {kind!r}")


def inverse_order(spec: dict) -> int:
    """Degree of 1/f as a trigonometric polynomial."""
    kind = spec["type"]
    if kind == "ar":
        return len(spec["alpha"])
    if kind == "invpoly":
        return max(abs(int(m)) for m in spec["b"])
    if kind == "tabulated":
        return inverse_order(spec["of"])
    raise ValueError(f"unknown density spec {kind!r}")


def covariances(spec: dict, max_lag: int) -> np.ndarray:
    """r(n) = (1/2pi) int f e^{in lambda}, n = 0..max_lag, by quadrature on a
    grid fine enough that aliasing of the decaying sequence is negligible."""
    grid = 1 << max(14, int(np.ceil(np.log2(16 * (max_lag + 1)))))
    f = density_values(spec, grid)
    r = np.fft.ifft(f)[: max_lag + 1]
    return r * np.where(np.arange(max_lag + 1) % 2 == 0, 1.0, -1.0)


def projection_mse(spec: dict, missing: list[int], a: np.ndarray, window: int | None = None) -> float:
    """Mean-square error of the best linear estimate of sum_j a_j xi(t_j),
    t_j in `missing`, from the observations within `window` of the gap region.

    When 1/f is a trigonometric polynomial of degree q, the optimal estimate
    uses only observations within q of the gaps, so window >= q is exact.
    """
    if window is None:
        window = inverse_order(spec) + 2
    missing = list(missing)
    gaps = set(missing)
    lo, hi = min(missing) - window, max(missing) + window
    obs = np.array([t for t in range(lo, hi + 1) if t not in gaps])
    tgt = np.array(missing)
    r = covariances(spec, hi - lo)

    def cov(rows, cols):
        lags = np.subtract.outer(rows, cols)
        vals = r[np.abs(lags)]
        return np.where(lags < 0, np.conj(vals), vals)

    # with S[i][j] = E xi(t_i) conj(xi(t_j)) = r(t_i - t_j), the functional
    # sum a_j xi(t_j) has variance v^H S v for v = conj(a)
    v = np.conj(np.asarray(a, dtype=complex))
    rho = cov(obs, tgt) @ v
    w = np.linalg.solve(cov(obs, obs), rho)
    target_var = np.real(np.conj(v) @ (cov(tgt, tgt) @ v))
    return float(target_var - np.real(np.conj(rho) @ w))


# ---------------------------------------------------------------------------
# AR(1) closed form
# ---------------------------------------------------------------------------

def _block_form(alpha: complex, a: list[complex]) -> float:
    """a^H T^{-1} a for the Hermitian tridiagonal Toeplitz block T of 1/f with
    f = 1/|1 - alpha e^{-i l}|^2 over consecutive ascending indices:
    diagonal d = 1 + |alpha|^2, T[u][u+1] = e = -alpha. Blocks of size 2 and 3
    have the explicit inverses written out below."""
    d = 1.0 + abs(alpha) ** 2
    e = -alpha
    m2 = abs(e) ** 2
    if len(a) == 2:
        inv = np.array([[d, -e], [-np.conj(e), d]]) / (d * d - m2)
    elif len(a) == 3:
        ec = np.conj(e)
        inv = np.array([
            [d * d - m2, -e * d, e * e],
            [-ec * d, d * d, -e * d],
            [ec * ec, -ec * d, d * d - m2],
        ]) / (d * (d * d - 2.0 * m2))
    else:
        raise ValueError("closed form covers blocks of 2 and 3 indices")
    v = np.asarray(a, dtype=complex)
    return float(np.real(np.conj(v) @ inv @ v))


CLOSED_FORM_BLOCKS = {
    "S4": ([0, 1], [-5, -4, -3]),
    "S5": ([0, 1], [4, 5, 6]),
    "S6": ([0, 1], [-5, -4, -3], [4, 5, 6]),
}
CLOSED_FORM_PATTERNS = {
    "S4": {"kind": "S4", "N": 1, "M1": 2, "N1": 3},
    "S5": {"kind": "S5", "N": 1, "M2": 2, "N2": 3},
    "S6": {"kind": "S6", "N": 1, "M1": 2, "N1": 3, "M2": 2, "N2": 3},
}


def ar1_closed_form(kind: str, alpha: complex, sigma2: float, weights: dict) -> float:
    """Interpolation error of the 412/51 family under AR(1): the AR(1) inverse
    density couples only neighbouring lags, so the Gram system splits into the
    blocks of CLOSED_FORM_BLOCKS and the error is their sum."""
    return sigma2 * sum(
        _block_form(complex(alpha), [weights[j] for j in block])
        for block in CLOSED_FORM_BLOCKS[kind]
    )


# ---------------------------------------------------------------------------
# D0Minus anchored value
# ---------------------------------------------------------------------------

def anchor(pattern: dict, missing: list[int]) -> int:
    """Extreme missing index n* of the anchored D0Minus stationary point."""
    kind = pattern["kind"]
    if kind in ("S2", "S5"):
        return min(missing)
    if kind in ("S1", "S4"):
        return pattern.get("N", 0)
    if kind == "S6":
        return max(missing)
    raise ValueError(f"no anchored closed form for {kind}")


def d0minus_delta(pattern: dict, missing: list[int], weights: dict, p: float) -> float:
    return float(abs(weights[anchor(pattern, missing)]) ** 2 / p)


def missing_set(pattern: dict) -> list[int]:
    """K for a finite pattern dict, in ascending order."""
    N = pattern.get("N", 0)
    out = list(range(0, N + 1))
    if pattern["kind"] in ("S4", "S6"):
        out += [-pattern["M1"] - 1 - i for i in range(pattern["N1"])]
    if pattern["kind"] in ("S5", "S6"):
        out += [N + pattern["M2"] + 1 + i for i in range(pattern["N2"])]
    return sorted(out)


def truncated_missing_set(pattern: dict, depth: int) -> list[int]:
    """K of an infinite pattern cut at `depth` indices per infinite side."""
    N = pattern.get("N", 0)
    out = list(range(0, N + 1))
    if pattern["kind"] in ("S1", "S3"):
        out += [-pattern["M1"] - 1 - i for i in range(depth)]
    if pattern["kind"] in ("S2", "S3"):
        out += [N + pattern["M2"] + 1 + i for i in range(depth)]
    return sorted(out)
