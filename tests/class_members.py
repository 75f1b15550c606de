"""Random members of the uncertainty classes, drawn one at a time on the grid:
the reference the exact saddle certificates of `minimax.saddle_check` are
checked against. The library draws no members, so the sampler lives here.

D0Minus members stay in the sub-family 1/f = 1/f0 + s |P|^2 (deg P <= 5),
DW members are even random perturbations of the moment polynomial projected
back onto the moments with a floor, and DVU members are uniform in the box
[1/u, 1/v], shifted and clipped to mean p.
"""

import numpy as np
from scipy.optimize import brentq

from gapinterp.densities import Tabulated, angular_grid
from gapinterp.minimax import DW, D0Minus


def gram_project_dw(g, moment_rows, b_given, floor):
    """Alternate the least-squares fit of moment_rows @ g = b_given, solved
    against the Gram matrix of the rows, with the floor, at most 50 times."""
    gram = moment_rows @ moment_rows.T
    for _ in range(50):
        g = g - moment_rows.T @ np.linalg.solve(gram, moment_rows @ g - b_given)
        if np.min(g) >= floor:
            break
        g = np.maximum(g, floor)
    return g


def loop_sample_density(cls, result, rng, G):
    """One random member of cls on G points, as a Tabulated density, drawn
    from rng around the least-favourable result."""
    lam = angular_grid(G)
    if isinstance(cls, D0Minus):
        base = result.solution.f.inverse_on_grid(G)
        deg = rng.integers(1, 6)
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        poly = np.zeros(G, dtype=complex)
        for n, cc in enumerate(coeffs):
            poly += cc * np.exp(-1j * n * lam)
        bump = np.abs(poly) ** 2
        bump *= rng.uniform(0.0, 1.0) * np.mean(base) / max(np.mean(bump), 1e-300)
        return Tabulated(1.0 / (base + bump))
    if isinstance(cls, DW):
        moment_rows = np.stack([np.cos(n * lam) / G for n in range(cls.W + 1)])
        g = cls.inverse_poly().evaluate(G).real
        direction = rng.normal(size=G)
        direction = 0.5 * (direction + direction[(-np.arange(G)) % G])
        direction /= max(np.max(np.abs(direction)), 1e-300)
        base_min = float(np.min(g))
        amp = 0.5 * base_min
        while amp > 1e-6 * base_min:
            trial = gram_project_dw(g + amp * direction, moment_rows, cls.b_given, 1e-9)
            if np.min(trial) >= 0.1 * base_min:
                return Tabulated(1.0 / trial)
            amp *= 0.5
        return Tabulated(1.0 / g)
    lo = 1.0 / cls.u.on_grid(G)
    hi = 1.0 / cls.v.on_grid(G)
    g = rng.uniform(lo, hi)

    def gap(s):
        return np.mean(np.clip(g + s, lo, hi)) - cls.p

    # brentq's tightest setting, so that the reference root is exact too
    s = brentq(gap, float(np.min(lo - g)) - 1.0, float(np.max(hi - g)) + 1.0,
               xtol=1e-300, rtol=4 * np.finfo(float).eps)
    return Tabulated(1.0 / np.clip(g + s, lo, hi))
