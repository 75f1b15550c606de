"""Mean-square optimal and minimax-robust interpolation of stationary
sequences observed outside structured gap sets."""

from .densities import (
    Factorization,
    FourierCoeffs,
    InversePolynomial,
    RationalAR,
    SpectralDensity,
    Tabulated,
    covariance,
    covariances,
    factorize_inverse,
    inverse_fourier_coeffs,
    minimality_value,
)
from .errors import GapInterpError, NumericalError, ValidationError
from .interpolate import (
    InterpolationSolution,
    mse_of_characteristic,
    solve,
    solve_truncated,
)
from .minimax import (
    D0Minus,
    DVU,
    DW,
    LeastFavourableResult,
    lf_d0minus,
    lf_dvu,
    lf_dW,
    numerical_lf,
    saddle_check,
)
from .oracle import build_problem, empirical_mse, project, simulate
from .patterns import (
    FunctionalWeights,
    ObservationPattern,
    missing_indices,
    weight_vector,
)

__version__ = "0.1.0"

__all__ = [
    "D0Minus", "DVU", "DW", "Factorization", "FourierCoeffs",
    "FunctionalWeights", "GapInterpError", "InterpolationSolution",
    "InversePolynomial", "LeastFavourableResult", "NumericalError",
    "ObservationPattern", "RationalAR", "SpectralDensity", "Tabulated",
    "ValidationError", "build_problem", "covariance", "covariances",
    "empirical_mse", "factorize_inverse", "inverse_fourier_coeffs",
    "lf_d0minus", "lf_dW", "lf_dvu", "minimality_value", "missing_indices",
    "mse_of_characteristic", "numerical_lf", "project", "saddle_check",
    "simulate", "solve", "solve_truncated", "weight_vector",
]
