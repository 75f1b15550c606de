"""The public surface of the package."""

import dataclasses

import numpy as np
import pytest

import gapinterp
from gapinterp.densities import FourierCoeffs, RationalAR, Tabulated
from gapinterp.errors import InvalidParameters
from gapinterp.minimax import DVU, DW, D0Minus, LeastFavourableResult


def test_every_exported_name_resolves():
    missing = [name for name in gapinterp.__all__ if not hasattr(gapinterp, name)]
    assert missing == []
    assert len(set(gapinterp.__all__)) == len(gapinterp.__all__)


def test_least_favourable_result_is_its_solution_and_how_f0_was_found():
    fields = [f.name for f in dataclasses.fields(LeastFavourableResult)]
    assert fields == ["solution", "mechanism", "lagrange", "diagnostics"]


BAND = Tabulated(np.full(8, 0.5)), Tabulated(np.full(8, 2.0))


@pytest.mark.parametrize("build", [
    lambda: RationalAR(alpha="x"),
    lambda: Tabulated(["a"] * 8),
    lambda: FourierCoeffs(["a"]),
    lambda: FourierCoeffs([object()]),
    lambda: D0Minus(p=float("nan")),
    lambda: D0Minus(p=float("inf")),
    lambda: DVU(*BAND, p=float("inf")),
    lambda: DVU(*BAND, p=float("nan")),
    lambda: DW(b_given=[[1.0, 0.1]]),
], ids=["ar_string", "table_strings", "coeffs_string", "coeffs_object", "d0minus_nan",
        "d0minus_inf", "dvu_inf", "dvu_nan", "dw_2d"])
def test_malformed_inputs_refused(build):
    # numpy's ValueError escaped the constructors, and a p of NaN or inf was
    # accepted; the package raises only its own errors
    with pytest.raises(InvalidParameters):
        build()
