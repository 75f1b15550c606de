"""Command-line interface: configs, artifacts, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gapinterp import cli, densities, oracle


EX_CONFIG = {
    "density": {"type": "rational_ar", "alpha": [0.5]},
    "pattern": {"kind": "S4", "N": 1, "M1": 2, "N1": 3},
    "weights": {"values": {"0": 1, "1": 1, "-3": 1, "-4": 1, "-5": 1}},
}

LF_CONFIG = {
    "pattern": {"kind": "S5", "N": 0, "M2": 1, "N2": 1},
    "weights": {"values": {"0": 1, "2": 0.2}},
    "class": {"type": "d0minus", "p": 1.0},
}


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity constants that Python emits."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def write_config(tmp_path, record, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def run(tmp_path, command, config, *extra):
    out_dir = tmp_path / "out"
    code = cli.main([command, write_config(tmp_path, config), "--out",
                     str(out_dir), *extra])
    result = strict_json((out_dir / "result.json").read_text())
    return code, result, out_dir


class TestMinimality:
    def test_ar1(self, tmp_path):
        config = {"density": {"type": "rational_ar", "alpha": [0.5]}}
        code, rec, _ = run(tmp_path, "minimality", config)
        assert code == 0
        assert abs(rec["value"] - 1.25) < 1e-10
        assert rec["minimal"] is True

    def test_ar1_on_one_point(self, tmp_path):
        # b(0) exactly: the mean of 1/f over one point read 1/f(-pi) = 2.25
        config = {"density": {"type": "rational_ar", "alpha": [0.5]}}
        code, rec, _ = run(tmp_path, "minimality", config, "--grid", "1")
        assert code == 0
        assert abs(rec["value"] - 1.25) < 1e-12

    def test_mean_near_the_float_range(self, tmp_path):
        # 1/f = 8.99e307 on each of 16 points: their sum overflowed, a
        # RuntimeWarning (an error under this suite) with no record written
        config = {"density": {"type": "rational_ar", "alpha": [0.0],
                              "sigma2": 1.1125369292536007e-308}}
        code, rec, _ = run(tmp_path, "minimality", config, "--grid", "16")
        assert code == 0
        assert rec["value"] == 1 / 1.1125369292536007e-308 and rec["minimal"] is True

    def test_unit_root_is_validation_error(self, tmp_path):
        config = {"density": {"type": "rational_ar", "alpha": [1.0]}}
        code, rec, _ = run(tmp_path, "minimality", config)
        assert code == 1
        assert rec["category"] == "validation"

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["minimality", str(tmp_path / "nope.json")])
        assert code == 1
        rec = json.loads(capsys.readouterr().out)
        assert rec["category"] == "validation"


class TestInterpolate:
    def test_example(self, tmp_path):
        code, rec, _ = run(tmp_path, "interpolate", EX_CONFIG)
        assert code == 0
        assert abs(rec["delta"] - 412 / 51) < 1e-9
        assert rec["indices"] == [0, 1, -3, -4, -5]
        assert abs(rec["c"][0] - 4 / 3) < 1e-9

    def test_csv_artifact(self, tmp_path):
        code, rec, out_dir = run(tmp_path, "interpolate", EX_CONFIG,
                                 "--format", "both")
        assert code == 0
        lines = (out_dir / "characteristic.csv").read_text().splitlines()
        assert lines[0] == "lambda,h_re,h_im"
        assert len(lines) == 4097

    def test_csv_only_writes_no_result_json(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = cli.main(["interpolate", write_config(tmp_path, EX_CONFIG), "--out",
                         str(out_dir), "--format", "csv"])
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["characteristic.csv"]
        assert abs(strict_json(capsys.readouterr().out)["delta"] - 412 / 51) < 1e-9

    def test_inverse_poly_coefficients_taken_as_given(self, tmp_path):
        # 1/f of AR(1) 0.5 is 1.25 - 0.5 e^{i lambda} - 0.5 e^{-i lambda}; the
        # one-sided {0: 1.25, 1: -0.5} is not Hermitian, and is refused
        config = {"pattern": {"kind": "S4", "N": 1, "M1": 1, "N1": 0},
                  "weights": {"values": {"0": 1, "1": 1}}}
        _, ar, _ = run(tmp_path, "interpolate",
                       {**config, "density": {"type": "rational_ar", "alpha": [0.5]}})
        two_sided = {"type": "inverse_poly", "coeffs": {"-1": -0.5, "0": 1.25, "1": -0.5}}
        code, rec, _ = run(tmp_path, "interpolate", {**config, "density": two_sided})
        assert code == 0 and abs(rec["delta"] - ar["delta"]) <= 1e-15 * ar["delta"]
        one_sided = {"type": "inverse_poly", "coeffs": {"0": 1.25, "1": -0.5}}
        code, rec, _ = run(tmp_path, "interpolate", {**config, "density": one_sided})
        assert code == 1 and rec["category"] == "validation"
        assert rec["message"] == "inverse-polynomial coefficients must be Hermitian"

    def test_infinite_pattern(self, tmp_path):
        config = {
            "density": {"type": "rational_ar", "alpha": [0.5]},
            "pattern": {"kind": "S1", "N": 0, "M1": 1},
            "weights": {"geometric": {"C": 1.0, "rho": 0.5}},
        }
        code, rec, _ = run(tmp_path, "interpolate", config)
        assert code == 0
        assert list(rec["convergence"]) == ["depth"] and rec["convergence"]["depth"] >= 1

    def test_deep_cut_keeps_the_grid(self, tmp_path):
        # at rho = 0.99 the cut lies 2063 indices out, past half the default
        # grid of 4096 points; the solution doubled its grid to 8192. It keeps
        # the grid, and each row holds h's exact value at its lambda
        config = {
            "density": {"type": "rational_ar", "alpha": [0.5]},
            "pattern": {"kind": "S3", "N": 2, "M1": 2, "M2": 3},
            "weights": {"geometric": {"C": 1.0, "rho": 0.99}},
        }
        code, rec, out_dir = run(tmp_path, "interpolate", config, "--format", "both")
        assert code == 0 and rec["convergence"] == {"depth": 2063}
        idx = np.array(rec["indices"])
        c = np.array([complex(*v) if isinstance(v, list) else v for v in rec["c"]])
        a = 0.99 ** np.abs(idx)
        with open(out_dir / "characteristic.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["lambda", "h_re", "h_im"] and len(rows) == 4096
        for g in range(0, 4096, 97):
            lam, h_re, h_im = map(float, rows[g])
            # e^{ij lambda_g} = (-1)^j e^{2 pi i (j g mod G) / G}, one exp per index
            terms = np.where(idx % 2, -1.0, 1.0) * np.exp(2j * np.pi * (idx * g % 4096) / 4096)
            h = np.sum(a * terms) - np.sum(c * terms) * abs(1 - 0.5 * np.exp(-1j * lam)) ** 2
            assert abs(complex(h_re, h_im) - h) <= 1e-12 * abs(h), g

    def test_wide_gap_keeps_the_grid(self, tmp_path):
        # K spans [-2102, 2103], past half the 4096-point grid: --format both
        # exited 1 ("grid of 4096 points cannot hold degree 2103") after the solve
        config = {
            "density": {"type": "rational_ar", "alpha": [0.5]},
            "pattern": {"kind": "S6", "N": 1, "M1": 2, "N1": 2100, "M2": 2, "N2": 2100},
            "weights": {"values": {"0": 1, "1": 1}},
        }
        code, rec, out_dir = run(tmp_path, "interpolate", config, "--format", "both")
        assert code == 0
        rows = (out_dir / "characteristic.csv").read_text().splitlines()[1:]
        assert len(rows) == 4096
        code, alone, _ = run(tmp_path, "interpolate", config, "--format", "json")
        assert code == 0 and alone["delta"] == rec["delta"]

    def test_degree_past_the_grid_writes_the_grid(self, tmp_path):
        # 1/f of degree 40 on a 64-point grid: --format csv exited 1 ("grid of 64
        # points cannot hold degree 40") where --format json exited 0
        config = {
            "density": {"type": "inverse_poly", "coeffs": {"0": 1, "40": 0.1, "-40": 0.1}},
            "pattern": {"kind": "S4", "N": 1, "M1": 2, "N1": 3},
            "weights": {"values": {"0": 0.1, "1": 1, "-3": 0.1, "-4": 0.1, "-5": 0.1}},
        }
        code, alone, _ = run(tmp_path, "interpolate", config, "--grid", "64", "--format", "json")
        assert code == 0
        for fmt in ("csv", "both"):
            code, rec, out_dir = run(tmp_path, "interpolate", config, "--grid", "64",
                                     "--format", fmt)
            assert code == 0 and rec["delta"] == alone["delta"]
            with open(out_dir / "characteristic.csv", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert header == ["lambda", "h_re", "h_im"] and len(rows) == 64

    def test_bad_truncation_is_numerical_error(self, tmp_path):
        # a tabulated density at rho = 0.97 needs a cut at D = 682, where the
        # span of K outgrows the quadrature of the 4096-point grid (D = 511)
        lam = -np.pi + 2 * np.pi * np.arange(4096) / 4096
        config = {
            "density": {"type": "tabulated",
                        "values": (1.0 / np.abs(1 - 0.5 * np.exp(-1j * lam)) ** 2).tolist()},
            "pattern": {"kind": "S3", "N": 0, "M1": 1, "M2": 1},
            "weights": {"geometric": {"C": 1.0, "rho": 0.97}},
        }
        code, rec, _ = run(tmp_path, "interpolate", config)
        assert code == 2
        assert rec["category"] == "numerical" and rec["error"] == "NotConverged"
        assert rec["diagnostics"] == {"depth": 511, "grid_size": 4096}

    def test_weights_on_observed_rejected(self, tmp_path):
        config = dict(EX_CONFIG)
        config["weights"] = {"values": {"0": 1, "2": 1}}
        code, rec, _ = run(tmp_path, "interpolate", config)
        assert code == 1
        assert rec["category"] == "validation"


    def test_key_past_int64_on_a_large_gap_rejected(self, tmp_path):
        # |K| = 204, past interpolate.ARRAY_MIN: a key no int64 holds lies
        # outside K and is refused like any other, with a record
        config = dict(EX_CONFIG)
        config["pattern"] = {"kind": "S4", "N": 3, "M1": 2, "N1": 200}
        config["weights"] = {"values": {"0": 1, "99999999999999999999": 1}}
        code, rec, _ = run(tmp_path, "interpolate", config)
        assert code == 1
        assert rec["category"] == "validation" and rec["error"] == "SupportMismatch"
        assert "[99999999999999999999]" in rec["message"]

    def test_as_many_weights_as_k_with_one_outside_rejected(self, tmp_path):
        # |K| = 144 weights, one of them at the observed 4 and none at -3: as
        # many keys as K holds is not an exact cover, and the record says so
        config = dict(EX_CONFIG)
        config["pattern"] = {"kind": "S6", "N": 3, "M1": 2, "N1": 70, "M2": 2, "N2": 70}
        k = [*range(4), *range(-3, -73, -1), *range(6, 76)]
        values = {str(j): 1 for j in k if j != -3}
        values["4"] = 1
        assert len(values) == len(k) == 144
        config["weights"] = {"values": values}
        code, rec, _ = run(tmp_path, "interpolate", config)
        assert code == 1
        assert rec == {"category": "validation", "error": "SupportMismatch",
                       "message": "weights at indices [4] lie outside the missing set"}


class TestLeastFavourable:
    def test_d0minus(self, tmp_path):
        code, rec, out_dir = run(tmp_path, "least-favourable", LF_CONFIG,
                                 "--format", "both", "--samples", "20")
        assert code == 0
        assert abs(rec["delta0"] - 1.0) < 1e-9
        assert rec["saddle_report"]["all_pass"] is True
        assert abs(rec["b0"]["0"] - 1.0) < 1e-12
        lines = (out_dir / "least_favourable.csv").read_text().splitlines()
        assert lines[0] == "lambda,f0,h0_re,h0_im"

    def test_dw(self, tmp_path):
        config = dict(LF_CONFIG)
        config["class"] = {"type": "dw", "b": [1.25, -0.5, 0.0]}
        code, rec, _ = run(tmp_path, "least-favourable", config, "--samples", "10")
        assert code == 0
        assert rec["mechanism"] == "degenerate"

    def test_dvu_infeasible(self, tmp_path):
        config = dict(LF_CONFIG)
        config["class"] = {
            "type": "dvu",
            "v": {"type": "tabulated", "values": [0.5, 0.5, 0.5, 0.5]},
            "u": {"type": "tabulated", "values": [1.0, 1.0, 1.0, 1.0]},
            "p": 10.0,
        }
        code, rec, _ = run(tmp_path, "least-favourable", config)
        assert code == 1
        assert rec["error"] == "InfeasibleClass"

    def test_dvu_lower_bound_zero_is_validation_error(self, tmp_path):
        # the ascent went NaN from 1/v = inf, which made a NonFiniteValue record (exit 2)
        config = {
            "pattern": {"kind": "S6", "N": 1, "M1": 2, "N1": 2, "M2": 2, "N2": 2},
            "weights": {"values": {str(j): 0.5 for j in (-4, -3, 0, 1, 4, 5)}},
            "class": {"type": "dvu", "v": {"type": "tabulated", "values": [0.0] * 512},
                      "u": {"type": "tabulated", "values": [1.2] * 512}, "p": 1.0},
        }
        code, rec, _ = run(tmp_path, "least-favourable", config)
        assert code == 1
        assert rec["error"] == "InvalidParameters"
        assert rec["category"] == "validation"

    def test_dvu_weights_without_closed_form(self, tmp_path):
        # a negative or complex weight made lf_dvu exit 1 with WeightsNotPositive
        config = {
            "pattern": {"kind": "S6", "N": 1, "M1": 2, "N1": 2, "M2": 2, "N2": 2},
            "weights": {"values": {"-4": 0.5, "-3": -0.3, "0": 1, "1": 0.5, "4": [0.5, 0.2],
                                   "5": 0.5}},
            "class": {"type": "dvu", "v": {"type": "tabulated", "values": [0.5] * 512},
                      "u": {"type": "tabulated", "values": [1.2] * 512}, "p": 1.0},
        }
        code, rec, _ = run(tmp_path, "least-favourable", config)
        assert code == 0
        assert rec["mechanism"] == "numerical"
        # the vertex member of the class has an error above delta0 under h0,
        # which the 100 uniform members sampled before this record missed
        report = rec["saddle_report"]
        assert report["lower_pass"] is True
        assert report["vertex_error"] > rec["delta0"] * (1 + 1e-3)
        assert report["vertex_error"] <= report["upper_bound"]
        assert report["all_pass"] is False

    def test_infinite_pattern_without_depth_names_the_key(self, tmp_path):
        # the refusal named with_truncation and solve_truncated, which a CLI
        # user cannot call
        config = {
            "pattern": {"kind": "S3", "N": 0, "M1": 2, "M2": 2},
            "weights": {"geometric": {"C": 1.0, "rho": 0.5}},
            "class": {"type": "dvu", "v": {"type": "tabulated", "values": [0.5] * 512},
                      "u": {"type": "tabulated", "values": [1.2] * 512}, "p": 1.0},
        }
        code, rec, _ = run(tmp_path, "least-favourable", config)
        assert code == 1 and rec["category"] == "validation"
        assert rec["message"] == 'least-favourable solves S3 cut at a depth: add "T" to the pattern'

    def test_tiny_weights_pass_the_lower_side(self, tmp_path):
        # ||a||_2 of weights near 1e-170 underflowed to 0, and the lower
        # residual, relative to it, read 5e120
        config = {
            "pattern": {"kind": "S4", "N": 1, "M1": 2, "N1": 1},
            "weights": {"values": {"0": 1e-170, "1": 1e-171, "-3": 1e-171}},
            "class": {"type": "dvu", "v": {"type": "tabulated", "values": [0.5] * 64},
                      "u": {"type": "tabulated", "values": [2.0] * 64}, "p": 1.0},
        }
        code, rec, _ = run(tmp_path, "least-favourable", config)
        assert code == 0 and rec["mechanism"] == "numerical"
        assert rec["saddle_report"]["lower_residual"] <= 1e-10
        assert rec["saddle_report"]["lower_pass"] is True

    def test_zero_weights_saddle_report_is_strict_json(self, tmp_path):
        # with a = 0 the lower residual was divided by numpy's tiny, a numpy
        # float, whose comparison gave a numpy bool that json could not write
        config = {
            "density": {"type": "inverse_poly", "coeffs": {"0": 1.0}},
            "pattern": {"kind": "S6", "N": 0, "M1": 2, "N1": 0, "M2": 2, "N2": 0},
            "weights": {"values": {"0": 0}},
            "class": {"type": "dvu", "p": 1.0, "v": {"type": "tabulated", "values": [0.1] * 8},
                      "u": {"type": "tabulated", "values": [10.0] * 8}},
        }
        code, rec, _ = run(tmp_path, "least-favourable", config, "--grid", "16")
        assert code == 0
        report = rec["saddle_report"]
        assert report["lower_residual"] == 0.0
        assert report["lower_pass"] is True and report["all_pass"] is True


class TestFailureRecords:
    @pytest.mark.parametrize("config", [
        {k: v for k, v in EX_CONFIG.items() if k != "weights"},                 # KeyError
        {**EX_CONFIG, "density": {"type": "rational_ar", "alpha": ["half"]}},   # ValueError
        {**EX_CONFIG, "pattern": 5},                                            # TypeError
        {**EX_CONFIG, "weights": {"values": [1, 1, 1, 1, 1]}},                  # AttributeError
        [EX_CONFIG],                                                            # not an object
        {**EX_CONFIG, "density": {"type": "rational_ar", "alpha": [[0.5, 0, 1]]}},  # 3-item pair
        {**EX_CONFIG, "density": {"type": "arma", "alpha": [0.5]}},              # unknown type
    ])
    def test_bad_config_is_validation_error(self, tmp_path, config):
        code, rec, _ = run(tmp_path, "interpolate", config)
        assert code == 1
        assert rec["error"] == "ValidationError"
        assert rec["category"] == "validation"

    def test_unknown_class_is_validation_error(self, tmp_path):
        code, rec, _ = run(tmp_path, "least-favourable",
                           {**LF_CONFIG, "class": {"type": "dx", "p": 1.0}})
        assert code == 1
        assert rec["error"] == "ValidationError" and "unknown uncertainty class" in rec["message"]

    def test_invalid_closed_form_is_numerical_error(self, tmp_path):
        config = {**EX_CONFIG, "class": {"type": "d0minus", "p": 1.0}}  # all-ones S4
        code, rec, _ = run(tmp_path, "least-favourable", config)
        assert code == 2
        assert rec["error"] == "PositivityLost"
        assert rec["category"] == "numerical"
        assert rec["diagnostics"]["inv_min"] < 0

    @pytest.mark.parametrize("grid", ["4096", "8192"])
    def test_off_grid_dip_refused_with_its_bracket(self, tmp_path, grid):
        # 1/f = 1 - 2e-7 - cos(lambda - pi/4096) dips between the points of the
        # 4096-point grid: interpolate exited 0 there with delta = 1.0000002
        config = {
            "density": {"type": "inverse_poly", "coeffs": {
                "0": 0.9999998, "1": [-0.4999998529314411, 0.00038349515937135224],
                "-1": [-0.4999998529314411, -0.00038349515937135224]}},
            "pattern": {"kind": "S4", "N": 0, "M1": 1, "N1": 0},
            "weights": {"values": {"0": 1}},
        }
        code, rec, _ = run(tmp_path, "interpolate", config, "--grid", grid)
        assert code == 2
        assert rec["error"] == "NonPositiveDensity"
        d = rec["diagnostics"]
        assert set(d) == {"inv_lower_bound", "inv_min", "inv_max", "grid_size"}
        assert d["inv_lower_bound"] <= d["inv_min"] < 0 < d["inv_max"]

    def test_bracket_past_the_float_range_left_out(self, tmp_path):
        # 1/f = 1e308 (1 + 2 cos lambda) peaks at 3e308, past the largest float:
        # the record keeps the finite ends of the bracket and stays strict JSON
        config = {**EX_CONFIG, "density": {"type": "inverse_poly", "coeffs": {
            "0": 1e308, "1": 1e308, "-1": 1e308}}}
        code, rec, _ = run(tmp_path, "interpolate", config)
        assert code == 2
        assert rec["error"] == "NonPositiveDensity"
        assert set(rec["diagnostics"]) == {"inv_lower_bound", "inv_min", "grid_size"}

    def test_non_finite_value_is_numerical_error(self, tmp_path, monkeypatch):
        # a command whose record holds an infinity, which JSON cannot hold
        monkeypatch.setitem(cli.COMMANDS, "least-favourable",
                            lambda config, args: {"worst_upper_excess": float("-inf")})
        code, rec, _ = run(tmp_path, "least-favourable", LF_CONFIG)
        assert code == 2
        assert rec["error"] == "NonFiniteValue"
        with pytest.raises(ValueError):
            cli.write_json(None, {"delta": float("nan")})

    def test_saddle_samples_flag_ignored(self, tmp_path, capsys):
        # saddle_check draws no members: --samples is accepted, hidden and ignored
        records = []
        for n in ("0", "-3", "100"):
            code, rec, _ = run(tmp_path, "least-favourable", LF_CONFIG, "--samples", n)
            assert code == 0
            records.append(rec)
        assert records[0] == records[1] == records[2]
        assert records[0]["saddle_report"]["n_samples"] == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        assert "--samples" not in capsys.readouterr().out

    DVU_CONFIG = {**LF_CONFIG, "class": {
        "type": "dvu", "p": 1.0,
        "v": {"type": "tabulated", "values": [0.05] * 512},
        "u": {"type": "tabulated", "values": [20.0] * 512},
    }}

    # each of these escaped as a numpy/scipy traceback with no record written,
    # except the last two: interpolate succeeded on a grid of -8 points, and
    # hung doubling a grid of 0 points on S1-S3
    @pytest.mark.parametrize("command, config, extra", [
        ("simulate", EX_CONFIG, ("--seed", "-1", "--replicates", "10")),
        ("least-favourable", LF_CONFIG, ("--seed", "-1")),
        ("least-favourable", DVU_CONFIG, ("--seed", "-1", "--samples", "5")),
        ("least-favourable", DVU_CONFIG, ("--grid", "0")),
        ("least-favourable", DVU_CONFIG, ("--grid", "-8")),
        ("minimality", {"density": {"type": "tabulated", "values": [1.0] * 8}}, ("--grid", "0")),
        ("minimality", {"density": {"type": "rational_ar", "alpha": [0.5]}}, ("--grid", "-8")),
        ("interpolate", EX_CONFIG, ("--grid", "-8")),
        ("interpolate", {**EX_CONFIG, "pattern": {"kind": "S1", "N": 0, "M1": 1},
                         "weights": {"values": {"0": 1}}}, ("--grid", "0")),
    ], ids=["simulate_seed", "lf_seed", "dvu_seed", "dvu_grid_0", "dvu_grid_-8",
            "tabulated_grid_0", "ar_grid_-8", "solve_grid_-8", "exact_tail_grid_0"])
    def test_bad_integer_flag_is_validation_error(self, tmp_path, command, config, extra):
        code, rec, _ = run(tmp_path, command, config, *extra)
        assert code == 1
        assert rec["error"] == "InvalidParameters"
        assert rec["category"] == "validation"


class TestVerify:
    def test_example_passes(self, tmp_path, capsys):
        code, rec, _ = run(tmp_path, "verify", EX_CONFIG, "--window", "200")
        assert code == 0
        assert rec["all_pass"] is True
        err = capsys.readouterr().err
        assert "spectral_vs_projection: PASS" in err
        assert "characteristic_vanishes_on_gaps: PASS" in err


    def test_infinite_pattern_passes(self, tmp_path, capsys):
        config = {
            "density": {"type": "rational_ar", "alpha": [0.5]},
            "pattern": {"kind": "S3", "N": 1, "M1": 2, "M2": 1},
            "weights": {"geometric": {"C": 1.0, "rho": 0.97}},
        }
        code, rec, _ = run(tmp_path, "verify", config, "--window", "80")
        assert code == 0
        assert rec["all_pass"] is True

    @pytest.mark.parametrize("pattern", [
        {"kind": "S1", "N": 0, "M1": 1},
        {"kind": "S2", "N": 0, "M2": 1},
        {"kind": "S3", "N": 0, "M1": 1, "M2": 1},
    ], ids=["S1", "S2", "S3"])
    def test_infinite_pattern_checks_the_reported_delta(self, tmp_path, pattern):
        # verify solved again with a looser cut: its spectral Delta was within
        # 1e-12 of the one interpolate reports, not that Delta
        config = {"density": {"type": "rational_ar", "alpha": [0.5]}, "pattern": pattern,
                  "weights": {"geometric": {"C": 1.0, "rho": 0.9}}}
        code, interp, _ = run(tmp_path, "interpolate", config)
        assert code == 0
        code, rec, _ = run(tmp_path, "verify", config)
        assert code == 0 and rec["all_pass"] is True
        assert rec["checks"][0]["spectral"] == interp["delta"]

    def test_window_grows_until_the_projection_settles(self, tmp_path):
        # a tabulated MA(1) at 0.99, whose estimate reaches far from the gap:
        # a fixed window of 500 read a projection 8.2e-5 above Delta and failed
        lam = densities.angular_grid(4096)
        values = np.abs(1 - 0.99 * np.exp(-1j * lam)) ** 2
        config = {**EX_CONFIG, "density": {"type": "tabulated", "values": values.tolist()}}
        code, rec, _ = run(tmp_path, "verify", config)
        assert code == 0
        assert rec["all_pass"] is True
        assert rec["checks"][0]["window"] >= 2048

    def test_projection_past_the_supported_depth_refused(self, tmp_path):
        # a root at 0.9995 decays so slowly that the dense projection would
        # need more than 6400 indices per block: a record, not a MemoryError
        config = {
            "density": {"type": "rational_ar", "alpha": [0.9995]},
            "pattern": {"kind": "S2", "N": 0, "M2": 1},
            "weights": {"geometric": {"C": 1.0, "rho": 0.5}},
        }
        code, rec, _ = run(tmp_path, "verify", config)
        assert code == 2
        assert rec["error"] == "NotConverged"
        assert rec["diagnostics"]["depth"] > 6400

    def test_projection_past_the_supported_window_refused(self, tmp_path):
        # a tabulated MA(1) at 0.999: the projection still moves at window
        # 4096, and the next doubling passes the 6400 the oracle supports
        lam = densities.angular_grid(4096)
        values = np.abs(1 - 0.999 * np.exp(-1j * lam)) ** 2
        config = {**EX_CONFIG, "density": {"type": "tabulated", "values": values.tolist()}}
        code, rec, _ = run(tmp_path, "verify", config)
        assert code == 2
        assert rec["error"] == "NotConverged"
        assert rec["diagnostics"]["window"] > 6400

    @pytest.mark.parametrize("C", [0.0, 1.0])
    def test_tiny_covariances_pass(self, tmp_path, C):
        # covariances near 3e-162: the projection's inverse Toeplitz overflowed
        # (a RuntimeWarning, an error here) or, with warnings ignored, its
        # window never settled (NotConverged at window 8192)
        config = {
            "density": {"type": "rational_ar", "alpha": [0.0], "sigma2": 3.224097605899893e-162},
            "pattern": {"kind": "S1", "N": 0, "M1": 1, "T": 1},
            "weights": {"geometric": {"C": C, "rho": 0.5}},
        }
        code, rec, _ = run(tmp_path, "verify", config, "--grid", "16")
        assert code == 0 and rec["all_pass"] is True
        check = rec["checks"][0]
        assert check["spectral"] == pytest.approx(check["projection"], rel=1e-12, abs=0)

    def test_tiny_weight_norm_does_not_underflow(self, tmp_path, capsys):
        # |a|^2 = 7e-514 underflows to 0, so the unscaled norm failed the check
        config = {
            "density": {"type": "rational_ar", "alpha": [0.5]},
            "pattern": {"kind": "S1", "N": 0, "M1": 1},
            "weights": {"values": {"-2": [0, 2.7e-257]}},
        }
        code, rec, _ = run(tmp_path, "verify", config)
        assert code == 0
        assert "characteristic_vanishes_on_gaps: PASS" in capsys.readouterr().err


class TestSimulate:
    def test_non_causal_ar(self, tmp_path):
        # alpha = 2 ran the explosive recursion: empirical_mse 2.15e116, z = 17.6
        config = {**EX_CONFIG, "density": {"type": "rational_ar", "alpha": [2.0]},
                  "weights": {"values": {"0": 0.1, "1": 1, "-3": 0.1, "-4": 0.1, "-5": 0.1}}}
        code, rec, _ = run(tmp_path, "simulate", config, "--replicates", "2000", "--seed", "7")
        assert code == 0
        assert math.isfinite(rec["empirical_mse"])
        assert abs(rec["z_score"]) <= 5.0

    def test_complex_weights(self, tmp_path):
        # the empirical error of the complex functional against its delta
        config = {**EX_CONFIG, "weights": {"values": {"0": [1, 0.5], "1": 1, "-3": [0, -1],
                                                      "-4": 0.3}}}
        code, rec, _ = run(tmp_path, "simulate", config, "--replicates", "2000")
        assert code == 0
        assert abs(rec["z_score"]) <= 5.0

    def test_tiny_imaginary_weight(self, tmp_path):
        # taking the real part left an empirical error of exactly 0
        config = {**EX_CONFIG, "weights": {"values": {"-3": [0, 1.2e-38]}}}
        code, rec, _ = run(tmp_path, "simulate", config, "--replicates", "2000")
        assert code == 0
        assert math.isfinite(rec["z_score"]) and rec["empirical_mse"] > 0

    def test_tiny_weight_keeps_its_estimate(self, tmp_path):
        # an absolute cut-off on h dropped every weight of the estimate, so the
        # naive error (z = 7.25) was compared with the optimal one
        config = {**EX_CONFIG, "weights": {"values": {"-3": [0, 1.2e-38]}}}
        code, rec, _ = run(tmp_path, "simulate", config, "--replicates", "2000")
        assert code == 0
        assert abs(rec["z_score"]) <= 5.0

    def test_z_score_small(self, tmp_path):
        code, rec, _ = run(tmp_path, "simulate", EX_CONFIG, "--replicates", "20000")
        assert code == 0
        assert abs(rec["z_score"]) < 4.0
        assert rec["n_replicates"] == 20000

    @pytest.mark.parametrize("pattern", [
        {"kind": "S1", "N": 0, "M1": 1},
        {"kind": "S2", "N": 0, "M2": 1},
        {"kind": "S3", "N": 0, "M1": 1, "M2": 1},
    ], ids=["S1", "S2", "S3"])
    def test_infinite_pattern_answers_the_infinite_problem(self, tmp_path, pattern):
        # simulate solved the config's own cut T = 1: theoretical_mse 1.32488
        # on S1, where interpolate and verify give 12.2154
        config = {"density": {"type": "rational_ar", "alpha": [0.5]}, "pattern": pattern,
                  "weights": {"geometric": {"C": 1.0, "rho": 0.9}}}
        code, interp, _ = run(tmp_path, "interpolate", config)
        assert code == 0
        code, rec, _ = run(tmp_path, "simulate", config, "--replicates", "4000")
        assert code == 0
        assert rec["theoretical_mse"] == interp["delta"]
        assert abs(rec["z_score"]) <= 4.0

    @pytest.mark.parametrize("density", [
        {"type": "rational_ar", "alpha": [0.0]},
        {"type": "tabulated", "values": [1.0] * 64},
    ], ids=["white_noise", "constant_table"])
    def test_single_target_with_empty_estimate(self, tmp_path, density):
        # white noise: K = {0} is estimated by 0, and min(*idx, *est) was
        # min(0), a TypeError traceback with no record written
        config = {"density": density, "pattern": {"kind": "S4", "N": 0, "M1": 1, "N1": 0},
                  "weights": {"values": {"0": 1}}}
        code, rec, out_dir = run(tmp_path, "simulate", config, "--replicates", "50",
                                 "--format", "both")
        assert code == 0
        assert abs(rec["theoretical_mse"] - 1.0) <= 1e-12
        assert abs(rec["z_score"]) <= 5.0
        header = (out_dir / "paths.csv").read_text().splitlines()[0].split(",")
        assert header == ["replicate", "t0"]

    def test_zero_weights(self, tmp_path):
        # every replicate estimates 0 by 0 exactly: stderr 0 and equal errors
        config = {**EX_CONFIG, "pattern": {"kind": "S4", "N": 0, "M1": 1, "N1": 1},
                  "weights": {"values": {"0": 0, "-2": 0}}}
        code, rec, _ = run(tmp_path, "simulate", config, "--replicates", "50")
        assert code == 0
        assert rec["stderr"] == 0.0 and rec["empirical_mse"] == rec["theoretical_mse"] == 0.0
        assert rec["z_score"] == 0.0

    def test_zero_stderr_with_unequal_errors_is_numerical_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.oracle, "empirical_mse",
                            lambda *args, **kwargs: {"mean": 1.0, "stderr": 0.0, "n_replicates": 50})
        code, rec, _ = run(tmp_path, "simulate", EX_CONFIG, "--replicates", "50")
        assert code == 2
        assert rec["error"] == "NonFiniteValue"

    def test_paths_artifact(self, tmp_path):
        code, rec, out_dir = run(tmp_path, "simulate", EX_CONFIG,
                                 "--replicates", "50", "--format", "both")
        assert code == 0
        lines = (out_dir / "paths.csv").read_text().splitlines()
        assert len(lines) == 51  # header plus capped dump

    def test_paths_span_the_target_and_its_estimate(self, tmp_path):
        # AR(1) on S6: K and the observations within one lag of it, t-6..t7
        pattern = {"kind": "S6", "N": 1, "M1": 2, "N1": 3, "M2": 2, "N2": 3}
        config = {**EX_CONFIG, "pattern": pattern,
                  "weights": {"values": {str(j): 1 for j in (-5, -4, -3, 0, 1, 4, 5, 6)}}}
        code, rec, out_dir = run(tmp_path, "simulate", config, "--replicates", "50",
                                 "--format", "both")
        assert code == 0
        header = (out_dir / "paths.csv").read_text().splitlines()[0].split(",")
        assert header == ["replicate"] + [f"t{t}" for t in range(-6, 8)]

    def test_window_does_not_cut_the_estimate(self, tmp_path):
        # a tabulated MA(1), whose h reaches lags -69..65: --window 10 kept
        # only |j| <= 10 of it, which read z = 27.6 against Delta = 0.2498
        lam = densities.angular_grid(4096)
        values = np.abs(1 - 0.9 * np.exp(-1j * lam)) ** 2
        config = {**EX_CONFIG, "density": {"type": "tabulated", "values": values.tolist()}}
        records = []
        for window in ("10", "500"):
            (tmp_path / window).mkdir()
            code, rec, _ = run(tmp_path / window, "simulate", config, "--window", window,
                               "--replicates", "4000", "--seed", "3")
            assert code == 0
            records.append(rec)
        assert records[0] == records[1]  # simulate reads no window
        assert abs(rec["theoretical_mse"] - 0.2497802197802) < 1e-12
        assert abs(rec["z_score"]) <= 5.0

    @pytest.mark.parametrize("replicates", ["1", "0"])
    def test_too_few_replicates_refused(self, tmp_path, monkeypatch, replicates):
        # one replicate has an infinite standard error: refused before simulating
        monkeypatch.setattr(oracle, "simulate_chunks", None)
        code, rec, _ = run(tmp_path, "simulate", EX_CONFIG, "--replicates", replicates)
        assert code == 1
        assert rec["error"] == "InvalidParameters" and rec["category"] == "validation"

    def test_record_and_paths_do_not_depend_on_the_chunks(self, tmp_path, monkeypatch):
        config = {**EX_CONFIG, "weights": {"values": {"0": [1, 0.5], "1": 1, "-3": [0, -1],
                                                      "-4": 0.3}}}
        written = []
        # 7 paths of t-6..t2 per chunk, then one draw
        for label, chunk in (("default", None), ("rows", 7 * 9), ("one", 1)):
            if chunk is not None:
                monkeypatch.setattr(oracle, "CHUNK_VALUES", chunk)
            (tmp_path / label).mkdir()
            code, rec, out_dir = run(tmp_path / label, "simulate", config, "--replicates", "300",
                                     "--format", "both")
            assert code == 0
            written.append((rec, (out_dir / "paths.csv").read_bytes()))
        assert written[0] == written[1] == written[2]
        assert written[0][1].count(b"\r\n") == 101  # header and the first 100 paths

    def test_memory_bounded_by_the_chunk(self, tmp_path):
        # an S3 cut: the 20000 paths of t-495..t495 alone would take 159 MB
        config = {"density": {"type": "rational_ar", "alpha": [0.5]},
                  "pattern": {"kind": "S3", "N": 0, "M1": 1, "M2": 1},
                  "weights": {"geometric": {"C": 1.0, "rho": 0.97}}}
        tracemalloc.start()
        try:
            code, rec, out_dir = run(tmp_path, "simulate", config, "--replicates", "20000",
                                     "--format", "both")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and rec["n_replicates"] == 20000
        width = len((out_dir / "paths.csv").read_text().splitlines()[0].split(",")) - 1
        assert 20000 * width * 8 > 64 << 20  # so the bound below means something
        assert peak < 64 << 20

    def test_no_scipy_signal_import(self, tmp_path):
        # a fresh interpreter: scipy.signal (and scipy.stats, which it pulls
        # in) cost more start-up than the rest of the package
        config = write_config(tmp_path, EX_CONFIG)
        script = ("import json, sys\n"
                  "from gapinterp import cli\n"
                  "code = cli.main(['simulate', sys.argv[1], '--replicates', '50', "
                  "'--out', sys.argv[2]])\n"
                  "print(json.dumps([code, sorted(m for m in sys.modules\n"
                  "    if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'stats']))]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script, config, str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == [0, []]


def per_index_writer(path, header, *columns):
    """A row-wise CSV writer: csv.writer over rows built by indexing each numpy
    column per row, each value formatted by str (a numpy float's str is the
    shortest repr of the float)."""
    rows = ([str(col[i]) for col in columns] for i in range(len(columns[0])))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


COMPLEX_CONFIG = {
    "density": {"type": "rational_ar", "alpha": [[0.3, 0.4], -0.2]},
    "pattern": {"kind": "S6", "N": 1, "M1": 2, "N1": 2, "M2": 1, "N2": 3},
    "weights": {"values": {"0": [1, 0.5], "1": 1, "-3": [0, -1], "4": 0.3}},
}


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        _, _, out_dir = run(tmp_path, "simulate", EX_CONFIG,
                            "--replicates", "500", "--seed", "3")
        first = (out_dir / "result.json").read_bytes()
        _, _, out_dir = run(tmp_path, "simulate", EX_CONFIG,
                            "--replicates", "500", "--seed", "3")
        assert (out_dir / "result.json").read_bytes() == first

    def test_no_partial_artifacts(self, tmp_path):
        _, _, out_dir = run(tmp_path, "interpolate", EX_CONFIG,
                            "--format", "both")
        leftovers = [p for p in os.listdir(out_dir) if p.endswith(".tmp")]
        assert leftovers == []

    @pytest.mark.parametrize("command, config, extra, name", [
        ("interpolate", EX_CONFIG, (), "characteristic.csv"),
        ("interpolate", COMPLEX_CONFIG, ("--grid", "1024"), "characteristic.csv"),
        ("least-favourable", LF_CONFIG, ("--samples", "5"), "least_favourable.csv"),
        ("least-favourable", {**LF_CONFIG, "class": {"type": "dw", "b": [1.25, -0.5, 0.0]}},
         ("--samples", "5"), "least_favourable.csv"),
    ])
    def test_csv_bytes_match_per_index_rows(self, tmp_path, monkeypatch, command, config,
                                            extra, name):
        written = {}
        for label in ("columns", "per_index"):
            if label == "per_index":
                monkeypatch.setattr(cli, "write_csv", per_index_writer)
            (tmp_path / label).mkdir()
            code, _, out_dir = run(tmp_path / label, command, config, "--format", "both", *extra)
            assert code == 0
            written[label] = (out_dir / name).read_bytes()
        assert written["columns"] == written["per_index"]

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        header = ["replicate", "t-1", "t0", "t1", "t2"]
        # Python numbers: csv.writer formats a float subclass by its repr,
        # which for a numpy float on numpy 2 is not the float's
        rows = [[0, -0.0, 5e-324, 1e-300, 1.7976931348623157e308],
                [1, -1.5e-7, 0.1, -2.0, float("inf")],
                [12, 1e16, 123456789.0, 2.5e-308, 3.0]]
        cli.write_csv(str(tmp_path / "paths.csv"), header, *map(np.array, zip(*rows)))
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(rows)
        assert (tmp_path / "paths.csv").read_bytes() == expected.getvalue().encode()

    def test_cached_parser_gives_each_call_its_arguments(self, tmp_path):
        calls = {"grid": ("--grid", "1024", "--format", "both"), "default": ()}

        def call(label, extra):
            (tmp_path / label).mkdir()
            _, rec, out_dir = run(tmp_path / label, "interpolate", COMPLEX_CONFIG, *extra)
            return rec, sorted(os.listdir(out_dir)), [
                len((out_dir / name).read_text().splitlines()) for name in sorted(os.listdir(out_dir))]

        alone = {}
        for label, extra in calls.items():
            cli.build_parser.cache_clear()
            alone[label] = call(f"alone_{label}", extra)
        in_turn = {label: call(f"turn_{label}", extra) for label, extra in calls.items()}
        assert in_turn == alone
        assert alone["grid"][1] == ["characteristic.csv", "result.json"]
        assert alone["grid"][2][0] == 1025
        assert alone["default"][1] == ["result.json"]
        assert cli.build_parser() is cli.build_parser()

    def test_stdout_json_when_no_out(self, tmp_path, capsys):
        code = cli.main(["interpolate", write_config(tmp_path, EX_CONFIG)])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert abs(rec["delta"] - 412 / 51) < 1e-9
