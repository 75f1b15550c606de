"""Command-line interface: configs, artifacts, exit codes, determinism."""

import csv
import io
import json
import math
import os

import numpy as np
import pytest

from gapinterp import cli


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

    def test_infinite_pattern(self, tmp_path):
        config = {
            "density": {"type": "rational_ar", "alpha": [0.5]},
            "pattern": {"kind": "S1", "N": 0, "M1": 1, "T": 1},
            "weights": {"geometric": {"C": 1.0, "rho": 0.5}},
        }
        code, rec, _ = run(tmp_path, "interpolate", config)
        assert code == 0
        assert rec["convergence"]["converged"] is True

    def test_slow_decay_grows_the_grid(self, tmp_path):
        # at rho = 0.99 the cut lies about 2000 indices out, so the default
        # grid of 4096 points cannot hold h; the solution doubles it
        config = {
            "density": {"type": "rational_ar", "alpha": [0.5]},
            "pattern": {"kind": "S3", "N": 2, "M1": 2, "M2": 3, "T": 1},
            "weights": {"geometric": {"C": 1.0, "rho": 0.99}},
        }
        code, rec, out_dir = run(tmp_path, "interpolate", config, "--format", "both")
        assert code == 0
        extent = max(abs(j) for j in rec["indices"])
        rows = (out_dir / "characteristic.csv").read_text().splitlines()[1:]
        assert len(rows) > 2 * extent
        assert len(rows) & (len(rows) - 1) == 0 and len(rows) >= 4096

    def test_bad_truncation_is_numerical_error(self, tmp_path):
        # a tabulated density at rho = 0.97 plateaus past T = 400, where the
        # span of K outgrows the quadrature of the 4096-point grid
        lam = -np.pi + 2 * np.pi * np.arange(4096) / 4096
        config = {
            "density": {"type": "tabulated",
                        "values": (1.0 / np.abs(1 - 0.5 * np.exp(-1j * lam)) ** 2).tolist()},
            "pattern": {"kind": "S3", "N": 0, "M1": 1, "M2": 1, "T": 1},
            "weights": {"geometric": {"C": 1.0, "rho": 0.97}},
        }
        code, rec, _ = run(tmp_path, "interpolate", config)
        assert code == 2
        assert rec["category"] == "numerical" and rec["error"] == "NotConverged"
        assert rec["diagnostics"]["schedule"] == [25, 50, 100, 200, 400]

    def test_weights_on_observed_rejected(self, tmp_path):
        config = dict(EX_CONFIG)
        config["weights"] = {"values": {"0": 1, "2": 1}}
        code, rec, _ = run(tmp_path, "interpolate", config)
        assert code == 1
        assert rec["category"] == "validation"


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


class TestFailureRecords:
    @pytest.mark.parametrize("config", [
        {k: v for k, v in EX_CONFIG.items() if k != "weights"},                 # KeyError
        {**EX_CONFIG, "density": {"type": "rational_ar", "alpha": ["half"]}},   # ValueError
        {**EX_CONFIG, "pattern": 5},                                            # TypeError
        {**EX_CONFIG, "weights": {"values": [1, 1, 1, 1, 1]}},                  # AttributeError
        [EX_CONFIG],                                                            # not an object
    ])
    def test_bad_config_is_validation_error(self, tmp_path, config):
        code, rec, _ = run(tmp_path, "interpolate", config)
        assert code == 1
        assert rec["error"] == "ValidationError"
        assert rec["category"] == "validation"

    def test_invalid_closed_form_is_numerical_error(self, tmp_path):
        config = {**EX_CONFIG, "class": {"type": "d0minus", "p": 1.0}}  # all-ones S4
        code, rec, _ = run(tmp_path, "least-favourable", config)
        assert code == 2
        assert rec["error"] == "PositivityLost"
        assert rec["category"] == "numerical"
        assert rec["diagnostics"]["inv_min"] < 0

    def test_non_finite_value_is_numerical_error(self, tmp_path, monkeypatch):
        # a command whose record holds an infinity, which JSON cannot hold
        monkeypatch.setitem(cli.COMMANDS, "least-favourable",
                            lambda config, args: {"worst_upper_excess": float("-inf")})
        code, rec, _ = run(tmp_path, "least-favourable", LF_CONFIG)
        assert code == 2
        assert rec["error"] == "NonFiniteValue"
        with pytest.raises(ValueError):
            cli.write_json(None, {"delta": float("nan")})

    def test_no_saddle_samples_is_validation_error(self, tmp_path):
        code, rec, _ = run(tmp_path, "least-favourable", LF_CONFIG, "--samples", "0")
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
            "pattern": {"kind": "S3", "N": 1, "M1": 2, "M2": 1, "T": 1},
            "weights": {"geometric": {"C": 1.0, "rho": 0.97}},
        }
        code, rec, _ = run(tmp_path, "verify", config, "--window", "80")
        assert code == 0
        assert rec["all_pass"] is True

    def test_projection_past_the_supported_depth_refused(self, tmp_path):
        # a root at 0.9995 decays so slowly that the dense projection would
        # need more than 6400 indices per block: a record, not a MemoryError
        config = {
            "density": {"type": "rational_ar", "alpha": [0.9995]},
            "pattern": {"kind": "S2", "N": 0, "M2": 1, "T": 1},
            "weights": {"geometric": {"C": 1.0, "rho": 0.5}},
        }
        code, rec, _ = run(tmp_path, "verify", config)
        assert code == 2
        assert rec["error"] == "NotConverged"
        assert rec["diagnostics"]["depth"] > 6400

    def test_tiny_weight_norm_does_not_underflow(self, tmp_path, capsys):
        # |a|^2 = 7e-514 underflows to 0, so the unscaled norm failed the check
        config = {
            "density": {"type": "rational_ar", "alpha": [0.5]},
            "pattern": {"kind": "S1", "N": 0, "M1": 1, "T": 1},
            "weights": {"values": {"-2": [0, 2.7e-257]}},
        }
        code, rec, _ = run(tmp_path, "verify", config)
        assert code == 0
        assert "characteristic_vanishes_on_gaps: PASS" in capsys.readouterr().err


class TestSimulate:
    def test_complex_weights(self, tmp_path):
        # the empirical error of the complex functional against its delta
        config = {**EX_CONFIG, "weights": {"values": {"0": [1, 0.5], "1": 1, "-3": [0, -1],
                                                      "-4": 0.3}}}
        code, rec, _ = run(tmp_path, "simulate", config, "--replicates", "2000", "--window", "40")
        assert code == 0
        assert abs(rec["z_score"]) <= 5.0

    def test_tiny_imaginary_weight(self, tmp_path):
        # taking the real part left an empirical error of exactly 0
        config = {**EX_CONFIG, "weights": {"values": {"-3": [0, 1.2e-38]}}}
        code, rec, _ = run(tmp_path, "simulate", config, "--replicates", "2000", "--window", "40")
        assert code == 0
        assert math.isfinite(rec["z_score"]) and rec["empirical_mse"] > 0

    def test_tiny_weight_keeps_its_estimate(self, tmp_path):
        # an absolute cut-off on h dropped every weight of the estimate, so the
        # naive error (z = 7.25) was compared with the optimal one
        config = {**EX_CONFIG, "weights": {"values": {"-3": [0, 1.2e-38]}}}
        code, rec, _ = run(tmp_path, "simulate", config, "--replicates", "2000", "--window", "40")
        assert code == 0
        assert abs(rec["z_score"]) <= 5.0

    def test_z_score_small(self, tmp_path):
        code, rec, _ = run(tmp_path, "simulate", EX_CONFIG,
                           "--replicates", "20000", "--window", "40")
        assert code == 0
        assert abs(rec["z_score"]) < 4.0
        assert rec["n_replicates"] == 20000

    def test_zero_weights(self, tmp_path):
        # every replicate estimates 0 by 0 exactly: stderr 0 and equal errors
        config = {**EX_CONFIG, "pattern": {"kind": "S4", "N": 0, "M1": 1, "N1": 1},
                  "weights": {"values": {"0": 0, "-2": 0}}}
        code, rec, _ = run(tmp_path, "simulate", config, "--replicates", "50", "--window", "10")
        assert code == 0
        assert rec["stderr"] == 0.0 and rec["empirical_mse"] == rec["theoretical_mse"] == 0.0
        assert rec["z_score"] == 0.0

    def test_zero_stderr_with_unequal_errors_is_numerical_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.oracle, "empirical_mse",
                            lambda *args, **kwargs: {"mean": 1.0, "stderr": 0.0, "n_replicates": 50})
        code, rec, _ = run(tmp_path, "simulate", EX_CONFIG, "--replicates", "50", "--window", "10")
        assert code == 2
        assert rec["error"] == "NonFiniteValue"

    def test_paths_artifact(self, tmp_path):
        code, rec, out_dir = run(tmp_path, "simulate", EX_CONFIG,
                                 "--replicates", "50", "--window", "10",
                                 "--format", "both")
        assert code == 0
        lines = (out_dir / "paths.csv").read_text().splitlines()
        assert len(lines) == 51  # header plus capped dump


def per_index_grid_rows(grid_size, *columns):
    """CSV rows built by indexing each numpy column per row."""
    from gapinterp import densities

    lam = densities.angular_grid(grid_size)
    return [[lam[i]] + [col[i] for col in columns] for i in range(grid_size)]


COMPLEX_CONFIG = {
    "density": {"type": "rational_ar", "alpha": [[0.3, 0.4], -0.2]},
    "pattern": {"kind": "S6", "N": 1, "M1": 2, "N1": 2, "M2": 1, "N2": 3},
    "weights": {"values": {"0": [1, 0.5], "1": 1, "-3": [0, -1], "4": 0.3}},
}


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        _, _, out_dir = run(tmp_path, "simulate", EX_CONFIG,
                            "--replicates", "500", "--window", "20",
                            "--seed", "3")
        first = (out_dir / "result.json").read_bytes()
        _, _, out_dir = run(tmp_path, "simulate", EX_CONFIG,
                            "--replicates", "500", "--window", "20",
                            "--seed", "3")
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
        for label in ("rows", "per_index"):
            if label == "per_index":
                monkeypatch.setattr(cli, "_grid_csv_rows", per_index_grid_rows)
            (tmp_path / label).mkdir()
            code, _, out_dir = run(tmp_path / label, command, config, "--format", "both", *extra)
            assert code == 0
            written[label] = (out_dir / name).read_bytes()
        assert written["rows"] == written["per_index"]

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        header = ["replicate", "t-1", "t0", "t1", "t2"]
        rows = [[0, -0.0, 5e-324, 1e-300, 1.7976931348623157e308],
                [1, np.float64(-1.5e-7), np.float64(0.1), -2.0, float("inf")],
                [12, 1e16, 123456789.0, 2.5e-308, 3]]
        cli.write_csv(str(tmp_path / "paths.csv"), header, rows)
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
