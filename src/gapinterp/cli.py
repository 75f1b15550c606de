"""Command-line front end: JSON configs in, JSON/CSV artifacts out.

Exit codes: 0 success, 1 validation error (bad parameters, supports, grids,
infeasible classes), 2 numerical failure (non-convergence, lost positivity,
singular systems). The record is strict JSON, with no NaN or infinity, and
always carries an "error" field naming the failure category when one occurs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import densities, interpolate, minimax, oracle, patterns
from .errors import GapInterpError, NotConverged, NumericalError, ValidationError

# `verify` cuts S1-S3 where the cut moves the error by about this much
VERIFY_RTOL = 1e-12


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _complex_in(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError("complex values are [re, im] pairs")
        return complex(float(value[0]), float(value[1]))
    return complex(float(value))


def _complex_out(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def parse_density(spec: dict) -> densities.SpectralDensity:
    kind = spec.get("type")
    if kind == "rational_ar":
        alpha = [_complex_in(v) for v in spec["alpha"]]
        return densities.RationalAR(alpha=np.array(alpha), sigma2=float(spec.get("sigma2", 1.0)))
    if kind == "inverse_poly":
        entries = {int(m): _complex_in(v) for m, v in spec["coeffs"].items()}
        return densities.InversePolynomial(
            densities.FourierCoeffs.from_dict(entries).symmetrized()
        )
    if kind == "tabulated":
        return densities.Tabulated(np.asarray(spec["values"], dtype=float))
    raise ValidationError(f"unknown density type {kind!r}")


def parse_pattern(spec: dict) -> patterns.ObservationPattern:
    return patterns.ObservationPattern(
        kind=spec["kind"],
        N=int(spec.get("N", 0)),
        M1=int(spec["M1"]) if "M1" in spec else None,
        M2=int(spec["M2"]) if "M2" in spec else None,
        N1=int(spec["N1"]) if "N1" in spec else None,
        N2=int(spec["N2"]) if "N2" in spec else None,
        T=int(spec["T"]) if "T" in spec else None,
    )


def parse_weights(spec: dict) -> patterns.FunctionalWeights:
    if "values" in spec:
        values = {int(j): _complex_in(v) for j, v in spec["values"].items()}
        return patterns.FunctionalWeights(values=values)
    if "geometric" in spec:
        g = spec["geometric"]
        return patterns.FunctionalWeights(geometric=(float(g["C"]), float(g["rho"])))
    raise ValidationError("weights need either 'values' or 'geometric'")


def parse_class(spec: dict):
    kind = spec.get("type")
    if kind == "d0minus":
        return minimax.D0Minus(p=float(spec["p"]))
    if kind == "dw":
        return minimax.DW(b_given=np.asarray(spec["b"], dtype=float))
    if kind == "dvu":
        return minimax.DVU(
            v=parse_density(spec["v"]), u=parse_density(spec["u"]), p=float(spec["p"])
        )
    raise ValidationError(f"unknown uncertainty class {kind!r}")


SECTIONS = {
    "density": parse_density,
    "pattern": parse_pattern,
    "weights": parse_weights,
    "class": parse_class,
}


def parse_config(config: dict, *names) -> list:
    """Parse the named config sections. A missing key, a value of the wrong
    type or an unparsable scalar is a ValidationError."""
    try:
        return [SECTIONS[name](config[name]) for name in names]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"invalid config: {type(exc).__name__}: {exc}") from exc


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | None, record: dict) -> None:
    """Write the record as strict JSON; a NaN or infinity raises ValueError."""
    text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    if path is None:
        print(text)
    else:
        _atomic_write(path, text + "\n")


def write_csv(path: str, header: list, rows) -> None:
    """Write the header and rows of numbers as csv.writer's default dialect
    would: comma-separated str() of each value (the shortest repr of a float,
    numpy scalars included), lines ending in CRLF."""
    fmt = ",".join(["%s"] * len(header))
    lines = [",".join(header), *(fmt % tuple(row) for row in rows), ""]
    _atomic_write(path, "\r\n".join(lines))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_minimality(config: dict, args) -> dict:
    (f,) = parse_config(config, "density")
    value = densities.minimality_value(f, grid_size=args.grid)
    return {"value": value, "minimal": bool(np.isfinite(value))}


def _grid_csv_rows(grid_size, *columns):
    lam = densities.angular_grid(grid_size)
    return zip(lam.tolist(), *(col.tolist() for col in columns))


def cmd_interpolate(config: dict, args) -> dict:
    f, pattern, weights = parse_config(config, "density", "pattern", "weights")
    if pattern.is_infinite:
        sol = interpolate.solve_truncated(pattern, weights, f, grid_size=args.grid)
    else:
        sol = interpolate.solve(pattern, weights, f, grid_size=args.grid)
    record = {
        "indices": list(sol.indices),
        "c": [_complex_out(v) for v in sol.c],
        "delta": sol.delta,
        "convergence": sol.convergence,
    }
    if args.out and args.format in ("csv", "both"):
        write_csv(
            os.path.join(args.out, "characteristic.csv"),
            ["lambda", "h_re", "h_im"],
            _grid_csv_rows(sol.grid_size, sol.h_grid.real, sol.h_grid.imag),
        )
    return record


def cmd_least_favourable(config: dict, args) -> dict:
    f_pattern, weights, cls = parse_config(config, "pattern", "weights", "class")
    if isinstance(cls, minimax.D0Minus):
        result = minimax.lf_d0minus(f_pattern, weights, cls, grid_size=args.grid)
    elif isinstance(cls, minimax.DW):
        result = minimax.lf_dW(f_pattern, weights, cls, grid_size=args.grid)
    else:
        result = minimax.lf_dvu(f_pattern, weights, cls, grid_size=args.grid, seed=args.seed)
    # saddle_check refuses a closed_form_invalid result with PositivityLost
    report = minimax.saddle_check(result, f_pattern, weights, cls,
                                  n_samples=args.samples, seed=args.seed)
    record = {
        "b0": {str(m): _complex_out(result.b0[m])
               for m in range(-result.b0.half_length, result.b0.half_length + 1)
               if abs(result.b0[m]) > 0.0},
        "delta0": result.delta0,
        "validity": result.validity,
        "lagrange": {k: v for k, v in result.lagrange.items()
                     if isinstance(v, (int, float, str, list))},
        "mechanism": result.mechanism,
        "saddle_report": report,
    }
    if args.out and args.format in ("csv", "both"):
        f0_vals = result.f0.on_grid(result.grid_size)
        write_csv(
            os.path.join(args.out, "least_favourable.csv"),
            ["lambda", "f0", "h0_re", "h0_im"],
            _grid_csv_rows(result.grid_size, f0_vals,
                           result.h0_grid.real, result.h0_grid.imag),
        )
    return record


def cmd_verify(config: dict, args) -> dict:
    f, pattern, weights = parse_config(config, "density", "pattern", "weights")
    if pattern.is_infinite:
        # the projection is dense in |K|, so the blocks are cut where the cut
        # moves Delta by about VERIFY_RTOL, far inside the check's 1e-6; the
        # cut solution's h vanishes on its own K, and the projection observes
        # everything past it
        sol = interpolate.solve_truncated(pattern, weights, f, grid_size=args.grid,
                                          rtol=VERIFY_RTOL)
        depth = sol.convergence["depth"]
        if depth > interpolate.TRUNCATION_SCHEDULE[-1]:
            raise NotConverged(f"the projection would need depth {depth}, past the "
                               f"{interpolate.TRUNCATION_SCHEDULE[-1]} it supports",
                               diagnostics={"depth": depth})
        pattern = pattern.with_truncation(depth)
    else:
        sol = interpolate.solve(pattern, weights, f, grid_size=args.grid)
    window = args.window
    tp = oracle.build_problem(pattern, weights, f, window=window)
    proj = oracle.project(tp)
    rel = abs(sol.delta - proj["mse"]) / max(abs(proj["mse"]), 1e-300)
    checks = [
        {"name": "spectral_vs_projection", "spectral": sol.delta,
         "projection": proj["mse"], "relative_error": rel, "pass": bool(rel < 1e-6)},
    ]
    gap_cap = max(abs(sol.h_coeffs.get(j, 0.0)) for j in sol.indices)
    top = float(np.max(np.abs(sol.a)))
    norm_a = top * float(np.linalg.norm(sol.a / top)) if top > 0 else 0.0  # no underflow
    checks.append({
        "name": "characteristic_vanishes_on_gaps",
        "max_gap_coefficient": gap_cap,
        "pass": bool(gap_cap <= 1e-8 * norm_a),
    })
    for row in checks:
        print(f"{row['name']}: {'PASS' if row['pass'] else 'FAIL'}", file=sys.stderr)
    return {"checks": checks, "all_pass": all(r["pass"] for r in checks)}


def cmd_simulate(config: dict, args) -> dict:
    f, pattern, weights = parse_config(config, "density", "pattern", "weights")
    sol = interpolate.solve(pattern, weights, f, grid_size=args.grid)
    est = oracle.estimate_weights_from_characteristic(sol, window=args.window)
    idx = patterns.missing_indices(pattern)
    margin = max(abs(min(idx)), abs(max(idx))) + args.window
    length = 2 * margin + 1
    paths = oracle.simulate(f, length=length, n_replicates=args.replicates, seed=args.seed)
    # the complex functional, whose error sol.delta is
    target = dict(zip(idx, patterns.weight_vector(weights, pattern)))
    em = oracle.empirical_mse(paths, est, target, origin=margin)
    gap = em["mean"] - sol.delta
    if em["stderr"] > 0:
        z_score = gap / em["stderr"]
    else:  # every replicate has the same error: equal errors agree, others cannot
        z_score = 0.0 if gap == 0.0 else math.copysign(math.inf, gap)  # a NonFiniteValue record
    record = {
        "empirical_mse": em["mean"],
        "stderr": em["stderr"],
        "n_replicates": em["n_replicates"],
        "theoretical_mse": sol.delta,
        "z_score": z_score,
    }
    if args.out and args.format in ("csv", "both"):
        n_dump = min(paths.shape[0], 100)
        write_csv(
            os.path.join(args.out, "paths.csv"),
            ["replicate"] + [f"t{t - margin}" for t in range(length)],
            [[r] + paths[r].tolist() for r in range(n_dump)],
        )
    return record


COMMANDS = {
    "minimality": cmd_minimality,
    "interpolate": cmd_interpolate,
    "least-favourable": cmd_least_favourable,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="gapinterp",
        description="Optimal and minimax-robust interpolation of stationary "
                    "sequences observed outside structured gap sets.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument("--grid", type=int, default=densities.DEFAULT_GRID)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="directory for artifacts")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="json")
    parser.add_argument("--window", type=int, default=500)
    parser.add_argument("--replicates", type=int, default=10000)
    parser.add_argument("--samples", type=int, default=100)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        record = COMMANDS[args.command](config, args)
        status = 0
    except ValidationError as exc:
        record = {"error": type(exc).__name__, "message": str(exc), "category": "validation"}
        status = 1
    except NumericalError as exc:
        record = {"error": type(exc).__name__, "message": str(exc), "category": "numerical"}
        record["diagnostics"] = {
            k: v for k, v in exc.diagnostics.items()
            if isinstance(v, (int, float, str, bool, list))
        }
        status = 2
    except GapInterpError as exc:
        record = {"error": type(exc).__name__, "message": str(exc), "category": "other"}
        status = 2
    out_path = os.path.join(args.out, "result.json") if args.out else None
    if out_path and args.format == "csv":
        out_path = None
    try:
        write_json(out_path, record)
    except ValueError as exc:
        write_json(out_path, {"error": "NonFiniteValue", "category": "numerical",
                              "message": f"the record holds a NaN or infinity: {exc}"})
        status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
