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
from .errors import (
    GapInterpError,
    InvalidParameters,
    NotConverged,
    NumericalError,
    ValidationError,
)

# the deepest cut per block the dense oracles take, and the widest window verify projects on
ORACLE_MAX_DEPTH = 6400


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
        return densities.InversePolynomial(densities.FourierCoeffs.from_dict(entries))
    if kind == "tabulated":
        return densities.Tabulated(np.asarray(spec["values"], dtype=float))
    raise ValidationError(f"unknown density type {kind!r}")


def parse_pattern(spec: dict) -> patterns.ObservationPattern:
    return patterns.ObservationPattern(spec["kind"], spec.get("N", 0),
                                       **{k: spec.get(k) for k in ("M1", "M2", "N1", "N2", "T")})


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
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except FileNotFoundError:
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


def write_csv(path: str, header: list, *columns) -> None:
    """Write the header and the rows of the numpy columns as csv.writer's default
    dialect would: comma-separated, lines ending in CRLF. Each column is formatted
    whole, by repr of its .tolist(): the shortest repr of each float (on numpy 2,
    repr of a numpy float is not that)."""
    cells = [map(repr, col.tolist()) for col in columns]
    _atomic_write(path, "\r\n".join([",".join(header), *map(",".join, zip(*cells)), ""]))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_minimality(config: dict, args) -> dict:
    (f,) = parse_config(config, "density")
    value = densities.minimality_value(f, grid_size=args.grid)
    return {"value": value, "minimal": bool(np.isfinite(value))}


def _solve(f, pattern, weights, grid_size):
    """The solution `interpolate` reports and `verify` and `simulate` check."""
    solver = interpolate.solve_truncated if pattern.is_infinite else interpolate.solve
    return solver(pattern, weights, f, grid_size=grid_size)


def cmd_interpolate(config: dict, args) -> dict:
    f, pattern, weights = parse_config(config, "density", "pattern", "weights")
    sol = _solve(f, pattern, weights, args.grid)
    record = {
        "indices": list(sol.indices),
        "c": [_complex_out(v) for v in sol.c],
        "delta": sol.delta,
        "convergence": sol.convergence,
    }
    if args.out and args.format in ("csv", "both"):
        write_csv(os.path.join(args.out, "characteristic.csv"), ["lambda", "h_re", "h_im"],
                  densities.angular_grid(sol.grid_size), sol.h_grid.real, sol.h_grid.imag)
    return record


def cmd_least_favourable(config: dict, args) -> dict:
    f_pattern, weights, cls = parse_config(config, "pattern", "weights", "class")
    if f_pattern.is_infinite and f_pattern.T is None:  # the class solvers read the cut blocks
        raise InvalidParameters(f'least-favourable solves {f_pattern.kind} cut at a depth: '
                                f'add "T" to the pattern')
    if isinstance(cls, minimax.D0Minus):
        result = minimax.lf_d0minus(f_pattern, weights, cls, grid_size=args.grid)
    elif isinstance(cls, minimax.DW):
        result = minimax.lf_dW(f_pattern, weights, cls, grid_size=args.grid)
    else:
        result = minimax.lf_dvu(f_pattern, weights, cls, grid_size=args.grid)
    report = minimax.saddle_check(result, cls)
    sol = result.solution
    record = {
        "b0": {str(m): _complex_out(sol.b[m])
               for m in range(-sol.b.half_length, sol.b.half_length + 1) if abs(sol.b[m]) > 0.0},
        "delta0": sol.delta,
        "lagrange": {k: v for k, v in result.lagrange.items()
                     if isinstance(v, (int, float, str, list))},
        "mechanism": result.mechanism,
        "saddle_report": report,
    }
    if args.out and args.format in ("csv", "both"):
        write_csv(os.path.join(args.out, "least_favourable.csv"),
                  ["lambda", "f0", "h0_re", "h0_im"], densities.angular_grid(sol.grid_size),
                  sol.f.on_grid(sol.grid_size), sol.h_grid.real, sol.h_grid.imag)
    return record


def _oracle_problem(f, pattern, weights, grid_size):
    """`_solve`'s solution, which a time-domain oracle (`verify`, `simulate`) checks,
    and the pattern the oracle works on: on S1-S3, cut at the solution's own depth,
    where its h vanishes, with everything past it observed. The oracles are dense
    in |K|: a depth past ORACLE_MAX_DEPTH raises NotConverged."""
    sol = _solve(f, pattern, weights, grid_size)
    depth = sol.convergence.get("depth", 0)  # 0 for S4-S6
    if depth > ORACLE_MAX_DEPTH:
        raise NotConverged(f"the oracle would need depth {depth}, past the "
                           f"{ORACLE_MAX_DEPTH} it supports", diagnostics={"depth": depth})
    return sol, pattern.with_truncation(depth) if pattern.is_infinite else pattern


def cmd_verify(config: dict, args) -> dict:
    f, pattern, weights = parse_config(config, "density", "pattern", "weights")
    sol, pattern = _oracle_problem(f, pattern, weights, args.grid)
    # the error cannot rise with the window, which doubles from 128 until two agree to 1e-9
    window, last, mse = 64, math.nan, math.nan
    while not abs(mse - last) <= 1e-9 * abs(mse):
        window *= 2
        if window > ORACLE_MAX_DEPTH:
            raise NotConverged(f"the projection would need window {window}, past the "
                               f"{ORACLE_MAX_DEPTH} it supports", diagnostics={"window": window})
        last, mse = mse, oracle.project(oracle.build_problem(pattern, weights, f, window))["mse"]
    rel = abs(sol.delta - mse) / max(abs(mse), 1e-300)
    gap_cap = max(abs(sol.h_coeffs.get(j, 0.0)) for j in sol.indices)
    checks = [
        {"name": "spectral_vs_projection", "spectral": sol.delta, "projection": mse,
         "relative_error": rel, "window": window, "pass": bool(rel < 1e-6)},
        {"name": "characteristic_vanishes_on_gaps", "max_gap_coefficient": gap_cap,
         "pass": bool(gap_cap <= 1e-8 * interpolate.scaled_norm(sol.a))},
    ]
    for row in checks:
        print(f"{row['name']}: {'PASS' if row['pass'] else 'FAIL'}", file=sys.stderr)
    return {"checks": checks, "all_pass": all(r["pass"] for r in checks)}


def cmd_simulate(config: dict, args) -> dict:
    f, pattern, weights = parse_config(config, "density", "pattern", "weights")
    if args.replicates < 2:  # the standard error of one replicate is infinite
        raise InvalidParameters(f"simulate needs at least 2 replicates, got {args.replicates}")
    sol, _ = _oracle_problem(f, pattern, weights, args.grid)
    est = oracle.estimate_weights_from_characteristic(sol)
    idx = sol.indices
    # the paths hold exactly what A and its estimate read
    lo, hi = min([*idx, *est]), max([*idx, *est])
    chunks = oracle.simulate_chunks(f, length=hi - lo + 1, n_replicates=args.replicates,
                                    seed=args.seed)
    n_dump = 100 if args.out and args.format in ("csv", "both") else 0
    dumped = []  # the first n_dump paths, for paths.csv

    def dumping(chunks):
        for rows in chunks:
            dumped.extend(rows[:n_dump - len(dumped)].tolist())
            yield rows

    # the complex functional, whose error sol.delta is
    target = dict(zip(idx, sol.a))
    # each chunk is reduced to its errors as it is drawn: memory stays
    # O(CHUNK_VALUES + replicates)
    em = oracle.empirical_mse(dumping(chunks), est, target, origin=-lo)
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
    if n_dump:
        write_csv(os.path.join(args.out, "paths.csv"),
                  ["replicate"] + [f"t{t}" for t in range(lo, hi + 1)],
                  np.arange(len(dumped)), *np.array(dumped).T)
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
    parser.add_argument("--replicates", type=int, default=10000)
    # accepted and ignored: verify sizes its own window, saddle_check samples no members
    parser.add_argument("--window", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--samples", type=int, default=0, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # refused whether or not the command draws
            raise InvalidParameters(f"seed must be non-negative, got {args.seed}")
        config = load_config(args.config)
        record = COMMANDS[args.command](config, args)
        status = 0
    except ValidationError as exc:
        record = {"error": type(exc).__name__, "message": str(exc), "category": "validation"}
        status = 1
    except NumericalError as exc:
        record = {"error": type(exc).__name__, "message": str(exc), "category": "numerical"}
        record["diagnostics"] = {  # a bound past the float range is left out
            k: v for k, v in exc.diagnostics.items()
            if isinstance(v, (int, str, bool, list)) or isinstance(v, float) and math.isfinite(v)
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
