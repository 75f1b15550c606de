"""The three workloads: generated inputs, the timed operation, and the check of
each output against a reference that does not come from the solver.

A workload is a fixed list of operations. One pass runs every operation once,
in order; a run repeats passes until its time is up, so every run covers whole
passes and the mix of operations is the same in every run. The seed draws the
parameters of every operation; a second seed gives other inputs with the same
mix. In `finite_batch` and `long_gap` pass p multiplies every density by
1 + p/8, which keeps the problems of different passes distinct (nothing can be
served from a cache keyed on the inputs) while the references scale exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

GRID = 4096
REL_TOL = 1e-8        # solver vs reference, finite problems and CLI records
TRUNC_TOL = 1e-7      # truncated infinite problems vs a deeper projection
GAP_TOL = 1e-8        # |h(j)| for j in K, relative to ||a||_2
Z_MAX = 5.0           # Monte Carlo z-score accepted by the simulate checks
CHEAP_CHECKS = ("interpolate", "minimality")
CHEAP_REPEATS = 4
DVU_TIGHT_WEIGHTS_SEED = 7    # fixed weights of cli/least-favourable/dvu_tight

# Defects present in gapinterp 0.1.0. These operations stay in the mix and are
# counted as attempted but not ok; a fix shows up as a rise in ok_frac. Any
# other failure, or one of these failing in another way, is a failure of the
# run.
KNOWN_DEFECTS = {
    # the fixed truncation schedule stops at T=400, short of a plateau
    "solve_truncated/S1/rho=0.97": "NotConverged",
    "solve_truncated/S2/rho=0.97": "NotConverged",
    "solve_truncated/S3/rho=0.97": "NotConverged",
    # the README example writes "delta0": NaN, which is not JSON
    "cli/least-favourable/readme_d0minus": "strict_json",
    # a config without a required key escapes as a traceback, no record
    "cli/interpolate/missing_key": "KeyError",
    # lf_d0minus asserts b0(0) == p exactly, but b0(0) is computed as
    # p * a(n*) / a(n*), which differs from p in the last bit for some draws
    "cli/least-favourable/d0minus_rounding": "AssertionError",
}


def pass_scale(p: int) -> float:
    return 1.0 + p / 8.0


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _ar1(rng, complex_alpha: bool) -> dict:
    r = rng.uniform(0.1, 0.8)
    alpha = r * np.exp(1j * rng.uniform(0, 2 * np.pi)) if complex_alpha else r * rng.choice([-1, 1])
    return {"type": "ar", "alpha": [complex(alpha)], "sigma2": float(rng.uniform(0.5, 2.0))}


def _ar2(rng) -> dict:
    if rng.uniform() < 0.5:
        r1, r2 = rng.uniform(-0.8, 0.8, size=2)
    else:
        r1 = rng.uniform(0.2, 0.8) * np.exp(1j * rng.uniform(0.3, 2.8))
        r2 = np.conj(r1)
    alpha = [complex(r1 + r2).real, complex(-r1 * r2).real]
    return {"type": "ar", "alpha": [complex(a) for a in alpha], "sigma2": float(rng.uniform(0.5, 2.0))}


def _invpoly(rng, complex_coeffs: bool) -> dict:
    """1/f = |gamma(e^{-il})|^2 / s with gamma's roots outside the unit disc."""
    q = int(rng.integers(1, 4))
    radii = rng.uniform(0.1, 0.7, size=q)
    if complex_coeffs:
        zeros = radii * np.exp(1j * rng.uniform(0, 2 * np.pi, size=q))
    else:
        zeros = radii * rng.choice([-1, 1], size=q)
    gamma = np.array([1.0 + 0j])
    for z in zeros:
        gamma = np.convolve(gamma, [1.0, -z])
    s = rng.uniform(0.5, 2.0)
    b = {}
    for m in range(-q, q + 1):
        b[m] = complex(sum(gamma[j] * np.conj(gamma[j + m])
                           for j in range(q + 1) if 0 <= j + m <= q) / s)
    return {"type": "invpoly", "b": b}


def _density(rng, dtype: str) -> dict:
    if dtype == "ar1_real":
        return _ar1(rng, False)
    if dtype == "ar1_complex":
        return _ar1(rng, True)
    if dtype == "ar2":
        return _ar2(rng)
    if dtype == "invpoly":
        return _invpoly(rng, complex_coeffs=bool(rng.uniform() < 0.5))
    if dtype == "tabulated":
        return {"type": "tabulated", "of": _ar2(rng) if rng.uniform() < 0.5 else _ar1(rng, False)}
    raise ValueError(dtype)


def _finite_pattern(rng, kind: str, max_side: int = 10) -> dict:
    pat = {"kind": kind, "N": int(rng.integers(0, 6))}
    if kind in ("S4", "S6"):
        pat["M1"] = int(rng.integers(1, 7))
        pat["N1"] = int(rng.integers(1, max_side + 1))
    if kind in ("S5", "S6"):
        pat["M2"] = int(rng.integers(1, 7))
        pat["N2"] = int(rng.integers(1, max_side + 1))
    return pat


def _weights(rng, missing, complex_weights: bool) -> dict:
    re = rng.uniform(0.2, 2.0, size=len(missing))
    im = rng.uniform(-1.0, 1.0, size=len(missing)) if complex_weights else np.zeros(len(missing))
    return {j: complex(x, y) for j, x, y in zip(missing, re, im)}


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def digest(specs) -> str:
    text = json.dumps(_jsonable(specs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# gapinterp objects from specs (the timed part of library operations)
# ---------------------------------------------------------------------------

def _density_args(spec: dict, scale: float, tab_cache: dict, key) -> tuple:
    """Numeric constructor arguments of the density scale * f (untimed)."""
    kind = spec["type"]
    if kind == "ar":
        return ("ar", np.array(spec["alpha"], dtype=complex), spec["sigma2"] * scale)
    if kind == "invpoly":
        q = max(abs(m) for m in spec["b"])
        return ("invpoly", np.array([spec["b"][m] for m in range(-q, q + 1)]) / scale)
    if kind == "tabulated":
        if key not in tab_cache:
            tab_cache[key] = ref.density_values(spec["of"], GRID)
        return ("tabulated", tab_cache[key] * scale)
    raise ValueError(kind)


def _build_density(gi, args):
    kind = args[0]
    if kind == "ar":
        return gi.densities.RationalAR(alpha=args[1], sigma2=args[2])
    if kind == "invpoly":
        return gi.densities.InversePolynomial(gi.densities.FourierCoeffs(args[1]))
    return gi.densities.Tabulated(args[1])


def _gap_failure(sol) -> str | None:
    norm_a = float(np.sqrt(np.sum(np.abs(sol.a) ** 2)))
    worst = max(abs(sol.h_coeffs.get(j, 0.0)) for j in sol.indices)
    return None if worst <= GAP_TOL * norm_a else "h_on_gaps"


def _compare(value, expected, tol) -> tuple[str | None, float]:
    if value is None or not math.isfinite(value):
        return "nan", math.inf
    rel = abs(value - expected) / max(abs(expected), 1e-300)
    return (None if rel <= tol else "reference"), rel


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """specs: one dict per operation of a pass; refs: one reference each."""

    name = ""
    stream = 0
    calibration = "grid"    # the host-speed kernel (calibrate.py)

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.specs = self.generate(np.random.default_rng([seed, self.stream]))
        self.digest = digest(self.specs)
        self.refs = None
        self._tab_cache = {}

    def generate(self, rng) -> list:
        raise NotImplementedError

    def references(self) -> list:
        raise NotImplementedError

    def materialize(self) -> None:
        """Write any input files the operations read."""

    @property
    def order(self) -> list:
        """Spec indices in the order one pass runs them."""
        return list(range(len(self.specs)))

    def label(self, i: int) -> str:
        return self.specs[i]["label"]

    def warm_key(self, i: int) -> str:
        return self.label(i)

    def known_defect(self, i: int) -> str | None:
        return KNOWN_DEFECTS.get(self.label(i))


class LibraryWorkload(Workload):
    """Operations that build a density, pattern and weights and call solve or
    solve_truncated; checked against a projection or closed-form reference."""

    def prepare(self, i: int, p: int):
        spec = self.specs[i]
        return spec, _density_args(spec["density"], pass_scale(p), self._tab_cache, i)

    def run(self, gi, prepared):
        spec, dargs = prepared
        f = _build_density(gi, dargs)
        pattern = gi.patterns.ObservationPattern(**spec["pattern"])
        if spec["op"] == "solve_truncated":
            weights = gi.patterns.FunctionalWeights(geometric=spec["geometric"])
            return gi.interpolate.solve_truncated(pattern, weights, f)
        weights = gi.patterns.FunctionalWeights(values=spec["weights"])
        return gi.interpolate.solve(pattern, weights, f, grid_size=spec.get("grid", GRID))

    def check(self, i: int, p: int, sol):
        tol = TRUNC_TOL if self.specs[i]["op"] == "solve_truncated" else REL_TOL
        failure, rel = _compare(sol.delta, self.refs[i] * pass_scale(p), tol)
        return failure or _gap_failure(sol), sol.delta, rel

    def references(self) -> list:
        out = []
        for spec in self.specs:
            if spec.get("closed_form"):
                alpha = spec["density"]["alpha"][0]
                out.append(ref.ar1_closed_form(spec["pattern"]["kind"], alpha,
                                               spec["density"]["sigma2"], spec["weights"]))
            elif spec["op"] == "solve_truncated":
                out.append(_truncated_reference(spec))
            else:
                out.append(_projection_reference(spec, spec["density"]))
        return out


def _truncated_reference(spec: dict) -> float:
    """Projection error of the problem cut deep enough that the cut no longer
    matters: the error of the cut problem converges like q^T, where q is the
    larger of rho^2 (the weights) and |z|^2 for the largest root z of the AR
    polynomial (the correlation between the cut region and the gaps)."""
    c, rho = spec["geometric"]
    alpha = spec["density"]["alpha"]
    z = max(abs(np.roots([1.0] + [-complex(x) for x in alpha])))
    depth = int(math.ceil(math.log(1e-18) / math.log(max(rho, z) ** 2))) + 10
    missing = ref.truncated_missing_set(spec["pattern"], depth)
    a = np.array([c * rho ** abs(j) for j in missing])
    return ref.projection_mse(spec["density"], missing, a)


class FiniteBatch(LibraryWorkload):
    """Many small distinct finite problems (S4/S5/S6, |K| <= 26) under five
    density families, each solved at the default grid G = 4096."""

    name = "finite_batch"
    stream = 1
    n_ops = 500
    dtypes = ("ar1_real", "ar1_complex", "ar2", "invpoly", "tabulated")

    def generate(self, rng) -> list:
        specs = []
        for i in range(self.n_ops):
            dtype = self.dtypes[i % 5]
            kind = ("S4", "S5", "S6")[(i // 5) % 3]
            closed = dtype.startswith("ar1") and (i // 15) % 2 == 0
            pattern = dict(ref.CLOSED_FORM_PATTERNS[kind]) if closed else _finite_pattern(rng, kind)
            missing = ref.missing_set(pattern)
            specs.append({
                "label": f"solve/{kind}/{dtype}",
                "op": "solve",
                "pattern": pattern,
                "weights": _weights(rng, missing, complex_weights=(i // 3) % 2 == 1),
                "density": _density(rng, dtype),
                "closed_form": closed,
            })
        return specs

    def warm_key(self, i: int) -> str:
        return self.specs[i]["label"].rsplit("/", 1)[-1]


class LongGap(LibraryWorkload):
    """Few large systems: truncated S1/S2/S3 with geometric weights, and S6
    with side blocks of 398-998 points on the smallest power-of-two grid of
    at least 4 * span."""

    name = "long_gap"
    stream = 2
    calibration = "dense"
    s6_sizes = ((398, "ar2"), (598, "invpoly"), (998, "ar2"), (998, "invpoly"))

    def generate(self, rng) -> list:
        specs = []
        for kind in ("S1", "S2", "S3"):
            for rho in (0.5, 0.9, 0.97):
                pattern = {"kind": kind, "N": int(rng.integers(0, 4)), "T": 1}
                if kind in ("S1", "S3"):
                    pattern["M1"] = int(rng.integers(1, 5))
                if kind in ("S2", "S3"):
                    pattern["M2"] = int(rng.integers(1, 5))
                specs.append({
                    "label": f"solve_truncated/{kind}/rho={rho}",
                    "op": "solve_truncated",
                    "pattern": pattern,
                    "geometric": (float(rng.uniform(0.5, 2.0)), rho),
                    "density": _ar1(rng, False) if rng.uniform() < 0.5 else _ar2(rng),
                })
        for side, dtype in self.s6_sizes:
            pattern = {"kind": "S6", "N": 3, "M1": int(rng.integers(2, 9)), "N1": side,
                       "M2": int(rng.integers(2, 9)), "N2": side}
            missing = ref.missing_set(pattern)
            span = max(missing) - min(missing)
            specs.append({
                "label": f"solve/S6/n={len(missing)}/{dtype}",
                "op": "solve",
                "pattern": pattern,
                "weights": _weights(rng, missing, complex_weights=False),
                "density": _density(rng, dtype),
                "grid": 1 << int(math.ceil(math.log2(4 * span))),
            })
        return specs

    def warm_key(self, i: int) -> str:
        return self.specs[i]["op"]


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

def _cli_density(spec: dict) -> dict:
    def num(z):
        z = complex(z)
        return z.real if z.imag == 0.0 else [z.real, z.imag]

    if spec["type"] == "ar":
        return {"type": "rational_ar", "alpha": [num(a) for a in spec["alpha"]],
                "sigma2": spec["sigma2"]}
    if spec["type"] == "invpoly":
        return {"type": "inverse_poly", "coeffs": {str(m): num(b) for m, b in spec["b"].items()}}
    raise ValueError(spec["type"])


def _cli_weights(weights: dict) -> dict:
    return {"values": {str(j): complex(v).real for j, v in weights.items()}}


def _anchored_weights(rng, pattern: dict) -> dict:
    """Positive weights dominated by the anchor weight, so the anchored
    D0Minus form is a valid density: the other weights sum to less than
    half the anchor weight."""
    missing = ref.missing_set(pattern)
    star = ref.anchor(pattern, missing)
    rest = len(missing) - 1
    w = {j: float(rng.uniform(0.02, 0.3)) / max(rest, 1) for j in missing}
    w[star] = float(rng.uniform(0.8, 1.2))
    return w


README_CONFIG = {
    "density": {"type": "rational_ar", "alpha": [0.5]},
    "pattern": {"kind": "S4", "N": 1, "M1": 2, "N1": 3},
    "weights": {"values": {"0": 1, "1": 1, "-3": 1, "-4": 1, "-5": 1}},
    "class": {"type": "d0minus", "p": 1.0},
}


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


class RobustVerify(Workload):
    """The CLI subcommands as users run them, in-process through
    gapinterp.cli.main, each writing its record under --out."""

    name = "robust_verify"
    stream = 3

    def generate(self, rng) -> list:
        specs = []

        def add(label, cmd, config, check, extra=(), **info):
            specs.append({"label": f"cli/{cmd}/{label}", "cmd": cmd, "config": config,
                          "check": check, "extra": list(extra), **info})

        def small(kind, max_side=3):
            return _finite_pattern(rng, kind, max_side)

        def d0minus(label, kind, exact, check, extra=()):
            """p is drawn so that p * a(n*) / a(n*) == p holds exactly or
            fails, which decides whether lf_d0minus trips its assertion."""
            pat = small(kind)
            w = _anchored_weights(rng, pat)
            star = w[ref.anchor(pat, ref.missing_set(pat))]
            while True:
                p = float(rng.uniform(0.5, 3.0))
                if ((p * star / star) == p) == exact:
                    break
            add(label, "least-favourable",
                {"pattern": pat, "weights": _cli_weights(w), "class": {"type": "d0minus", "p": p}},
                check, ("--samples", "100", *extra), pattern=pat, weights=w, p=p)

        d0minus("d0minus_S5", "S5", True, "d0minus")
        d0minus("d0minus_S6", "S6", True, "d0minus", ("--format", "both"))
        d0minus("d0minus_rounding", "S5", False, "d0minus")

        pat = {"kind": "S5", "N": int(rng.integers(0, 2)), "M2": int(rng.integers(1, 3)),
               "N2": int(rng.integers(1, 3))}
        missing = ref.missing_set(pat)
        alpha = float(rng.uniform(0.2, 0.6))
        b_given = [1 + alpha ** 2, -alpha] + [0.0] * (max(missing) - min(missing) - 1)
        w = {j: float(rng.uniform(0.2, 2.0)) for j in missing}
        add("dw_degenerate", "least-favourable",
            {"pattern": pat, "weights": _cli_weights(w), "class": {"type": "dw", "b": b_given}},
            "dw_degenerate", pattern=pat, weights=w, b_given=b_given)

        # one far gap point: with two, some draws put the structured
        # stationary point outside the densities (PositivityLost, by design)
        pat = {"kind": "S5", "N": 0, "M2": int(rng.integers(2, 4)), "N2": 1}
        missing = ref.missing_set(pat)
        alpha = float(rng.uniform(0.3, 0.6))
        w = {j: float(rng.uniform(0.03, 0.12)) for j in missing}
        w[0] = 1.0
        add("dw_newton", "least-favourable",
            {"pattern": pat, "weights": _cli_weights(w),
             "class": {"type": "dw", "b": [1 + alpha ** 2, -alpha]}},
            "dw_newton", pattern=pat, weights=w, b_given=[1 + alpha ** 2, -alpha])

        def const(c):
            return {"type": "tabulated", "values": [c] * 512}

        pat = small("S5")
        w = _anchored_weights(rng, pat)
        add("dvu_wide", "least-favourable",
            {"pattern": pat, "weights": _cli_weights(w),
             "class": {"type": "dvu", "v": const(0.05), "u": const(20.0), "p": 1.0}},
            "dvu_wide", pattern=pat, weights=w, p=1.0)

        # a fixed problem, the same for every seed: the projected-gradient
        # cost grows steeply with the span, and over weight draws it ranges
        # from 90 to 180 ms; op_tail_ms falls on this operation
        pat = {"kind": "S6", "N": 1, "M1": 2, "N1": 2, "M2": 2, "N2": 2}
        fixed = np.random.default_rng(DVU_TIGHT_WEIGHTS_SEED)
        w = {j: float(fixed.uniform(0.2, 1.0)) for j in ref.missing_set(pat)}
        add("dvu_tight", "least-favourable",
            {"pattern": pat, "weights": _cli_weights(w),
             "class": {"type": "dvu", "v": const(0.5), "u": const(1.2), "p": 1.0}},
            "dvu_tight", ("--format", "both"), pattern=pat, weights=w, v=0.5, u=1.2, p=1.0)

        def problem(pat, dens):
            w = {j: float(rng.uniform(0.2, 2.0)) for j in ref.missing_set(pat)}
            return {"density": _cli_density(dens), "pattern": pat, "weights": _cli_weights(w)}, \
                dict(pattern=pat, weights=w, density=dens)

        # The geometries of the cheaper calls are fixed so that their cost,
        # which sets op_p50_ms, does not change with the seed.
        s4, s5, s6 = (ref.CLOSED_FORM_PATTERNS[k] for k in ("S4", "S5", "S6"))
        config, info = problem(small("S6", 4), _ar2(rng))
        add("window500", "verify", config, "verify", ("--window", "500"), **info)
        config, info = problem(s6, _ar1(rng, False))
        add("ar_recursion", "simulate", config, "simulate",
            ("--replicates", "2000", "--window", "40", "--seed", str(int(rng.integers(1 << 30)))), **info)
        # real-path simulation needs a real covariance sequence
        config, info = problem(s4, _invpoly(rng, complex_coeffs=False))
        add("circulant", "simulate", config, "simulate",
            ("--replicates", "300", "--window", "40", "--seed", str(int(rng.integers(1 << 30)))), **info)

        wider = ({"kind": "S4", "N": 2, "M1": 3, "N1": 4}, {"kind": "S5", "N": 2, "M2": 3, "N2": 4},
                 {"kind": "S6", "N": 2, "M1": 3, "N1": 4, "M2": 3, "N2": 4})
        for k, (pat, dtype) in enumerate(zip((s4, s5, s6) + wider,
                                             ("ar1_real", "ar2", "invpoly", "ar2", "invpoly", "ar1_real"))):
            config, info = problem(pat, _density(rng, dtype))
            add(f"{pat['kind']}_{dtype}_{k}", "interpolate", config, "interpolate", **info)
        for k, dtype in enumerate(("ar1_real", "ar2", "invpoly", "ar1_real", "ar2", "invpoly")):
            dens = _density(rng, dtype)
            add(f"{dtype}_{k}", "minimality", {"density": _cli_density(dens)}, "minimality",
                density=dens)

        add("readme_d0minus", "least-favourable", README_CONFIG, "readme")
        config, _ = problem(small("S4"), _ar1(rng, False))
        del config[("density", "pattern", "weights")[int(rng.integers(3))]]
        add("missing_key", "interpolate", config, "missing_key")
        return specs

    def warm_key(self, i: int) -> str:
        return self.specs[i]["cmd"]

    @property
    def order(self) -> list:
        """The 1-3 ms interpolate and minimality calls run CHEAP_REPEATS times
        per pass, so that each has more samples for its median latency than
        the number of passes; op_p50_ms falls among them."""
        heavy = [i for i, s in enumerate(self.specs) if s["check"] not in CHEAP_CHECKS]
        cheap = [i for i, s in enumerate(self.specs) if s["check"] in CHEAP_CHECKS]
        return heavy + cheap * CHEAP_REPEATS

    def _dir(self, i: int) -> Path:
        return self.workdir / "cli" / f"op{i:02d}"

    def materialize(self) -> None:
        for i, spec in enumerate(self.specs):
            (self._dir(i) / "out").mkdir(parents=True, exist_ok=True)
            (self._dir(i) / "config.json").write_text(json.dumps(spec["config"]))

    def references(self) -> list:
        out = []
        for spec in self.specs:
            kind = spec["check"]
            if kind in ("verify", "simulate", "interpolate"):
                out.append(_projection_reference(spec, spec["density"]))
            elif kind == "minimality":
                out.append(_inverse_mean(spec["density"]))
            elif kind in ("d0minus", "dvu_wide"):
                missing = ref.missing_set(spec["pattern"])
                out.append(ref.d0minus_delta(spec["pattern"], missing, spec["weights"], spec["p"]))
            elif kind == "dw_degenerate":
                given = spec["b_given"]
                b = {m: given[abs(m)] for m in range(1 - len(given), len(given))}
                out.append(_projection_reference(spec, {"type": "invpoly", "b": b}))
            else:
                out.append(None)
        return out

    def prepare(self, i: int, p: int):
        out = self._dir(i) / "out"
        for entry in out.iterdir():
            entry.unlink()
        spec = self.specs[i]
        return [spec["cmd"], str(self._dir(i) / "config.json"), "--out", str(out), *spec["extra"]]

    def run(self, gi, argv):
        with contextlib.redirect_stderr(io.StringIO()):
            return gi.cli.main(argv)

    def check(self, i: int, p: int, code):
        spec = self.specs[i]
        kind = spec["check"]
        path = self._dir(i) / "out" / "result.json"
        if not path.exists():
            return "no_record", code, math.nan
        try:
            rec = json.loads(path.read_text(), parse_constant=_reject_constant)
        except ValueError:
            return "strict_json", code, math.nan
        if kind == "missing_key":
            return (None if code == 1 and "error" in rec else "exit_code"), code, math.nan
        if kind == "readme":
            if code == 0:
                d = rec.get("delta0")
                ok = isinstance(d, (int, float)) and d > 0
                return (None if ok else "nan"), d, math.nan
            return (None if "error" in rec else "exit_code"), code, math.nan
        if code != 0:
            return "exit_code", code, math.nan
        return getattr(self, f"_check_{kind}")(spec, self.refs[i], rec, i)

    # -- per-command checks: (failure or None, value, relative error) --------

    def _check_d0minus(self, spec, expected, rec, i):
        failure, value, rel = _mechanism_and_value(rec, "closed_form", expected)
        if failure is None and not rec["saddle_report"]["all_pass"]:
            failure = "saddle"
        return failure, value, rel

    def _check_dvu_wide(self, spec, expected, rec, i):
        return _mechanism_and_value(rec, "closed_form", expected)

    def _check_dw_degenerate(self, spec, expected, rec, i):
        return _mechanism_and_value(rec, "degenerate", expected)

    def _check_dw_newton(self, spec, expected, rec, i):
        if rec.get("mechanism") != "newton":
            return "mechanism", rec.get("delta0"), math.nan
        b0 = {int(m): (complex(*v) if isinstance(v, list) else complex(v)) for m, v in rec["b0"].items()}
        given = spec["b_given"]
        if any(abs(b0.get(m, 0.0) - given[abs(m)]) > 1e-12 for m in range(1 - len(given), len(given))):
            return "moments", rec["delta0"], math.nan
        if rec["lagrange"].get("newton_residual", 1.0) > 1e-10:
            return "newton_residual", rec["delta0"], math.nan
        expected = _projection_reference(spec, {"type": "invpoly", "b": b0})
        failure, rel = _compare(rec["delta0"], expected, REL_TOL)
        return failure, rec["delta0"], rel

    def _check_dvu_tight(self, spec, expected, rec, i):
        """Bounds that hold for any maximiser that starts, as the projected
        gradient does here, from the white-noise member f = 1/p: the error is
        at least that member's, sum|a|^2 / p, and at most u * sum|a|^2; and f0
        stays within [v, u]."""
        if rec.get("mechanism") != "numerical":
            return "mechanism", rec.get("delta0"), math.nan
        d = rec["delta0"]
        mass = sum(abs(v) ** 2 for v in spec["weights"].values())
        if not (math.isfinite(d) and mass / spec["p"] * (1 - 1e-9) <= d <= spec["u"] * mass * (1 + 1e-9)):
            return "bounds", d, math.nan
        rows = (self._dir(i) / "out" / "least_favourable.csv").read_text().splitlines()[1:]
        f0 = np.array([float(r.split(",")[1]) for r in rows])
        if f0.min() < spec["v"] * (1 - 1e-9) or f0.max() > spec["u"] * (1 + 1e-9):
            return "bounds", d, math.nan
        return None, d, math.nan

    def _check_verify(self, spec, expected, rec, i):
        if not rec.get("all_pass"):
            return "all_pass", math.nan, math.nan
        value = rec["checks"][0]["spectral"]
        failure, rel = _compare(value, expected, REL_TOL)
        return failure, value, rel

    def _check_simulate(self, spec, expected, rec, i):
        failure, rel = _compare(rec["theoretical_mse"], expected, REL_TOL)
        if failure is None and not abs(rec["z_score"]) <= Z_MAX:
            failure = "z_score"
        return failure, rec["empirical_mse"], rel

    def _check_interpolate(self, spec, expected, rec, i):
        failure, rel = _compare(rec["delta"], expected, REL_TOL)
        return failure, rec["delta"], rel

    def _check_minimality(self, spec, expected, rec, i):
        failure, rel = _compare(rec["value"], expected, 1e-10)
        if failure is None and rec.get("minimal") is not True:
            failure = "minimal"
        return failure, rec["value"], rel


def _projection_reference(spec: dict, density: dict) -> float:
    missing = ref.missing_set(spec["pattern"])
    return ref.projection_mse(density, missing, np.array([spec["weights"][j] for j in missing]))


def _mechanism_and_value(rec: dict, mechanism: str, expected: float):
    if rec.get("mechanism") != mechanism:
        return "mechanism", rec.get("delta0"), math.nan
    failure, rel = _compare(rec["delta0"], expected, REL_TOL)
    return failure, rec["delta0"], rel


def _inverse_mean(spec: dict) -> float:
    """(1/2pi) int 1/f = b(0), exact for these finite-order densities."""
    if spec["type"] == "ar":
        return (1.0 + sum(abs(complex(a)) ** 2 for a in spec["alpha"])) / spec["sigma2"]
    return complex(spec["b"][0]).real


WORKLOADS = {cls.name: cls for cls in (FiniteBatch, LongGap, RobustVerify)}
