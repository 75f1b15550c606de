"""Span tracing of gapinterp from outside the package.

`Tracer.install` replaces every public function of the gapinterp modules at
every module binding that holds it (so `interpolate.build_gram` and the copy
imported as `minimax.build_gram` are both wrapped), the public methods and
constructors (`__post_init__`) of the classes each module defines, and the
functions held in module-level dispatch tables such as `cli.COMMANDS`.
`uninstall` puts every original back. Nothing is changed inside `src/`.

A span is named after the function's home module and qualified name, e.g.
`interpolate.solve` or `densities.RationalAR.on_grid`, whichever binding the
call went through. Self time is a span's duration minus the durations of the
spans it directly caused. Counters that the benchmark computes from call
arguments and results (bytes, flops, grid points, iterations) are recorded at
the same boundaries by the observers below.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

MODULES = ("patterns", "densities", "interpolate", "minimax", "oracle", "cli")


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.spans = []                      # (op, span id, parent id, name, start, end)
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)        # (parent name, child name) -> calls
        self.counts = defaultdict(float)     # computed counters
        self.by_size = defaultdict(lambda: [0, 0.0])  # (name, label) -> [calls, incl s]
        self.op = -1
        self._stack = []                     # [span id, name, child seconds]
        self._next_id = 0
        self._patches = []
        self._wrappers = {}
        self._pending_embed = 0

    # -- installation -------------------------------------------------------

    def install(self, gapinterp) -> None:
        seen_classes = set()
        for modname in MODULES:
            mod = getattr(gapinterp, modname)
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _is_own_function(val):
                    self._patch(mod, attr, self._wrap(val))
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    if val not in seen_classes:
                        seen_classes.add(val)
                        self._wrap_class(val)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if _is_own_function(item):
                            self._patch(val, key, self._wrap(item))
        for attr, val in list(vars(gapinterp).items()):
            if _is_own_function(val):
                self._patch(gapinterp, attr, self._wrap(val))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            _set(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, new) -> None:
        original = owner[key] if isinstance(owner, dict) else owner.__dict__[key]
        self._patches.append((owner, key, original))
        _set(owner, key, new)

    def _wrap_class(self, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            if inspect.isfunction(val):
                self._patch(cls, attr, self._wrap(val))
            elif isinstance(val, (classmethod, staticmethod)):
                self._patch(cls, attr, type(val)(self._wrap(val.__func__)))

    def _wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = span_name(fn)
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, name, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._close(frame, parent, start, end)
                if observe is not None:
                    observe(tracer, parent[1] if parent else None, args, kwargs, out, end - start)

        self._wrappers[fn] = traced
        return traced

    def _close(self, frame, parent, start, end) -> None:
        span_id, name, child_s = frame
        dur = end - start
        self.calls[name] += 1
        self.incl_s[name] += dur
        self.self_s[name] += dur - child_s
        if parent is not None:
            parent[2] += dur
            self.edges[(parent[1], name)] += 1
        self.spans.append((self.op, span_id, parent[0] if parent else None, name, start, end))

    # -- aggregation --------------------------------------------------------

    def sized(self, name: str, label: str, dt: float) -> None:
        """Add one call of `name` to the per-size timing table under `label`."""
        rec = self.by_size[(name, label)]
        rec[0] += 1
        rec[1] += dt

    def total(self, table, match) -> float:
        return sum(v for k, v in table.items() if match(k))


def _is_own_function(val) -> bool:
    return inspect.isfunction(val) and val.__module__.startswith("gapinterp.")


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


# ---------------------------------------------------------------------------
# observers: computed counts taken at span boundaries
# ---------------------------------------------------------------------------

def _obs_gram(t, parent, args, kwargs, out, dt):
    if out is not None:
        n = out.matrix.shape[0]
        t.counts["interpolate.gram.bytes"] += 16.0 * n * n


def _obs_solve_hermitian(t, parent, args, kwargs, out, dt):
    n = (args[0] if args else kwargs["matrix"]).shape[0]
    t.counts["interpolate.solve_hermitian.n_cubed"] += float(n ** 3)  # exact integer


def _obs_grid_coeffs(t, parent, args, kwargs, out, dt):
    values = args[0] if args else kwargs["values"]
    t.counts["densities.fft.points"] += float(len(values))


def _obs_eval_poly(t, parent, args, kwargs, out, dt):
    t.counts["densities.fft.points"] += float(args[1] if len(args) > 1 else kwargs["n"])


def _obs_solve(t, parent, args, kwargs, out, dt):
    if out is not None:
        t.sized("interpolate.solve", f"n={len(out.indices)}", dt)


def _obs_truncated(t, parent, args, kwargs, out, dt):
    pattern = args[0] if args else kwargs["pattern"]
    t.sized("interpolate.solve_truncated", pattern.kind, dt)


def _obs_numerical_lf(t, parent, args, kwargs, out, dt):
    if out is not None:
        t.counts["minimax.numerical_lf.iterations"] += out.diagnostics.get("iterations", 0)


def _obs_lf_dw(t, parent, args, kwargs, out, dt):
    if out is not None and "newton_iterations" in out.lagrange:
        t.counts["minimax.lf_dW.newton_calls"] += 1
        t.counts["minimax.lf_dW.newton_iterations"] += out.lagrange["newton_iterations"]


def _obs_saddle(t, parent, args, kwargs, out, dt):
    if out is not None:
        t.sized("minimax.saddle_check", f"samples={out['n_samples']}", dt)


def _obs_covariances(t, parent, args, kwargs, out, dt):
    if parent == "oracle.simulate":
        max_lag = args[1] if len(args) > 1 else kwargs["max_lag"]
        t._pending_embed = 2 * int(max_lag)


def _obs_simulate(t, parent, args, kwargs, out, dt):
    if out is None:
        t._pending_embed = 0
        return
    n_rep, length = out.shape
    t.counts["oracle.simulate.values"] += float(n_rep * length)
    path = "ar"
    if t._pending_embed:
        path = "circulant"
        t.counts["oracle.simulate.embed_len"] += t._pending_embed
        t.counts["oracle.simulate.circulant_path_len"] += length
        t._pending_embed = 0
    t.sized("oracle.simulate", f"{path} {n_rep}x{length}", dt)


def _obs_project(t, parent, args, kwargs, out, dt):
    tp = args[0] if args else kwargs["tp"]
    n_obs = len(tp.observed_indices)
    t.counts["oracle.project.n_obs"] += n_obs
    t.sized("oracle.project", f"n_obs={n_obs}", dt)


def _obs_cli_main(t, parent, args, kwargs, out, dt):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv:
        out_dir = argv[argv.index("--out") + 1]
        if os.path.isdir(out_dir):
            t.counts["cli.bytes_written"] += sum(
                e.stat().st_size for e in os.scandir(out_dir) if e.is_file()
            )


OBSERVERS = {
    "interpolate.build_gram": _obs_gram,
    "interpolate.solve_hermitian": _obs_solve_hermitian,
    "interpolate.solve": _obs_solve,
    "interpolate.solve_truncated": _obs_truncated,
    "densities.grid_fourier_coefficients": _obs_grid_coeffs,
    "densities.evaluate_trig_poly": _obs_eval_poly,
    "densities.covariances": _obs_covariances,
    "minimax.numerical_lf": _obs_numerical_lf,
    "minimax.lf_dW": _obs_lf_dw,
    "minimax.saddle_check": _obs_saddle,
    "oracle.simulate": _obs_simulate,
    "oracle.project": _obs_project,
    "cli.main": _obs_cli_main,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_DENSITY_CLASSES = ("RationalAR", "InversePolynomial", "Tabulated")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(t: Tracer, passes: int, pass_s: float, traced_pass_s: float,
                      max_rel_err: float) -> dict:
    """Per-layer values of one traced run. Calls, seconds, bytes, flops and
    points are per pass over the workload's operation list; iteration counts
    and n_obs are means per call; ratios are ratios of totals. pass_s and
    traced_pass_s are the sums of the operations' median calibrated latencies
    without and with tracing."""
    k = max(passes, 1)

    def calls(name):
        return t.calls.get(name, 0) / k

    def self_s(name):
        return t.self_s.get(name, 0.0) / k

    def module_self(mod):
        return t.total(t.self_s, lambda n: n.startswith(mod + ".")) / k

    ctor = tuple(f"densities.{c}.__post_init__" for c in _DENSITY_CLASSES)

    def is_on_grid(n):
        return n.startswith("densities.") and n.endswith((".on_grid", ".inverse_on_grid"))

    fft = ("densities.grid_fourier_coefficients", "densities.evaluate_trig_poly")
    trunc_calls = t.calls.get("interpolate.solve_truncated", 0)
    trunc_solves = t.edges.get(("interpolate.solve_truncated", "interpolate.solve"), 0)
    lf_iters = t.counts["minimax.numerical_lf.iterations"]
    lf_calls = t.calls.get("minimax.numerical_lf", 0)
    lf_solves = t.edges.get(("minimax.numerical_lf", "interpolate.solve_hermitian"), 0)
    sim_incl = t.incl_s.get("oracle.simulate", 0.0)
    proj_calls = t.calls.get("oracle.project", 0)

    values = {
        "ops.busy_s": (pass_s, "s"),
        "densities.self_s": (module_self("densities"), "s"),
        "densities.ctor.self_s": (sum(self_s(n) for n in ctor), "s"),
        "densities.on_grid.calls": (t.total(t.calls, is_on_grid) / k, "count"),
        "densities.on_grid.self_s": (t.total(t.self_s, is_on_grid) / k, "s"),
        "densities.fft.calls": (sum(calls(n) for n in fft), "count"),
        "densities.fft.self_s": (sum(self_s(n) for n in fft), "s"),
        "densities.fft.points": (t.counts["densities.fft.points"] / k, "count"),
        "densities.inverse_fourier_coeffs.self_s": (self_s("densities.inverse_fourier_coeffs"), "s"),
        "densities.covariances.self_s": (self_s("densities.covariances"), "s"),
        "densities.factorize_inverse.self_s": (self_s("densities.factorize_inverse"), "s"),
        "patterns.self_s": (module_self("patterns"), "s"),
        "interpolate.self_s": (module_self("interpolate"), "s"),
        "interpolate.solve.calls": (calls("interpolate.solve"), "count"),
        "interpolate.solve.self_s": (self_s("interpolate.solve"), "s"),
        "interpolate.characteristic_coeffs.self_s": (self_s("interpolate.characteristic_coeffs"), "s"),
        "interpolate.build_gram.calls": (calls("interpolate.build_gram"), "count"),
        "interpolate.build_gram.self_s": (self_s("interpolate.build_gram"), "s"),
        "interpolate.gram.bytes": (t.counts["interpolate.gram.bytes"] / k, "B"),
        "interpolate.solve_hermitian.calls": (calls("interpolate.solve_hermitian"), "count"),
        "interpolate.solve_hermitian.self_s": (self_s("interpolate.solve_hermitian"), "s"),
        "interpolate.solve_hermitian.flops": (t.counts["interpolate.solve_hermitian.n_cubed"] / k / 3.0, "flop"),
        "interpolate.solve_truncated.depths": (_ratio(trunc_solves, trunc_calls), "count"),
        "interpolate.solve_truncated.useful_ratio": (_ratio(trunc_calls, trunc_solves), "ratio"),
        "interpolate.mse_of_characteristic.calls": (calls("interpolate.mse_of_characteristic"), "count"),
        "interpolate.mse_of_characteristic.self_s": (self_s("interpolate.mse_of_characteristic"), "s"),
        "minimax.self_s": (module_self("minimax"), "s"),
        "minimax.saddle_check.self_s": (self_s("minimax.saddle_check"), "s"),
        "minimax.sample_density.self_s": (self_s("minimax.sample_density"), "s"),
        "minimax.lf_d0minus.self_s": (self_s("minimax.lf_d0minus"), "s"),
        "minimax.numerical_lf.self_s": (self_s("minimax.numerical_lf"), "s"),
        "minimax.numerical_lf.iterations": (_ratio(lf_iters, lf_calls), "count"),
        "minimax.numerical_lf.solves_per_iter": (_ratio(lf_solves, lf_iters), "ratio"),
        "minimax.lf_dW.self_s": (self_s("minimax.lf_dW"), "s"),
        "minimax.lf_dW.newton_iterations": (
            _ratio(t.counts["minimax.lf_dW.newton_iterations"], t.counts["minimax.lf_dW.newton_calls"]),
            "count"),
        "oracle.self_s": (module_self("oracle"), "s"),
        "oracle.simulate.self_s": (self_s("oracle.simulate"), "s"),
        "oracle.simulate.values_per_s": (_ratio(t.counts["oracle.simulate.values"], sim_incl), "1/s"),
        "oracle.simulate.embed_ratio": (
            _ratio(t.counts["oracle.simulate.embed_len"], t.counts["oracle.simulate.circulant_path_len"]),
            "ratio"),
        "oracle.project.self_s": (self_s("oracle.project"), "s"),
        "oracle.project.n_obs": (_ratio(t.counts["oracle.project.n_obs"], proj_calls), "count"),
        "oracle.build_problem.self_s": (self_s("oracle.build_problem"), "s"),
        "oracle.empirical_mse.self_s": (self_s("oracle.empirical_mse"), "s"),
        "cli.self_s": (module_self("cli"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.bytes_written": (t.counts["cli.bytes_written"] / k, "B"),
        "trace.overhead_frac": (_ratio(traced_pass_s, pass_s) - 1.0, "ratio"),
        "check.max_rel_err": (max_rel_err, "ratio"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


# counts computed from arguments and array shapes, not measured
COMPUTED = (
    "densities.fft.points", "interpolate.gram.bytes", "interpolate.solve_hermitian.flops",
    "interpolate.solve_truncated.depths", "interpolate.solve_truncated.useful_ratio",
    "oracle.simulate.embed_ratio", "oracle.project.n_obs", "cli.bytes_written",
)
