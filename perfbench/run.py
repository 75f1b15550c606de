#!/usr/bin/env python3
"""Benchmark of gapinterp: time to a checked solution on three workloads.

Run from the root of a checkout that holds src/gapinterp:

    python3 perfbench/run.py --workload finite_batch --seed 1 --seconds 20 --trace 0

Each workload runs as a closed loop with one client: the next operation
starts when the previous one has returned and been checked. `--trace 0`
reports the end-to-end metrics; `--trace 1` runs the same passes untraced and
then traced and reports the per-layer metrics. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/README.md.
"""

import os

# Single-threaded BLAS/OpenMP baseline, fixed before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict, namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_SAMPLES = 4           # fresh-interpreter set-ups per untraced run; median reported
TAIL_BEYOND = 10            # op_tail_ms: samples above it (fewer, n // 4, on short lists)

Record = namedtuple("Record", "op pass_ dt wall failure value rel status")



def import_gapinterp():
    init = SRC / "gapinterp" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a gapinterp checkout")
    sys.path.insert(0, str(SRC))
    import gapinterp
    import gapinterp.cli  # noqa: F401  (not imported by the package itself)
    if Path(gapinterp.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported gapinterp from {gapinterp.__file__}, not {init}")
    return gapinterp


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def warm_up(gi, wl) -> None:
    """Run the first operation of each kind once, unchecked and untimed."""
    seen = set()
    for i in range(len(wl.specs)):
        key = wl.warm_key(i)
        if key not in seen:
            seen.add(key)
            try:
                wl.run(gi, wl.prepare(i, 0))
            except Exception:  # the measured passes record every failure
                pass


def setup_only(args) -> None:
    """What a user pays before the first operation: import, inputs,
    references and warm-up. Writes the references for the parent run."""
    gi = import_gapinterp()
    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    wl.materialize()
    refs = wl.references()
    warm_up(gi, wl)
    Path(args.setup_only).write_text(json.dumps({"digest": wl.digest, "refs": refs}))


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_sample(args, workdir: Path) -> tuple[float, float]:
    """CPU time and wall time of one fresh-interpreter set-up
    (`run.py --setup-only`), which leaves its references in
    workdir/setup.json."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir),
           "--setup-only", str(workdir / "setup.json")]
    cpu0, wall0 = _children_cpu(), time.perf_counter()
    subprocess.run(cmd, check=True, timeout=60, stdout=subprocess.DEVNULL)
    return _children_cpu() - cpu0, time.perf_counter() - wall0


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_passes(gi, wl, cal, seconds=None, passes=None, first_pass=0, first_index=0,
               tracer=None, errors=None):
    """Closed loop, one client: whole passes from `first_pass` until `seconds`
    have elapsed or pass number `passes` is reached. Only the call into
    gapinterp is timed, in thread CPU time (see calibrate.py); the
    calibration kernel runs between operations. Returns the records and the
    next pass number."""
    records = []
    p = first_pass
    start = time.perf_counter()
    while True:
        for i in wl.order:
            prepared = wl.prepare(i, p)
            if tracer is not None:
                tracer.op = len(records)
            error = None
            w0, t0 = time.perf_counter(), time.thread_time()
            try:
                out = wl.run(gi, prepared)
            except Exception as exc:  # an operation's failure is a measured outcome
                out, error = None, exc
            dt, wall = time.thread_time() - t0, time.perf_counter() - w0
            if error is None:
                failure, value, rel = wl.check(i, p, out)
            else:
                failure, value, rel = type(error).__name__, math.nan, math.nan
            del out
            if failure is None:
                status = "ok"
            elif wl.known_defect(i) == failure:
                status = "known"
            else:
                status = "failed"
            if errors is not None and failure is not None:
                errors.setdefault((wl.label(i), failure), repr(error) if error else failure)
            records.append(Record(i, p, dt, wall, failure, value, rel, status))
            cal.after_operation(first_index + len(records) - 1, dt)
        p += 1
        if (p >= passes) if passes is not None else (time.perf_counter() - start >= seconds):
            return records, p


def calibrated(records, cal) -> list:
    """The records with each CPU time scaled to the reference host speed
    by the calibration kernel's median time around the operation."""
    cal.finish(len(records) - 1)
    scale = cal.scales(len(records))
    return [r._replace(dt=r.dt * f) for r, f in zip(records, scale)]


def op_latencies(records, field="dt") -> dict:
    """Each operation's median latency over the run's passes."""
    times = defaultdict(list)
    for r in records:
        times[r.op].append(getattr(r, field))
    return {op: statistics.median(v) for op, v in times.items()}


def pass_time(wl, records, field="dt") -> float:
    """One pass at every operation's median latency."""
    lat = op_latencies(records, field)
    return sum(lat[i] for i in wl.order)


def end_to_end(wl, records, raw, passes: int, setup_times, setup_scale: float, rss_mb: float):
    """Latencies are per operation of the pass: each operation's median
    calibrated CPU time over the run's passes (see calibrate.py). setup_s is
    the median CPU time of the set-ups times `setup_scale`. The uncalibrated
    CPU figures and the wall-clock figures go to the record's info."""
    all_ok = {}
    for r in records:
        all_ok[r.op] = all_ok.get(r.op, True) and r.status == "ok"
    n_ok = sum(r.status == "ok" for r in records)
    n = sum(all_ok.values())
    beyond = min(TAIL_BEYOND, n // 4)
    tail = max(n - 1 - beyond, 0)

    def latency_metrics(recs, field):
        ok = sorted(dt for op, dt in op_latencies(recs, field).items() if all_ok[op])
        return {
            "ops_per_s": n_ok / passes / pass_time(wl, recs, field),
            "op_p50_ms": statistics.median(ok) * 1e3 if ok else 0.0,
            "op_tail_ms": ok[tail] * 1e3 if ok else 0.0,
        }

    setup_cpu = statistics.median(s[0] for s in setup_times)
    metrics = {"setup_s": (setup_cpu * setup_scale, "s")}
    metrics.update({k: (v, "ms" if k.endswith("_ms") else "1/s")
                    for k, v in latency_metrics(records, "dt").items()})
    metrics["ok_frac"] = (n_ok / len(records), "fraction")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    info = {
        "latency_samples": n,
        "tail_percentile": 100.0 * (tail + 1) / n if n else 0.0,
        "tail_samples_beyond": n - 1 - tail,
        "fail_frac": 1.0 - n_ok / len(records),
        "setup_samples_s": [{"cpu": u, "wall": w} for u, w in setup_times],
        "cpu": {"setup_s": setup_cpu, **latency_metrics(raw, "dt")},
        "wall": {"setup_s": statistics.median(s[1] for s in setup_times),
                 **latency_metrics(raw, "wall")},
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}, info


def same_results(a, b) -> bool:
    def key(r):
        v = r.value
        return (r.op, r.pass_, r.failure, "nan" if isinstance(v, float) and math.isnan(v) else v)
    return len(a) == len(b) and all(key(x) == key(y) for x, y in zip(a, b))


def op_summary(wl, records) -> dict:
    by_label = defaultdict(list)
    for r in records:
        by_label[wl.label(r.op)].append(r)
    return {
        label: {
            "attempted": len(rs),
            "status": dict(Counter(r.status for r in rs)),
            "median_ms": statistics.median(r.dt for r in rs) * 1e3,
        }
        for label, rs in by_label.items()
    }


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gapinterp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(gi, args, wl, passes: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": wl.digest,
        "loop": "closed, 1 client",
        "ops_per_pass": len(wl.specs),
        "passes": passes,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "gapinterp": getattr(gi, "__version__", "unknown"),
        "blas": _blas(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def benchmark(gi, args, workdir: Path) -> dict:
    samples = SETUP_SAMPLES if args.trace == 0 else 1
    setup_times = [setup_sample(args, workdir)]
    setup = json.loads((workdir / "setup.json").read_text())
    wl = WORKLOADS[args.workload](args.seed, workdir)
    if setup["digest"] != wl.digest:
        sys.exit("perfbench: inputs generated in set-up and in the run differ")
    wl.refs = setup["refs"]
    wl.materialize()
    warm_up(gi, wl)
    cal = calibrate.Calibrator(wl.calibration)
    gc.collect()
    gc.freeze()

    # The other set-up samples run between measurement segments, so the
    # measured passes spread over the whole run.
    errors = {}
    raw, passes = [], 0
    for k in range(samples):
        if k:
            setup_times.append(setup_sample(args, workdir))
        segment, passes = run_passes(gi, wl, cal, seconds=args.seconds / samples,
                                     first_pass=passes, first_index=len(raw), errors=errors)
        raw += segment
    records = calibrated(raw, cal)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, info = end_to_end(wl, records, raw, passes, setup_times, cal.run_scale(), rss_mb)
    info["host_speed"] = statistics.median(r.dt / w.dt for r, w in zip(records, raw) if w.dt > 0)
    rels = [r.rel for r in records if math.isfinite(r.rel)]
    info["max_rel_err"] = max(rels, default=0.0)
    identical = True
    result = {"end_to_end": metrics}

    if args.trace:
        tracer = tracing.Tracer()
        traced_cal = calibrate.Calibrator(wl.calibration)
        tracer.install(gi)
        try:
            traced, _ = run_passes(gi, wl, traced_cal, passes=passes, tracer=tracer)
        finally:
            tracer.uninstall()
        traced = calibrated(traced, traced_cal)
        identical = same_results(records, traced)
        metrics = tracing.per_layer_metrics(
            tracer, passes, pass_time(wl, records), pass_time(wl, traced), info["max_rel_err"])
        result["per_layer"] = metrics
        result["spans"] = {
            name: {"calls": tracer.calls[name], "incl_s": tracer.incl_s[name],
                   "self_s": tracer.self_s[name]}
            for name in sorted(tracer.calls, key=lambda n: -tracer.self_s[n])
        }
        result["by_size"] = {f"{n} [{lab}]": {"calls": c, "incl_mean_s": s / c}
                             for (n, lab), (c, s) in sorted(tracer.by_size.items())}
        result["computed_counts"] = list(tracing.COMPUTED)
        result["first_pass_spans"] = [s for s in tracer.spans if s[0] < len(wl.order)]
        info["traced_results_identical"] = identical

    failed = sum(r.status == "failed" for r in records)
    counts = Counter(r.status for r in records)
    info.update(attempted=len(records), ok=counts["ok"], known_defect=counts["known"],
                failed=failed)
    result.update(
        provenance=provenance(gi, args, wl, passes),
        info=info,
        failures={f"{label} {failure}": detail for (label, failure), detail in errors.items()},
        operations=op_summary(wl, records),
        latencies=[[r.op, r.pass_, r.dt, w.dt, w.wall, r.status] for r, w in zip(records, raw)],
        kernel_samples=cal.samples,
    )
    RESULTS.mkdir(parents=True, exist_ok=True)
    out_file = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str))

    print(f"# gapinterp benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={passes} operations={len(records)}")
    for name, m in metrics.items():
        tag = " (computed)" if name in tracing.COMPUTED else ""
        print(f"{name:44s} {m['value']:.6g} {m['unit']}{tag}")
    print(f"# fail_frac={info['fail_frac']:.6g} (known defects {counts['known']}, "
          f"unexpected {failed}); op_tail_ms is p{info['tail_percentile']:.2f} of "
          f"{info['latency_samples']} per-operation median latencies over {passes} passes "
          f"(calibrated; host speed {info['host_speed']:.3f} of reference); "
          f"max_rel_err={info['max_rel_err']:.3g}")
    for key, detail in sorted(result["failures"].items()):
        print(f"# failure {key}: {detail}")
    print("# provenance " + json.dumps(result["provenance"]))
    print(f"# full record: {out_file.relative_to(ROOT)}")
    return {
        "correct": failed == 0 and identical and counts["ok"] > 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    gi = import_gapinterp()
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        final = benchmark(gi, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(final, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
