"""Host-speed calibration: a fixed kernel timed alongside the operations.

The benchmark runs on shared hosts whose speed changes from minute to
minute and from machine to machine. On the 2-vCPU host it was written on, a
grid kernel took a median of 0.75 ms in some stretches and 1.3 ms in others,
and stretches lasted longer than a run. A latency taken in a slow stretch is
slow for reasons the program does not control, and repeating the operation
within the run does not remove it.

Two measures take the host out of the figures:

* Every time is thread CPU time (`time.thread_time`), not wall time, so the
  time the host gives to other tenants (descheduling, steal) is not counted.
  The operations run in one thread with single-threaded BLAS, so on an idle
  host CPU time and wall time agree.
* The benchmark times a fixed kernel between operations. The kernel is the
  same on every commit and seed and calls nothing in gapinterp. Latencies
  are reported at a reference host speed:

      latency = CPU time * REFERENCE_MS / (median time of the WINDOW kernel
                                           runs nearest the operation)

  REFERENCE_MS is a typical median kernel time on the host the benchmark was
  written on, so the scaled figures are close to that host's milliseconds. A
  change to gapinterp moves the operation's time and leaves the kernel
  alone, so it shows in full in the scaled figures.

A slow stretch, or another machine, slows different work by different
amounts: interpreter-bound Python, complex exponentials, FFTs and large
dense factorisations each move by their own factor. So each kind of work is
calibrated by a kernel made of the same kind of work:
* "grid": one small finite interpolation problem written with numpy alone,
  in the proportions of a gapinterp solve at G = 4096: an AR(2) density by
  complex exponentials on the grid, its inverse Fourier coefficients by FFT,
  a 19 x 19 Toeplitz Gram and its Cholesky solve, the characteristic on the
  grid and a dict of its coefficients. For finite_batch and robust_verify.
* "dense": the Cholesky factorisation of a 400 x 400 complex Toeplitz Gram
  copied into a preallocated buffer, like the large systems of long_gap. In
  a four-minute comparison its time tracked that of long_gap's n = 1200 and
  n = 2000 solves with slope 0.95-1.0 on a log scale; a kernel that
  allocates its Gram, or a grid kernel, tracked with slope 0.7.

The host's speed changes within a second, so only kernel samples taken
among the operations themselves track it: each operation is calibrated by
the WINDOW samples nearest to it. Over four runs of one seed on a host whose
uncalibrated times moved by 26% between runs, the calibrated ops_per_s,
op_p50_ms and op_tail_ms moved by 0.2-0.5% (finite_batch) and 1-4%
(robust_verify); with one scale per pass they moved by up to 5%.

The set-ups run in child processes for seconds at a time, so no kernel
samples can be taken in between their work. Their CPU time is scaled by the
median of all the run's kernel samples (`run_scale`). That does not follow
the sub-second changes, which the median over set-ups evens out, but it
follows the slow ones: in two sets of ten runs 45 minutes apart, the
medians of the unscaled set-up times differed by 22% on finite_batch, and
of the scaled ones by 3.5%.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.linalg

# Typical median kernel time, in ms of CPU time, on the reference host.
REFERENCE_MS = {"grid": 1.1, "dense": 4.0}
SHARE = 0.25          # kernel time per unit of measured operation time
WINDOW = 16           # kernel samples that calibrate one operation
GRID = 4096


class Calibrator:
    """Times the kernel of `kind` ("grid" or "dense") between operations."""

    def __init__(self, kind: str = "grid"):
        self.kind = kind
        self.kernel = getattr(self, f"_{kind}_kernel")
        getattr(self, f"_init_{kind}")()
        self.samples = []       # (index of the operation before it, kernel seconds)
        self.owed = 0.0
        self.kernel()

    def _init_grid(self) -> None:
        self.alpha = np.array([0.6 + 0j, -0.35 + 0j])
        self.sigma2 = 1.3
        self.idx = np.array(sorted([0, 1, 2] + [-5 - i for i in range(8)] + [6 + i for i in range(8)]))
        n = self.idx.size
        self.a = np.linspace(0.3, 1.7, n) + 0.2j * np.cos(np.arange(n))
        self.span = int(self.idx.max() - self.idx.min())
        spread = np.zeros(GRID, dtype=complex)
        spread[self.idx % GRID] = self.a
        self.a_grid = np.fft.ifft(spread) * GRID

    def _init_dense(self) -> None:
        n = 400
        lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        self.gram = np.asfortranarray((0.5 ** lags + 2.0 * (lags == 0)).astype(complex))
        self.work = np.empty_like(self.gram)

    def _grid_kernel(self) -> float:
        lam = -np.pi + 2.0 * np.pi * np.arange(GRID) / GRID
        phi = np.ones(GRID, dtype=complex)
        for k, a in enumerate(self.alpha, start=1):
            phi -= a * np.exp(-1j * k * lam)
        inv = np.abs(phi) ** 2 / self.sigma2
        spec = np.fft.fft(inv.astype(complex)) / GRID
        m = np.arange(-self.span, self.span + 1)
        b = np.where(m % 2 == 0, 1.0, -1.0) * spec[m % GRID]
        gram = b[np.subtract.outer(self.idx, self.idx) + self.span]
        factor = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
        c = scipy.linalg.cho_solve(factor, self.a, check_finite=False)
        spread = np.zeros(GRID, dtype=complex)
        spread[self.idx % GRID] = c
        h = self.a_grid - np.fft.ifft(spread) * GRID * inv
        vals = np.fft.fft(h) / GRID
        window = 2 * int(np.abs(self.idx).max()) + 64
        coeffs = {k: complex(vals[k % GRID]) for k in range(-window, window + 1)}
        return float(np.real(np.vdot(self.a, c))) + len(coeffs)

    def _dense_kernel(self) -> float:
        np.copyto(self.work, self.gram)
        c, _ = scipy.linalg.cho_factor(self.work, lower=True, overwrite_a=True, check_finite=False)
        return float(c[-1, -1].real)

    def time_kernel(self) -> float:
        t0 = time.thread_time()
        self.kernel()
        return time.thread_time() - t0

    def after_operation(self, index: int, op_s: float) -> None:
        """Keep kernel time at SHARE of the operations' time, spread in step
        with them, so each operation has samples from its own stretch."""
        self.owed += SHARE * op_s
        while self.owed > 0.0:
            dt = self.time_kernel()
            self.samples.append((index, dt))
            self.owed -= dt

    def finish(self, index: int) -> None:
        """At least WINDOW samples after operation `index`, the last one."""
        for _ in range(WINDOW):
            self.samples.append((index, self.time_kernel()))

    def scales(self, count: int) -> list:
        """For operations 0 .. count-1: the factor that turns the operation's
        CPU time into time at the reference host speed, from the WINDOW
        kernel samples nearest to it, half before and half after."""
        after = [i for i, _ in self.samples]
        times = [dt for _, dt in self.samples]
        ref = REFERENCE_MS[self.kind] * 1e-3
        out = []
        for k in range(count):
            lo = min(max(bisect.bisect_left(after, k) - WINDOW // 2, 0), len(times) - WINDOW)
            out.append(ref / statistics.median(times[max(lo, 0):lo + WINDOW]))
        return out

    def run_scale(self) -> float:
        """The factor for CPU times taken during the run but outside the
        operations, from the median of all its kernel samples."""
        return REFERENCE_MS[self.kind] * 1e-3 / statistics.median(dt for _, dt in self.samples)
