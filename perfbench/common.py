"""Shared pieces of the Credo benchmark: op tallies, output checks,
percentiles, peak memory and provenance.

Nothing here imports ``repro``; ``run.py`` puts the checkout's ``src``
on the path before the workloads import the program.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: the checkout this benchmark measures (the parent of ``perfbench/``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: float32 posteriors: a row may miss 1.0 by a few ulps per state
ROW_SUM_TOL = 1e-4

#: median seconds of one :class:`HostSpeed` kernel on the reference host
#: (2-core Intel Xeon VM, Python 3.11, numpy 2.4, unloaded)
REFERENCE_KERNEL_S = 0.008

@dataclass
class Tally:
    """Attempted and failed ops of one run, with the reason of each
    failure.  A failed correctness check counts as a failed op."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] += 1

    def record(self, problem: str | None) -> None:
        """Count one op; ``problem`` is ``None`` when every check passed."""
        if problem is None:
            self.ok()
        else:
            self.fail(problem)


@dataclass
class Phase:
    """What one measured stretch of ops produced.

    ``latencies`` are the per-op seconds the end-to-end latency is taken
    from (scaled by :class:`HostSpeed` where the workload is CPU-bound);
    ``ops_per_s`` is the throughput the workload reports;
    ``extra`` maps a workload-specific metric name to ``(value, unit)``.
    """

    latencies: list[float]
    ops_per_s: float
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: the op seconds as measured, before host-speed scaling
    raw: list[float] = field(default_factory=list)
    #: workload-specific counters the traced run turns into layer metrics
    counters: dict[str, float] = field(default_factory=dict)
    #: non-numeric facts printed with the result (plans actually run)
    info: dict = field(default_factory=dict)


class HostSpeed:
    """How fast the shared host runs right now, timed right after an op.

    Neighbours on the machine slow whole stretches of a run: the same
    update takes 59 ms or 93 ms seconds apart, and the run-to-run spread
    of medians reached 40%.  A fixed kernel unrelated to the program
    (a gather, a bincount, a log and an interpreted loop: the mix the
    program spends its time on) slows down with it; scaling each op by
    ``REFERENCE_KERNEL_S / kernel seconds`` cancels most of that drift.
    The unscaled timings are printed beside the scaled ones.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._idx = rng.integers(0, 65_536, size=131_072)
        self._weights = rng.random(131_072)
        self._rows = rng.random((65_536, 2)).astype(np.float32)

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        x = self._rows[self._idx]
        np.bincount(self._idx, weights=self._weights, minlength=65_536)
        np.log(np.maximum(x, 1e-6)).sum(axis=1)
        total = 0
        for i in range(3_000):
            total += i
        return time.perf_counter() - t0

    def scale(self, elapsed: float) -> float:
        """The factor for an op that just took ``elapsed`` seconds: one
        kernel after a short op, up to five (median) after a long one."""
        n = 1 + min(4, int(elapsed / 0.2))
        return REFERENCE_KERNEL_S / median([self._kernel() for _ in range(n)])


def check_rows(beliefs: np.ndarray) -> str | None:
    """Every posterior is finite and every row sums to one."""
    arr = np.asarray(beliefs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        return "shape"
    if not np.isfinite(arr).all():
        return "non_finite"
    if np.abs(arr.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        return "row_sum"
    return None


def check_posteriors(
    beliefs: np.ndarray,
    converged: bool,
    reference: np.ndarray | None = None,
    tol: float = 0.0,
) -> str | None:
    """The per-op output check: finite rows summing to one, the expected
    converged flag, and (when given) agreement with ``reference``."""
    problem = check_rows(beliefs)
    if problem is not None:
        return problem
    if not converged:
        return "not_converged"
    if reference is not None:
        if np.shape(beliefs) != np.shape(reference):
            return "reference_shape"
        if float(np.abs(np.asarray(beliefs) - reference).max()) > tol:
            return "reference_mismatch"
    return None


def plant_fault(beliefs: np.ndarray) -> np.ndarray:
    """A wrong posterior that still passes the row checks: move 0.05 of
    mass between the first two states of row 0.  Used by the self-test
    to prove that a wrong answer is counted as a failed op."""
    bad = np.array(beliefs, dtype=np.float64, copy=True)
    shift = 0.05 if bad[0, 0] >= 0.05 else -0.05
    bad[0, 0] -= shift
    bad[0, 1] += shift
    return bad


def timed_loop(seconds: float, op, host: HostSpeed | None = None):
    """Call ``op()`` until ``seconds`` are spent.  Each call returns the
    seconds of the program call it timed itself, so input preparation
    and output checks stay outside the latency.  A new op starts only
    while half a mean op (checks included) still fits, so long ops
    overshoot the run by less than half an op on average.

    Returns ``(latencies, raw)``: the seconds scaled by ``host`` (equal
    to ``raw`` without one) and as measured.
    """
    latencies: list[float] = []
    raw: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = op()
        raw.append(elapsed)
        latencies.append(elapsed * (host.scale(elapsed) if host else 1.0))
        spent = time.perf_counter() - start
        if spent + 0.5 * spent / len(raw) >= seconds:
            return latencies, raw


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """``(p, value)`` for the highest of p90/p95/p99/p99.9 with at least
    ten samples beyond it, or ``None`` when there are too few samples."""
    n = len(samples)
    best = None
    for p in (90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    if best is None:
        return None
    return best, float(np.percentile(samples, best))


def median(samples: list[float]) -> float:
    return float(statistics.median(samples))


def peak_rss_mib() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _src_digest() -> str:
    """sha1 over every ``src/**/*.py`` (path and bytes): identifies the
    measured code where the checkout is not a git repository."""
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS would use, read from the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    names = (
        "openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
    )
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(workload: str, seed: int, params: dict) -> dict:
    """Where and what was measured, printed before the result line."""
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "git_sha": _git_sha(),
        "src_sha1": _src_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "argv": sys.argv[1:],
    }
