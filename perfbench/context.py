"""Per-run context record: what ran, on which host, how fast the host was.

A fixed calibration loop is timed in every run, and the CPU time the
hypervisor stole from this guest during the timed blocks is recorded.
When a run's numbers move together with its calibration time or its
steal, the host was slow; when they move alone, the code was.
"""

from __future__ import annotations

import ctypes
import os
import pathlib
import platform
import time

import numpy as np

CALIBRATION_REPEATS = 5


def _commit(root: pathlib.Path) -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, int | None]:
    """BLAS library name and its thread count (``None`` if unknown)."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line and ".so" in line}
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    threads = int(fn())
                    break
    except OSError:
        pass
    return name, threads


def cpu_steal_s() -> float | None:
    """Seconds of CPU time stolen from this guest so far, all CPUs."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def calibrate(repeats: int = CALIBRATION_REPEATS) -> float:
    """Median seconds of a fixed interpreter-plus-numpy loop."""
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(4096, 32))
    query = rng.normal(size=32)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        for _ in range(50):
            np.argsort(1.0 - np.add.reduce(rows * query, axis=1))
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def record(root: pathlib.Path, workload: str, seed: int, rows: int,
           dim: int, steal_s: float | None) -> dict:
    blas, threads = _blas()
    return {
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": blas,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "rows": rows,
        "dim": dim,
        "seed": seed,
        "calibration_s": calibrate(),
        "steal_s_during_blocks": steal_s,
    }
