"""The machine block: what a run's numbers depend on besides the code.

Only reads state; it sets no thread count and no start method, because
pinning either would hide the BLAS oversubscription the benchmark measures.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import subprocess
import sys

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "PYTHONPATH")
_BLAS_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")

# a CPU-bound pure-Python loop that reports its own duration
_SPIN = ("import time; t = time.perf_counter()\n"
         "for _ in range({n}): pass\n"
         "print(time.perf_counter() - t)")
SPIN_ITERATIONS = 5_000_000
SPIN_REPEATS = 3


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through ctypes; None if not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _BLAS_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def parallel_capacity(n: int = SPIN_ITERATIONS, repeats: int = SPIN_REPEATS) -> dict:
    """Cores two CPU-bound processes get together: their summed speed relative to one alone.

    The median of ``repeats`` trials, each one loop alone and then two at once.
    """
    cmd = [sys.executable, "-c", _SPIN.format(n=n)]

    def spin(k: int) -> list[float]:
        procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) for _ in range(k)]
        return [float(p.communicate()[0]) for p in procs]

    trials = []
    for _ in range(repeats):
        alone, pair = spin(1)[0], spin(2)
        trials.append({"alone_s": alone, "pair_s": pair, "cores": sum(alone / t for t in pair)})
    trials.sort(key=lambda t: t["cores"])
    return trials[len(trials) // 2]


def describe() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in THREAD_ENV},
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or f"unset (default {multiprocessing.get_all_start_methods()[0]})",
    }
