"""The environment of a run, and a fixed reference loop to show host drift.

The reference loop is timed before and after each run and stored with the
run's record, not reported as a metric: on a shared host the same code can
run tens of percent slower for minutes, and a slow phase should be visible
as such rather than read as a regression.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
import statistics
import time

import numpy as np


def _read(path):
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    libs = re.findall(r"(/\S*openblas\S*\.so\S*)", _read("/proc/self/maps"))
    for lib in dict.fromkeys(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                getter = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def environment() -> dict:
    cpu = re.search(r"^model name\s*:\s*(.+)$", _read("/proc/cpuinfo"), re.M)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu.group(1).strip() if cpu else platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


def reference_loop(repeats: int = 5) -> dict:
    """Median time of a fixed pure-Python loop and a fixed numpy product, in ms."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    a @ a  # start the BLAS threads before timing
    python_ms, numpy_ms = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        python_ms.append((time.perf_counter() - start) * 1e3)
        start = time.perf_counter()
        for _ in range(20):
            a @ a
        numpy_ms.append((time.perf_counter() - start) * 1e3)
    return {"python_ms": statistics.median(python_ms), "numpy_ms": statistics.median(numpy_ms)}
