"""Environment record printed with every run: interpreter, numpy and BLAS,
cores, memory, thread settings and the commit under test."""
from __future__ import annotations

import ctypes
import os
import platform
import subprocess

import numpy as np

from .run import ROOT, THREAD_VARS


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):       # numpy < 1.25 has no dict mode
        return {"name": "unknown", "version": "unknown"}
    blas = deps.get("blas", {})
    return {"name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown")}


_OPENBLAS_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads")


def _blas_threads():
    """Threads the OpenBLAS loaded into this process will use, asked from
    the library itself; None when no OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _mem_total_mb():
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def record(ncores, paper_batch):
    threads = {v: os.environ.get(v) for v in THREAD_VARS}
    blas_threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": ncores,
        "mem_total_mb": _mem_total_mb(),
        "thread_env": threads,
        "blas_threads": blas_threads,
        # None when no OpenBLAS could be asked: unknown, not false
        "blas_threads_over_cores": None if blas_threads is None else blas_threads > ncores,
        "git_commit": git_commit(),
        "train_tdd_paper_batch": paper_batch,
    }
