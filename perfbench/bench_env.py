"""Where the benchmark runs: source location, BLAS threads, machine record.

``cap_blas_threads`` must run before numpy is first imported, because
OpenBLAS reads its thread count once, when it loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Hold every BLAS thread-count variable at or below ``nproc``."""
    limit = nproc()
    for var in _THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)


def use_source_tree():
    """Put the checkout's ``src`` first on the import path.

    Returns False when the checkout holds no ``dyngcn`` sources; an
    installed copy elsewhere must not be benchmarked by mistake.
    """
    if not (SOURCE / "dyngcn" / "__init__.py").is_file():
        return False
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    return True


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    """Versions, BLAS and CPU facts recorded with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = _openblas_threads()
    cpus = nproc()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "nproc": cpus,
        "cpu_model": _cpu_model(),
        "blas_threads_exceed_nproc": threads is not None and threads > cpus,
    }
