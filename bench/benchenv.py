"""Process environment of a benchmark run: BLAS threads, import path, machine record.

``prepare`` must run before numpy is first imported, because OpenBLAS reads
its thread count once, when it loads.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1  # the matrices are K x K with K = 6; BLAS threads only add noise
ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def prepare() -> None:
    """Pin the BLAS thread count and import risthp from this checkout's ``src``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SOURCE / "risthp" / "__init__.py").is_file():
        sys.exit(f"error: no risthp sources under {SOURCE}; run from a risthp checkout")
    sys.path.insert(0, str(SOURCE))


def _blas_threads_in_effect():
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def describe() -> dict:
    """Machine, interpreter and library versions, and the BLAS threads in effect."""
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads_in_effect(),
    }
