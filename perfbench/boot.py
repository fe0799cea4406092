"""Process set-up shared by the benchmark scripts.

Import this module, and call ``pin_blas_env`` and ``use_checkout_source``,
before anything imports numpy: OpenBLAS reads its thread count once,
when the library is loaded.
"""

import ctypes
import glob
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (package, bundled library relative to site-packages, thread-count symbol,
# configuration symbol). scipy's copy is the one cho_solve and dpotrf use.
OPENBLAS_LIBS = (
    ("numpy", "numpy.libs/libscipy_openblas64_-*.so",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy", "scipy.libs/libscipy_openblas-*.so",
     "scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
)


class BenchError(Exception):
    """The benchmark cannot run or cannot trust what it measured."""


def pin_blas_env():
    for var in BLAS_ENV:
        os.environ[var] = "1"


def use_checkout_source():
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "mcglm" / "__init__.py").is_file():
        raise BenchError(f"no mcglm sources under {src}")
    sys.path.insert(0, str(src))
    return src


def blas_report():
    """Thread count and configuration string of each bundled OpenBLAS.

    Loads the libraries numpy and scipy already mapped (ctypes returns
    the same handle) and asks each for its current thread count.
    """
    import numpy
    import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS)

    site = Path(numpy.__file__).resolve().parent.parent
    report = {}
    for pkg, pattern, threads_sym, config_sym in OPENBLAS_LIBS:
        found = glob.glob(str(site / pattern))
        if len(found) != 1:
            raise BenchError(f"expected one {pattern} under {site}, found {found}")
        lib = ctypes.CDLL(found[0])
        get_threads = getattr(lib, threads_sym)
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        get_config = getattr(lib, config_sym)
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        report[pkg] = {
            "threads": int(get_threads()),
            "config": get_config().decode(errors="replace"),
        }
    return report


def verify_one_blas_thread():
    report = blas_report()
    for pkg, info in report.items():
        if info["threads"] != 1:
            raise BenchError(f"{pkg}'s OpenBLAS runs {info['threads']} threads, not 1")
    return report
