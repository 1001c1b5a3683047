"""Process set-up shared by every entry point of the benchmark.

Importing this module pins the BLAS and OpenMP thread pools to one thread
(before numpy is loaded) and puts the checkout's ``src`` directory first on
the import path, so the package is always built from the checkout's source.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "ctrlrom" / "__init__.py").is_file():
    sys.exit(f"perfbench: no ctrlrom package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))


def describe():
    """Library versions, processor count and thread pins of this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": {v: os.environ.get(v) for v in THREAD_VARS},
    }
