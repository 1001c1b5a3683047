import os

# One BLAS thread, as the benchmark pins it (perfbench/env.py): a sweep step
# is one matrix-vector product of order 100, too small for a second thread
# to pay off, and the acceptance timings then read what the benchmark
# measures.  Set before numpy loads; a value set in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ctrlrom.numerics import InnerProduct  # noqa: E402
from ctrlrom.system import ProblemInstance, TimeGrid  # noqa: E402


def make_instance(A, B, x0, xT, M, R, weight=1.0, T=1.0, n_t=64):
    """Small hand-assembled instance for unit tests."""
    return ProblemInstance(
        A=np.atleast_2d(np.asarray(A, dtype=float)),
        B=np.atleast_2d(np.asarray(B, dtype=float)),
        x0=np.atleast_1d(np.asarray(x0, dtype=float)),
        xT=np.atleast_1d(np.asarray(xT, dtype=float)),
        M=np.atleast_2d(np.asarray(M, dtype=float)),
        R=np.atleast_2d(np.asarray(R, dtype=float)),
        ip=InnerProduct(weight=weight),
        grid=TimeGrid(T=T, n_t=n_t),
    )


def scalar_instance(a=0.0, b=1.0, x0=1.0, xT=0.0, m=1.0, r=1.0, T=1.0, n_t=64, weight=1.0):
    """1-dimensional instance with scalar system data."""
    return make_instance([[a]], [[b]], [x0], [xT], [[m]], [[r]], weight=weight, T=T, n_t=n_t)


# a few bytes cut from the end of a file, or appended to it
CORRUPTIONS = [-1, -3, -24, b"\x00\x00\x00", b"0.5\n"]


def corrupted_copy(path, change):
    """Copy of ``path`` truncated by ``-change`` bytes or extended by ``change``."""
    data = path.read_bytes()
    data = data[:change] if isinstance(change, int) else data + change
    out = path.with_name("corrupt_" + path.name)
    out.write_bytes(data)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(42)
