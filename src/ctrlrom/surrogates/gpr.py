"""Gaussian process regression with likelihood-optimized kernel parameters.

The covariance is a scaled squared-exponential kernel with amplitude c and
length scale l searched over fixed boxes.  Outputs are normalized to zero
mean and unit variance per coefficient before fitting, and the kernel
matrix carries the diagonal ``JITTER`` = 1e-3; the prediction is the
posterior mean, de-normalized.  Hyper-parameters maximize the summed
log-marginal likelihood over all outputs via a multi-start coordinate-wise
golden-section search in log space, which keeps the fit derivative-free,
deterministic and inside the boxes: from each start, ``SWEEPS`` = 3 passes
over the two coordinates, each a search of ``LINE_ITERS`` = 20 steps.

The search evaluates the likelihood 1320 times at 10 restarts, each on the
same inputs, so ``fit`` computes their squared distances once and every
evaluation starts from them.  An evaluation adds ``JITTER`` to the diagonal
in place and factors and solves through LAPACK's ``dpotrf``/``dpotrs``
directly, the routines ``cho_factor``/``cho_solve`` call, without their
per-call copies and finiteness checks: the training records reject
non-finite arrays when they are built.  The arithmetic, and so every fitted
bit, is that of the kernel matrix ``rbf_kernel(X, X) + JITTER * I`` factored
by ``cho_factor``.
"""

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from ..errors import TrainingError
from .base import CoefficientRegressor, sq_dists

C_BOUNDS = (0.1, 1000.0)
L_BOUNDS = (0.001, 1000.0)
JITTER = 1e-3  # added to the kernel matrix diagonal
SWEEPS = 3  # coordinate passes per restart
LINE_ITERS = 20  # golden-section steps per coordinate search
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def rbf_kernel(x, y, c, length):
    return c * np.exp(-sq_dists(x, y) / (2.0 * length**2))


def _factor(dists, c, length):
    """Lower Cholesky factor of the jittered kernel matrix on the squared
    distances ``dists`` of the inputs, and LAPACK's ``info`` (> 0: the matrix
    is not positive definite)."""
    K = np.divide(dists, -2.0 * length**2)  # -dists / (2 l^2), bit for bit
    np.exp(K, out=K)
    K *= c
    K.flat[:: len(K) + 1] += JITTER
    # K is symmetric, so K.T is the same matrix in Fortran order and dpotrf
    # factors it in place
    return dpotrf(K.T, lower=1, overwrite_a=1, clean=0)


def log_marginal_likelihood(dists, Y, c, length):
    """Summed log-marginal likelihood of all output columns under one kernel,
    given the squared distances ``dists`` = ``sq_dists(X, X)`` of the inputs."""
    n = dists.shape[0]
    L, info = _factor(dists, c, length)
    if info:
        return -np.inf
    alpha = dpotrs(L, Y, lower=1)[0]
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    n_out = Y.shape[1]
    quad = float(np.sum(Y * alpha))
    return -0.5 * quad - 0.5 * n_out * (logdet + n * np.log(2.0 * np.pi))


def _golden_max(f, lo, hi):
    """Golden-section maximization of a scalar function on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(LINE_ITERS):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


class GPRegressor(CoefficientRegressor):
    kind = "gpr"
    min_pairs = 2
    hyper_parameters = ("c", "length")
    fitted_arrays = {"inputs": ("rows", "inputs"), "alpha": ("rows", "n_outputs"),
                     "y_mean": ("n_outputs",), "y_std": ("n_outputs",)}

    def __init__(self, restarts=10, seed=0):
        super().__init__(seed=seed)
        if restarts < 1:
            raise ValueError(f"gpr needs at least one restart, got {restarts}")
        self.restarts = int(restarts)
        self.c = None
        self.length = None
        self.inputs = None
        self.alpha = None
        self.y_mean = None
        self.y_std = None

    def _fit(self, X, Y):
        self.y_mean = Y.mean(axis=0)
        std = Y.std(axis=0)
        self.y_std = np.where(std > 0.0, std, 1.0)
        Yn = (Y - self.y_mean) / self.y_std

        log_c_box = np.log10(C_BOUNDS)
        log_l_box = np.log10(L_BOUNDS)
        rng = np.random.default_rng(self.seed)
        starts = rng.uniform(
            [log_c_box[0], log_l_box[0]], [log_c_box[1], log_l_box[1]], size=(self.restarts, 2)
        )

        dists = sq_dists(X, X)

        def lml(log_c, log_l):
            return log_marginal_likelihood(dists, Yn, 10.0**log_c, 10.0**log_l)

        best = (-np.inf, None)
        for log_c, log_l in starts:
            for _ in range(SWEEPS):
                log_c, value = _golden_max(lambda t: lml(t, log_l), *log_c_box)
                log_l, value = _golden_max(lambda t: lml(log_c, t), *log_l_box)
            if np.isfinite(value) and value > best[0]:
                best = (value, (log_c, log_l))
        if best[1] is None:
            raise TrainingError("all gpr restarts failed to factorize the kernel matrix")

        self.c = float(10.0 ** best[1][0])
        self.length = float(10.0 ** best[1][1])
        self.inputs = np.array(X, order="C")  # a copy: the model must not alias its data
        L, _ = _factor(dists, self.c, self.length)  # the winner's factor: its value was finite
        self.alpha = np.ascontiguousarray(dpotrs(L, Yn, lower=1)[0])

    def _predict_one(self, x):
        kvec = rbf_kernel(x[None, :], self.inputs, self.c, self.length)[0]
        return (kvec @ self.alpha) * self.y_std + self.y_mean
