"""Parametrized problem definition and the two PDE benchmark families.

A problem instance bundles the dense system matrices of a linear
time-invariant control problem with quadratic final-time tracking cost:

    x'(t) = A x(t) + B u(t),   x(0) = x0,
    J(u)  = 1/2 <x(T) - xT, M (x(T) - xT)> + 1/2 int_0^T <u, R u> dt.

Families map a parameter vector to such an instance deterministically.  They
assemble their arrays at the first build, so creating a family only checks
its settings and costs nothing that grows with the resolution.  The two
built-in families discretize a boundary-controlled heat equation and a
boundary-controlled damped wave equation (written as a first-order system)
with second-order central finite differences.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, lu_factor, lu_solve
from scipy.linalg.lapack import dpotrs

from .numerics import InnerProduct


@dataclass(frozen=True)
class ParameterDomain:
    """Box of admissible parameter vectors."""

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lows", np.asarray(self.lows, dtype=float))
        object.__setattr__(self, "highs", np.asarray(self.highs, dtype=float))
        if self.lows.shape != self.highs.shape or self.lows.ndim != 1:
            raise ValueError("bounds must be 1-d arrays of equal length")
        if not np.all(self.lows < self.highs):
            raise ValueError("each lower bound must be strictly below its upper bound")

    @property
    def dim(self):
        return self.lows.shape[0]

    def contains(self, mu):
        mu = np.asarray(mu, dtype=float)
        return mu.shape == self.lows.shape and bool(
            np.all(mu >= self.lows) and np.all(mu <= self.highs)
        )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with n_t steps (n_t + 1 nodes)."""

    T: float
    n_t: int

    def __post_init__(self):
        if not (self.T > 0 and self.n_t >= 1):
            raise ValueError("need T > 0 and n_t >= 1")

    @property
    def dt(self):
        return self.T / self.n_t

    def nodes(self):
        return np.linspace(0.0, self.T, self.n_t + 1)


_CACHE_LINE = 64  # bytes


def _cache_line_array(shape, order):
    """Uninitialized float64 array of ``shape`` in ``order`` ("C" or "F")
    whose first element starts on a cache line.

    A sweep step is one BLAS product with the propagator, and numpy's heap
    blocks start on 16 bytes only, so where the propagator starts within a
    cache line is a draw per instance.  The products give the same bits at
    every start, but off a line they ran up to a third slower on an AVX-512
    host (a single backward heat sweep at n = 100: ~5.9 ms at 16 or 48
    bytes against ~5.0 ms at 0 or 32).  The columns stay packed: with a
    padded leading dimension numpy's vector product leaves BLAS (3x slower,
    other bits).
    """
    nbytes = int(np.prod(shape)) * 8
    raw = np.empty(nbytes + _CACHE_LINE, dtype=np.uint8)
    start = -raw.ctypes.data % _CACHE_LINE
    return raw[start : start + nbytes].view(np.float64).reshape(shape, order=order)


class ProblemInstance:
    """Assembled dense problem for one parameter value.

    Construction validates the weighting matrices (M symmetric PSD-shaped, R
    symmetric with strictly positive eigenvalues) and precomputes everything
    the time steppers reuse: the Cholesky factor of R, the Crank-Nicolson
    step matrices (factorized once, then turned into a dense one-step
    propagator), and the adjoint of B in the weighted state inner product.
    ``step_operator`` is the Fortran-ordered (n, n + m) array [S | G] of the
    propagator S and the input map G, and ``step_propagator`` and
    ``step_input_map`` are its column views: a single vector steps with S
    (forward) or its C-ordered transpose view (backward), and a block's
    forward step multiplies its rows by ``step_operator.T``, [S^T; G^T] in C
    order.  ``block_propagator`` is a C-ordered copy of S, which a block's
    backward step multiplies its rows by.  Both arrays start on a 64-byte
    cache line, and so do S and every transpose view (see
    ``_cache_line_array``).  Instances are immutable after construction and
    safe to share.
    """

    def __init__(self, A, B, x0, xT, M, R, ip, grid):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.x0 = np.asarray(x0, dtype=float)
        self.xT = np.asarray(xT, dtype=float)
        self.M = np.asarray(M, dtype=float)
        self.R = np.asarray(R, dtype=float)
        self.ip = ip
        self.grid = grid

        n = self.A.shape[0]
        m = self.B.shape[1] if self.B.ndim == 2 else 1
        self.B = self.B.reshape(n, m)
        if self.A.shape != (n, n) or self.M.shape != (n, n) or self.R.shape != (m, m):
            raise ValueError("inconsistent matrix dimensions")
        if self.x0.shape != (n,) or self.xT.shape != (n,):
            raise ValueError("initial/target state dimension mismatch")
        if not np.allclose(self.M, self.M.T, atol=1e-12):
            raise ValueError("M must be self-adjoint")
        if not np.allclose(self.R, self.R.T, atol=1e-12):
            raise ValueError("R must be self-adjoint")
        if np.linalg.eigvalsh(self.R).min() <= 0.0:
            raise ValueError("R must be strictly positive-definite")

        self.n = n
        self.m = m
        self.parameter = None  # attached by ProblemFamily.build
        # adjoint of B for weighted state space / unweighted control space
        self.B_adj = self.ip.weight * self.B.T
        self._R_chol = cho_factor(self.R)

        # Crank-Nicolson one-step data: factorize (I - dt/2 A) once and fold
        # it into a dense propagator S = (I - dt/2 A)^{-1} (I + dt/2 A) and
        # input map G = (I - dt/2 A)^{-1} B.  The backward adjoint step uses
        # S^T, which keeps the discrete controllability Gramian symmetric to
        # machine precision.  S is solved in place into the first n columns
        # of the cache-line aligned Fortran-ordered [S | G], which start with
        # a copy of I + dt/2 A, so S^T is a C-ordered view of the same memory
        # (see _cache_line_array); the assignment keeps [S | G] whole should
        # lu_solve return a copy instead.
        a = 0.5 * grid.dt
        eye = np.eye(n)
        lu = lu_factor(eye - a * self.A)
        SG = _cache_line_array((n, n + m), order="F")
        S = SG[:, :n]
        np.multiply(a, self.A, out=S)
        S += eye
        S[...] = lu_solve(lu, S, overwrite_b=True)
        SG[:, n:] = lu_solve(lu, self.B)
        self.step_operator = SG
        self.step_propagator = S
        self.step_input_map = SG[:, n:]
        self.block_propagator = _cache_line_array((n, n), order="C")
        self.block_propagator[...] = S

    def solve_R(self, rhs):
        """Solve R y = rhs using the precomputed Cholesky factor; a non-finite
        rhs raises ValueError.  LAPACK directly: ``cho_solve``'s checks cost
        more than the small solve each chunk of a backward sweep makes."""
        if not np.all(np.isfinite(rhs)):
            raise ValueError("right-hand side of R y = rhs must be finite")
        c, lower = self._R_chol
        return dpotrs(c, rhs, lower=lower)[0]


@dataclass(frozen=True)
class ProblemFamily:
    """Deterministic map from parameters to problem instances."""

    name: str
    domain: ParameterDomain
    builder: callable = field(repr=False)

    def build(self, mu):
        mu = np.asarray(mu, dtype=float).reshape(-1)
        if not self.domain.contains(mu):
            raise ValueError(f"parameter {mu} outside domain of family '{self.name}'")
        inst = self.builder(mu)
        inst.parameter = mu
        return inst


def _laplacian_1d(n_y):
    return (
        np.diag(-2.0 * np.ones(n_y))
        + np.diag(np.ones(n_y - 1), 1)
        + np.diag(np.ones(n_y - 1), -1)
    )


def build_heat_family(n_y=100, T=0.1, steps_per_point=30):
    """1-d heat equation with Dirichlet boundary control on both ends.

    Parameter mu = (conductivity, target slope) on [1, 2] x [0.5, 1.5].
    Inner grid of n_y points, h = 1/(n_y + 1); initial state sin(pi*y),
    target state mu_2 * y; M = I, R = diag(0.125, 0.25); state space carries
    the h-weighted inner product.
    """
    if n_y < 2:
        raise ValueError("need at least two inner grid points")
    h = 1.0 / (n_y + 1)
    ip = InnerProduct(weight=h)
    grid = TimeGrid(T=T, n_t=steps_per_point * n_y)

    @functools.cache
    def shared():  # assembled at the first build, then shared by every instance
        y = h * np.arange(1, n_y + 1)
        return y, _laplacian_1d(n_y), np.sin(np.pi * y), np.eye(n_y), np.diag([0.125, 0.25])

    def builder(mu):
        mu1, mu2 = float(mu[0]), float(mu[1])
        y, lap, x0, M, R = shared()
        A = (mu1 / h**2) * lap
        B = np.zeros((n_y, 2))
        B[0, 0] = mu1 / h**2
        B[-1, 1] = mu1 / h**2
        return ProblemInstance(A=A, B=B, x0=x0, xT=mu2 * y, M=M, R=R, ip=ip, grid=grid)

    domain = ParameterDomain(lows=[1.0, 0.5], highs=[2.0, 1.5])
    return ProblemFamily(name="heat", domain=domain, builder=builder)


def build_wave_family(n_y=100, T=1.0, steps_per_point=10, nu=10.0):
    """1-d damped wave equation with Dirichlet control on the right boundary.

    Rewritten as a first-order system of dimension 2 * n_y stacking position
    on top of velocity.  Parameter mu in [3, 10] scales the propagation
    speed; nu is the damping constant.  M = 10 * I, R = [[0.1]].
    """
    if n_y < 2:
        raise ValueError("need at least two inner grid points")
    if not nu >= 0:
        raise ValueError(f"damping constant must be non-negative, got {nu}")
    h = 1.0 / (n_y + 1)
    n = 2 * n_y
    ip = InnerProduct(weight=h)
    grid = TimeGrid(T=T, n_t=steps_per_point * n_y)

    @functools.cache
    def shared():  # assembled at the first build, then shared by every instance
        y = h * np.arange(1, n_y + 1)
        x0 = np.concatenate([np.sin(np.pi * y), np.zeros(n_y)])
        xT = np.concatenate([y, np.zeros(n_y)])
        return _laplacian_1d(n_y), x0, xT, 10.0 * np.eye(n), np.array([[0.1]])

    def builder(mu):
        mu_val = float(np.asarray(mu).reshape(-1)[0])
        lap, x0, xT, M, R = shared()
        A = np.zeros((n, n))
        A[:n_y, n_y:] = np.eye(n_y)
        A[n_y:, :n_y] = (mu_val / h**2) * lap
        A[n_y:, n_y:] = -nu * np.eye(n_y)
        B = np.zeros((n, 1))
        B[-1, 0] = mu_val / h**2
        return ProblemInstance(A=A, B=B, x0=x0, xT=xT, M=M, R=R, ip=ip, grid=grid)

    domain = ParameterDomain(lows=[3.0], highs=[10.0])
    return ProblemFamily(name="wave", domain=domain, builder=builder)


FAMILY_BUILDERS = {"heat": build_heat_family, "wave": build_wave_family}


def sample_grid(domain, counts):
    """Tensor-product uniform grid including both endpoints of every axis.

    Returned in row-major order (first axis varies slowest).
    """
    counts = [int(c) for c in np.atleast_1d(counts)]
    if len(counts) != domain.dim:
        raise ValueError(f"one count per parameter axis required: got {len(counts)} "
                         f"for {domain.dim} axes")
    if any(c < 1 for c in counts):
        raise ValueError("counts must be >= 1")
    axes = [
        np.linspace(lo, hi, c) if c > 1 else np.array([lo])
        for lo, hi, c in zip(domain.lows, domain.highs, counts)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [np.array(pt) for pt in zip(*(m.ravel() for m in mesh))]


def sample_random(domain, count, seed=0, exclude=()):
    """Uniform i.i.d. samples from the box, reproducible for a fixed seed.

    Samples exactly matching an entry of ``exclude`` are rejected and
    redrawn.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = np.random.default_rng(seed)
    excluded = [np.asarray(e, dtype=float) for e in exclude]
    samples = []
    while len(samples) < count:
        mu = rng.uniform(domain.lows, domain.highs)
        if any(np.array_equal(mu, e) for e in excluded):
            continue
        samples.append(mu)
    return samples
