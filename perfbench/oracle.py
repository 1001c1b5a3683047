"""Independent residual oracle and the benchmark's correctness checks.

The oracle rebuilds the Crank-Nicolson propagator from the instance's raw
matrices with ``scipy.linalg`` and never calls ``ctrlrom.dynamics``.  For a
final-time adjoint ``p`` it evaluates the optimality residual

    r(p) = M (x_{x0, u(p)}(T) - xT) - p,    u(p) = -R^{-1} B* phi,  phi(T) = p,

which by linearity equals ``rhs - (I + M Gramian) p``, the residual behind
every certificate of the package.  The smallest eigenvalue of
``I + M Gramian`` is at least 1, so ``||p* - p|| <= ||r(p)||``.

Two float64 evaluations of the same residual differ by their rounding
errors.  Each residual therefore comes with the first-order bound
``n_t * eps * (||M (x(T) - xT)|| + ||p||)`` on the rounding error of its
evaluation (n_t steps of a non-expansive recurrence), and the comparisons
below allow that much on top of their tolerance.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

ESTIMATE_RTOL = 1e-8
EPS = np.finfo(float).eps
RELIABILITY_SLACK = 1e-6
ORTHONORMALITY_TOL = 1e-10


class Oracle:
    """Crank-Nicolson residual of final-time adjoints for one instance."""

    def __init__(self, inst):
        A = np.asarray(inst.A, dtype=float)
        n = A.shape[0]
        B = np.asarray(inst.B, dtype=float).reshape(n, -1)
        half_dt = 0.5 * inst.grid.T / inst.grid.n_t
        eye = np.eye(n)
        lu = lu_factor(eye - half_dt * A)
        self.S = lu_solve(lu, eye + half_dt * A)
        self.S_T = np.ascontiguousarray(self.S.T)
        # node-averaged control input: x_{k+1} = S x_k + G (u_k + u_{k+1})
        self.G = half_dt * lu_solve(lu, B)
        self.weight = float(inst.ip.weight)
        self.B_star = self.weight * B.T  # adjoint of B in the weighted state space
        self.R_chol = cho_factor(np.asarray(inst.R, dtype=float))
        self.M = np.asarray(inst.M, dtype=float)
        self.x0 = np.asarray(inst.x0, dtype=float)
        self.xT = np.asarray(inst.xT, dtype=float)
        self.n_t = int(inst.grid.n_t)

    def norm(self, v):
        return float(np.sqrt(self.weight) * np.linalg.norm(v))

    def residual_norms(self, adjoints):
        """Weighted residual norms of a list of final-time adjoints, and the
        rounding-error bound of each evaluation."""
        P = np.column_stack([np.asarray(p, dtype=float) for p in adjoints])
        phi = P.copy()
        B_phi = np.empty((self.n_t + 1, self.B_star.shape[0], P.shape[1]))
        B_phi[self.n_t] = self.B_star @ phi
        for k in range(self.n_t - 1, -1, -1):
            phi = self.S_T @ phi
            B_phi[k] = self.B_star @ phi
        u = -np.stack([cho_solve(self.R_chol, b) for b in B_phi])
        x = np.repeat(self.x0[:, None], P.shape[1], axis=1)
        for k in range(self.n_t):
            x = self.S @ x + self.G @ (u[k] + u[k + 1])
        mismatch = self.M @ (x - self.xT[:, None])
        scale = np.sqrt(self.weight)
        norms = scale * np.linalg.norm(mismatch - P, axis=0)
        floors = self.n_t * EPS * scale * (np.linalg.norm(mismatch, axis=0)
                                           + np.linalg.norm(P, axis=0))
        return [float(v) for v in norms], [float(v) for v in floors]


def check_exact(residual, cg_tol, floor=0.0):
    """An exact solution must meet its CG tolerance on the oracle residual."""
    if not residual <= cg_tol + floor:
        return f"exact residual {residual:.3e} above cg_tol {cg_tol:.3e} (+ rounding {floor:.1e})"
    return None


def check_estimate(estimate, residual, floor=0.0):
    """A certificate must equal the independently recomputed residual norm."""
    if estimate is None or not abs(estimate - residual) <= ESTIMATE_RTOL * residual + floor:
        return (f"estimate {estimate!r} differs from oracle residual {residual:.17e} "
                f"(+ rounding {floor:.1e})")
    return None


def check_reliability(true_error, estimate):
    """The true adjoint error must not exceed the certificate."""
    if not true_error <= estimate * (1.0 + RELIABILITY_SLACK):
        return f"true error {true_error:.3e} exceeds estimate {estimate:.3e}"
    return None


def check_orthonormal(matrix, weight):
    """Basis columns must be orthonormal in the weighted inner product."""
    gram = weight * (matrix.T @ matrix)
    dev = float(np.max(np.abs(gram - np.eye(gram.shape[0])))) if gram.size else 0.0
    if not dev <= ORTHONORMALITY_TOL:
        return f"basis deviates from orthonormality by {dev:.3e}"
    return None


def check_terminal_estimate(history, tolerance):
    """The greedy must stop with its largest training estimate at or below tol."""
    last = history[-1].estimated_max_error if history else float("inf")
    if not last <= tolerance:
        return f"greedy terminal estimate {last:.3e} above tolerance {tolerance:.3e}"
    return None


def check_equal(label, in_memory, reloaded):
    """A reloaded artefact must reproduce the in-memory values bit for bit."""
    if not np.array_equal(np.asarray(in_memory), np.asarray(reloaded)):
        return f"{label}: reloaded values differ from the in-memory ones"
    return None
