"""Exact optimal control via the final-time adjoint, and the certificate of
any approximate adjoint.

The optimal final-time adjoint solves the dense, self-adjoint and positive
definite system (I + M Gramian) p = M (free-endpoint - target).  The system
is never assembled; conjugate gradients only needs operator applications,
each of which costs one backward and one forward evolution solve (two
sweeps).  An exact solve whose CG needs no restart costs
2 * (CG iterations) + 4 sweeps: one for the right-hand side, two for the
verified-residual application at convergence, and the backward sweep that
yields the solution's control.

The certificate of an approximate adjoint p is the residual norm of that
system.  By linearity it equals the optimality residual
M (x(T) - xT) - p, where x is the state driven from x0 by the control that
p induces, so certifying p costs the same two sweeps that reconstruct its
control and state.
"""

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .errors import ConvergenceError
from .numerics import cg_solve


@dataclass
class ExactSolution:
    """Optimal final-time adjoint with its control at the grid nodes."""

    phiT: np.ndarray
    control: np.ndarray  # shape (n_t + 1, m)
    cg_iters: int
    residual_norm: float


def solve_exact(inst, cg_tol=1e-12, max_iter=None):
    """Solve the optimal control problem for one instance.

    Runs matrix-free CG on the final-time adjoint system, then reconstructs
    the optimal control from the adjoint.  ``residual_norm`` is the residual
    CG verified; ConvergenceError is raised if it exceeds ``cg_tol``.
    """
    phiT, iters, res = cg_solve(
        lambda p: dynamics.apply_system_operator(inst, p),
        dynamics.rhs_vector(inst),
        inst.ip,
        tol=cg_tol,
        max_iter=max_iter,
    )
    if not res <= cg_tol:
        raise ConvergenceError(
            f"cg returned residual {res:.3e} above tol {cg_tol:.3e}", phiT, res, iters
        )
    control = dynamics.solve_adjoint_backward(inst, phiT)
    return ExactSolution(phiT=phiT, control=control, cg_iters=iters, residual_norm=res)


def error_estimator(inst, p):
    """Certificate of an approximate final-time adjoint p.

    Runs one backward sweep from p, which yields the control
    u = -R^{-1} B* phi, and one forward sweep from x0, and returns
    ``(eta, control, final_state)`` with eta = ||M (x(T) - xT) - p||, which
    equals the residual norm
    ||rhs - (I + M Gramian) p||.  Two-sided bound on the distance to the
    optimal final-time adjoint: eta is never below the true error and
    exceeds it at most by the operator norm of (I + M Gramian).
    """
    p = np.asarray(p, dtype=float)
    control = dynamics.solve_adjoint_backward(inst, p)
    final_state = dynamics.solve_state_forward(inst, inst.x0, control)
    eta = inst.ip.norm(inst.apply_M(final_state - inst.xT) - p)
    return eta, control, final_state


_DENSE_ORACLE_LIMIT = 64


def assemble_dense_operator(inst):
    """Densely assemble I + M Gramian by applying it to the identity block.

    Test oracle only; guarded to small instances because assembly applies
    the operator to n columns at once.
    """
    if inst.n > _DENSE_ORACLE_LIMIT:
        raise ValueError(
            f"dense assembly restricted to n <= {_DENSE_ORACLE_LIMIT}, got n = {inst.n}"
        )
    return dynamics.apply_system_operator(inst, np.eye(inst.n))


def operator_norm(dense_op):
    """Spectral norm of a densely assembled operator.

    With a scalar-weighted inner product the induced operator norm equals
    the Euclidean spectral norm.
    """
    return float(np.linalg.svd(dense_op, compute_uv=False)[0])
