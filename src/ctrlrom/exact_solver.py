"""Exact optimal control via the final-time adjoint, and the certificate of
any approximate adjoint.

The optimal final-time adjoint solves the dense, self-adjoint and positive
definite system (I + M Gramian) p = M (free-endpoint - target).  The system
is never assembled; conjugate gradients only needs operator applications,
each of which costs one backward and one forward evolution solve (two
sweeps).  M Gramian is positive semi-definite with a fast-decaying
spectrum, so a randomized Nystrom approximation of it built from a few
block applications preconditions CG: on the damped wave, whose operator
norm is ~1e7, it cuts the iterations tenfold or more.  An exact solve whose
CG needs no restart costs 2 * (CG iterations) + 4 sweeps: one for the
right-hand side, two for the verified-residual application at
convergence, and the backward sweep that yields the solution's control;
the preconditioner adds 2 block sweeps per batch of 16 test columns.

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
    # test columns the Nystrom preconditioner uses; the sketch may have
    # applied up to one batch more
    sketch_rank: int


# The Nystrom preconditioner: Gaussian test columns from a fixed seed, so a
# rerun gives the same bits; the rank starts at _SKETCH_RANK and doubles
# while the sketch's smallest eigenvalue exceeds the unit shift, up to the
# state dimension; the columns go through the operator in whole batches of
# _SKETCH_BATCH, which bounds the sweeps' memory, and the rule reads only
# the first r of them, so batching moves no rank.
_SKETCH_SEED = 0
_SKETCH_RANK = 8
_SKETCH_BATCH = 16


def nystrom_preconditioner(inst):
    """Randomized Nystrom preconditioner of the final-time adjoint system.

    Approximates A = M Gramian, the system operator minus the identity, by
    A<Omega> = (A Omega)(Omega' A Omega)^+ (A Omega)' = U diag(lam) U' from
    r orthonormal Gaussian test columns Omega, and returns
    ``(precondition, r)`` with precondition(v) = P^{-1} v =
    v + U ((lam_r + 1) / (lam + 1) - 1) U' v, the inverse of Frangella,
    Tropp & Udell's preconditioner for A + I ("Randomized Nystrom
    preconditioning", SIAM J. Matrix Anal. Appl. 44(2), 2023).  P^{-1} is
    symmetric positive definite for any U and lam >= 0.  Rank-deficient
    sketches are handled by dropping the core eigenvalues at the core's own
    rounding level (its asymmetry), so the pseudo-inverse never fails.
    The rank r stops at the first sketch with lam_r <= 1, or at n.  Costs 2
    block sweeps per batch of ``_SKETCH_BATCH`` columns (fewer only where
    the batch would pass n), a step of each one matrix product; a batch is
    applied whole as soon as r reaches into it, so a doubled rank may find
    its columns applied already.  A block's rounding moves only the
    preconditioner, and CG's verified residual still certifies the answer.
    """
    n = inst.n
    rng = np.random.default_rng(_SKETCH_SEED)
    # QR keeps every prefix of the columns orthonormal, so a doubled rank
    # reuses the columns already applied
    omega = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Y = np.empty((n, n))
    done, r = 0, min(_SKETCH_RANK, n)
    while True:
        while done < r:
            k = min(done + _SKETCH_BATCH, n)
            Y[:, done:k] = dynamics.apply_system_operator(inst, omega[:, done:k]) - omega[:, done:k]
            done = k
        U, lam = _nystrom(omega[:, :r], Y[:, :r])
        lam_r = lam[r - 1] if lam.size == r else 0.0
        if lam_r <= 1.0 or r == n:
            break
        r = min(2 * r, n)
    scale = (lam_r + 1.0) / (lam + 1.0) - 1.0

    def precondition(v):
        return v + U @ (scale * (U.T @ v))

    return precondition, r


def _nystrom(omega, Y):
    """Eigenvectors U and descending eigenvalues lam of the Nystrom
    approximation from the test columns ``omega`` and their images Y."""
    core = omega.T @ Y
    floor = np.linalg.norm(core - core.T, 2) + np.finfo(float).eps * np.linalg.norm(core, 2)
    d, V = np.linalg.eigh(0.5 * (core + core.T))
    keep = d > floor
    U, s, _ = np.linalg.svd(Y @ (V[:, keep] / np.sqrt(d[keep])), full_matrices=False)
    return U, s**2


def solve_exact(inst, cg_tol=1e-12, max_iter=None):
    """Solve the optimal control problem for one instance.

    The one exact-solve path, for the online exact tier and the greedy's
    snapshots alike: builds ``nystrom_preconditioner``, runs matrix-free
    preconditioned CG on the final-time adjoint system, then reconstructs
    the optimal control from the adjoint.  ``residual_norm`` is the
    residual CG verified on the unpreconditioned system; ConvergenceError
    is raised if it exceeds ``cg_tol``.
    """
    precondition, rank = nystrom_preconditioner(inst)
    phiT, iters, res = cg_solve(
        lambda p: dynamics.apply_system_operator(inst, p),
        dynamics.rhs_vector(inst),
        inst.ip,
        tol=cg_tol,
        max_iter=max_iter,
        precondition=precondition,
    )
    if not res <= cg_tol:
        raise ConvergenceError(
            f"cg returned residual {res:.3e} above tol {cg_tol:.3e}", phiT, res, iters
        )
    control = dynamics.solve_adjoint_backward(inst, phiT)
    return ExactSolution(phiT=phiT, control=control, cg_iters=iters, residual_norm=res,
                         sketch_rank=rank)


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
    eta = inst.ip.norm(inst.M @ (final_state - inst.xT) - p)
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
