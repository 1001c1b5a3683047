"""Exact optimal control via the final-time adjoint, and the certificate of
any approximate adjoint.

The optimal final-time adjoint solves the dense, self-adjoint and positive
definite system (I + M Gramian) p = M (free-endpoint - target).  Conjugate
gradients applies the operator matrix-free, each application one backward
and one forward evolution solve (two sweeps), and a preconditioner brings
the iterations down.  The online exact tier, the paper's matrix-free
baseline, never assembles the operator: M Gramian is positive
semi-definite with a fast-decaying spectrum, so a randomized Nystrom
approximation of it built from a few block applications preconditions CG
(on the damped wave, whose operator norm is ~1e7, it cuts the iterations
tenfold or more).  An exact solve whose CG needs no restart costs
2 * (CG iterations) + 4 sweeps: one for the right-hand side, two for the
verified-residual application at convergence, and the backward sweep that
yields the solution's control; the sketch adds 2 block sweeps per batch
of 16 test columns.  A caller that holds the operator assembled
(``assemble_dense_operator``, O(n^3 log2 n_t) flops by doubling over the
time steps), as the greedy and svd-diag do, preconditions with its
Cholesky factor instead, and CG converges in one step: 6 sweeps, and the
same verified residual.

The certificate of an approximate adjoint p is the residual norm of that
system.  By linearity it equals the optimality residual
M (x(T) - xT) - p, where x is the state driven from x0 by the control that
p induces, so certifying p costs the same two sweeps that reconstruct its
control and state.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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
    # test columns the Nystrom preconditioner uses (the sketch may have
    # applied up to one batch more), or n for an assembled operator's
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


def solve_exact(inst, cg_tol=1e-12, max_iter=None, operator=None):
    """Solve the optimal control problem for one instance.

    The one exact-solve path, for the online exact tier and the greedy's
    snapshots alike: runs matrix-free preconditioned CG on the final-time
    adjoint system, then reconstructs the optimal control from the adjoint.
    The preconditioner is ``nystrom_preconditioner``'s sketch, or, given
    ``operator``, the system operator K of ``inst`` assembled by
    ``assemble_dense_operator``, the Cholesky factor of (K + K^T) / 2: K is
    at least the identity, so the factor exists, and CG then converges in
    one step or two (``sketch_rank`` reads n).  Either way CG applies the
    operator through the sweeps, ``residual_norm`` is the residual CG
    verified on the unpreconditioned system, and ConvergenceError is raised
    if it exceeds ``cg_tol``.
    """
    if operator is None:
        precondition, rank = nystrom_preconditioner(inst)
    else:
        factor = cho_factor(0.5 * (operator + operator.T))
        precondition, rank = partial(cho_solve, factor), inst.n
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


def assemble_dense_operator(inst):
    """The system operator K = I + M Gramian as a dense (n, n) array.

    The Gramian the sweeps apply is W = (dt/2) P (S^T + I) with
    P = sum_{j < n_t} S^j C (S^T)^j, S the one-step propagator and
    C = G R^{-1} B* the input map G times the control map.  P is summed by
    doubling over the bits of n_t, P_{a+b} = P_b + S^b P_a (S^b)^T, so the
    assembly costs O(n^3 log2 n_t) flops and a few n x n arrays, not the n
    columns' sweeps; K agrees with ``dynamics.apply_system_operator`` up to
    rounding, and equal ``dynamics.operator_key``s give bit-identical K.
    """
    S = inst.step_propagator
    P_b, S_b = inst.step_input_map @ inst.solve_R(inst.B_adj), S  # b = 1
    P = None  # the sum over the bits of n_t taken so far
    bits = inst.grid.n_t
    while True:
        if bits & 1:
            P = P_b if P is None else P_b + S_b @ P @ S_b.T
        bits >>= 1
        if not bits:
            break
        P_b = P_b + S_b @ P_b @ S_b.T
        S_b = S_b @ S_b
    W = (0.5 * inst.grid.dt) * (P @ S.T + P)
    return np.eye(inst.n) + inst.M @ W
