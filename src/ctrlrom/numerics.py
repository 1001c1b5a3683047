"""Dense linear-algebra kernels shared by every other module.

All routines work on plain numpy arrays.  Inner products are weighted
Euclidean products with a finite positive scalar weight; for the PDE
benchmarks the weight equals the spatial grid size, which makes the discrete
norm consistent with the L2 norm of the underlying functions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True)
class InnerProduct:
    """Weighted Euclidean inner product <x, y> = w * sum(x_i * y_i)."""

    weight: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.weight < np.inf:
            raise ValueError(f"inner-product weight must be finite positive, got {self.weight}")

    def dot(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
        return self.weight * float(np.dot(x, y))

    def norm(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.sqrt(self.weight) * np.linalg.norm(x))


# CG stops this fraction below ``tol``.  The verified residual is one float64
# evaluation; evaluating the same iterate's residual along another summation
# order (another process, an independent check) differs by rounding, 1.4e-4
# relative seen on the damped wave, so an iterate verified just at ``tol``
# could read above it there.  A margin, not a knob.
_TOL_MARGIN = 1e-3
DROP_TOL = 1e-10  # relative norm below which gram_schmidt_extend finds v dependent


def cg_solve(apply, b, ip, tol=1e-12, max_iter=None, precondition=None):
    """Conjugate gradients for a self-adjoint positive-definite operator.

    ``apply`` maps a vector to a vector and must be linear, self-adjoint and
    positive-definite with respect to ``ip``.  Iterates from zero until the
    residual norm (in ``ip``) drops to ``tol * (1 - _TOL_MARGIN)``; returns
    ``(x, n_iter, residual_norm)``.

    ``precondition``, if given, maps a residual r to z = P^{-1} r for a
    preconditioner P that is self-adjoint and positive-definite in ``ip``;
    the search directions then follow z, and <r, z> replaces <r, r> in the
    recurrence.  ``None`` runs plain CG.  Either way the stopping criterion
    reads the residual of the unpreconditioned system.

    The recurrence residual drifts away from the true residual near the
    round-off floor, so whenever it signals convergence the true residual
    b - A x is recomputed; if that check fails, the iteration restarts from
    the current iterate.  The returned iterate therefore always satisfies
    the stopping criterion on the recomputed residual.

    Raises ConvergenceError carrying the best iterate if ``max_iter`` is
    exhausted first, or if the operator or the preconditioner turns out not
    to be positive-definite (p'Ap <= 0 or r'z <= 0).  Since the weight is a
    scalar multiple of the identity, the iterates coincide with Euclidean
    CG, but running all inner products through ``ip`` keeps the stopping
    criterion in the problem norm.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    if not tol > 0.0:
        raise ValueError("cg tolerance must be positive")

    def direction(r):
        """The preconditioned residual z and <r, z>, which must be positive."""
        if precondition is None:
            return r, ip.dot(r, r)
        z = precondition(r)
        rz = ip.dot(r, z)
        if not rz > 0.0:
            raise ConvergenceError(
                f"preconditioner not positive-definite along the residual (r'z = {rz:.3e})",
                best_x, best_res, iters,
            )
        return z, rz

    target = tol * (1.0 - _TOL_MARGIN)
    x = np.zeros(n)
    best_x, best_res = x.copy(), np.inf
    iters = 0
    while True:
        r = b.copy() if iters == 0 else b - apply(x)
        res_norm = ip.norm(r)
        if res_norm < best_res:
            best_x, best_res = x.copy(), res_norm
        if res_norm <= target:
            return x, iters, res_norm
        if iters >= max_iter:
            raise ConvergenceError(
                f"cg did not reach tol={tol:.3e} within {max_iter} iterations "
                f"(best verified residual {best_res:.3e})",
                best_x, best_res, max_iter,
            )
        z, rs = direction(r)
        p = z.copy()
        while iters < max_iter:
            Ap = apply(p)
            iters += 1
            pAp = ip.dot(p, Ap)
            if pAp <= 0.0:
                raise ConvergenceError(
                    f"operator not positive-definite along search direction "
                    f"(p'Ap = {pAp:.3e})",
                    best_x, best_res, iters,
                )
            alpha = rs / pAp
            x = x + alpha * p
            r = r - alpha * Ap
            if ip.norm(r) <= target:
                break  # verify against the recomputed residual
            z, rs_new = direction(r)
            p = z + (rs_new / rs) * p
            rs = rs_new


def gram_schmidt_extend(basis, v, ip):
    """Orthonormalize ``v`` against an already orthonormal ``basis``.

    Modified Gram-Schmidt with exactly one re-orthogonalization pass.
    Returns the new unit vector, or ``None`` when the post-projection norm
    falls below ``DROP_TOL * ip.norm(v)``, signalling (near-)linear dependence.
    """
    v = np.asarray(v, dtype=float)
    ref_norm = ip.norm(v)
    if ref_norm == 0.0:
        return None
    w = v.copy()
    for _ in range(2):
        for phi in basis:
            w = w - ip.dot(phi, w) * phi
    norm_w = ip.norm(w)
    if norm_w < DROP_TOL * ref_norm:
        return None
    return w / norm_w


def svd_singular_values(columns, ip):
    """Singular values (descending) of a snapshot set in the weighted norm.

    The snapshots are scaled by sqrt(weight) before the decomposition so the
    squared singular values are the eigenvalues of the Gram matrix taken in
    ``ip``.
    """
    mat = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    scaled = np.sqrt(ip.weight) * mat
    return np.linalg.svd(scaled, compute_uv=False)
