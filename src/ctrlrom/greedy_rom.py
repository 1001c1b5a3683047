"""Weak-greedy construction of a reduced basis of final-time adjoints and
its certified online evaluation.

The offline loop repeatedly selects the training parameter with the largest
residual estimate, solves that parameter exactly (``exact_solver.solve_exact``)
and extends an orthonormal basis with the new final-time adjoint.  It holds
the system operator of each *distinct* operator in the training set
assembled (``exact_solver.assemble_dense_operator``; heat: 8 for the 8x8
grid, since mu_2 enters only xT), so an iteration costs one exact solve,
whose CG that operator preconditions to convergence in one step, plus one
n x n matrix-vector product per distinct operator for the image of the new
basis vector.  Its memory follows the distinct operators, not the training
parameters: G assembled operators of n x n and the one instance it solves,
the P right-hand sides and G*n*N image columns, for P training parameters,
G distinct operators, state dimension n and basis size N.  It leaves two
records of arrays, as their files store them: the ``ReducedBasis``, whose
vectors are the rows of an (N, n) array grown by one row per selection,
and ``TrainingData`` for the surrogates, the training parameters and their
final reduced coefficients.

Online, the reduced coefficients for a new parameter solve a small
normal-equation system built from the images of the basis vectors under the
parameter's system operator.  The g-rom's answer and each surrogate's then
go through ``reduced_solution``: the coefficients are expanded through the
C-ordered (n, N) array ``ReducedBasis.matrix()``, and a certified answer
takes its control and its estimate from ``exact_solver.error_estimator``,
the one residual behind every certificate.  The projection residual stays
the greedy's cached estimate, which selects, stops and fills the history.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import dynamics, persist
from .errors import GramMatrixError, GreedyBudgetError
from .exact_solver import assemble_dense_operator, error_estimator, solve_exact
from .numerics import InnerProduct, gram_schmidt_extend

log = logging.getLogger(__name__)


def _require_paired_rows(**arrays):
    """Both records' rule: the two named arrays are finite and 2-d, row i of
    one paired with row i of the other; a ``ValueError`` names them."""
    (name_a, a), (name_b, b) = arrays.items()
    if a.ndim != 2 or b.ndim != 2 or len(a) != len(b):
        raise ValueError(f"{name_a} of shape {a.shape} and {name_b} of shape {b.shape} do "
                         f"not pair up")
    for name, array in arrays.items():
        if not np.all(np.isfinite(array)):
            raise ValueError(f"{name} holds a NaN or an infinity")


@dataclass
class GreedyStep:
    """One row of the greedy history: row i has basis size i, and a
    selection row i selected row i of ``ReducedBasis.selected_params``."""

    estimated_max_error: float
    true_error_at_selected: float | None = None


@dataclass
class ReducedBasis:
    """Orthonormal final-time adjoint snapshots with their provenance, as the
    file holds them: the rows of ``vectors`` (N, n), orthonormal in ``ip``,
    and the parameters they came from, ``selected_params`` (N, p), both
    finite."""

    vectors: np.ndarray
    selected_params: np.ndarray
    ip: InnerProduct
    tolerance_used: float
    family_name: str = ""
    history: list = field(default_factory=list)

    def __post_init__(self):
        _require_paired_rows(vectors=self.vectors, selected_params=self.selected_params)

    @property
    def size(self):
        return len(self.vectors)

    def matrix(self):
        """The basis vectors as the columns of a C-ordered (n, N) array.

        Every expansion ``matrix() @ coeffs`` multiplies through it, because
        BLAS rounds ``vectors.T @ coeffs`` or ``coeffs @ vectors`` otherwise,
        and the greedy's true errors and the online answers keep their bits.
        """
        return np.ascontiguousarray(self.vectors.T)


@dataclass
class TrainingData:
    """What the greedy leaves for the surrogates to learn, as its file holds
    it: the training parameters as the rows of ``parameters`` (P, p), their
    reduced coefficients as the rows of ``coefficients`` (P, N = 0 if none),
    both finite."""

    parameters: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        _require_paired_rows(parameters=self.parameters, coefficients=self.coefficients)


@dataclass
class ReducedSolution:
    """Reduced-space approximation of one optimal control problem."""

    coeffs: np.ndarray
    phiT_approx: np.ndarray
    control: np.ndarray  # at the grid nodes, shape (n_t + 1, m)
    estimated_error: float | None = None


def _project(images, rhs, ip):
    """Least-squares fit of ``rhs`` by the columns of ``images`` in ``ip``.

    Solves the normal equations and returns the coefficients a together with
    the residual norm ||rhs - images @ a||.  With images[:, i] =
    (I + M Gramian) phi_i this residual is the certificate of sum_i a_i phi_i,
    obtained without further evolution solves.
    """
    basis_size = images.shape[1]
    w = ip.weight
    gram = w * (images.T @ images)
    proj = w * (images.T @ rhs)
    try:
        factor = cho_factor(gram)
    except np.linalg.LinAlgError:
        jitter = 1e-14 * np.trace(gram) / max(basis_size, 1)
        try:
            factor = cho_factor(gram + jitter * np.eye(basis_size))
        except np.linalg.LinAlgError as exc:
            raise GramMatrixError(
                f"normal-equation Gram matrix singular at basis size {basis_size}",
                basis_size,
            ) from exc
    coeffs = cho_solve(factor, proj)
    return coeffs, ip.norm(rhs - images @ coeffs)


def project_coefficients(inst, basis):
    """Project the right-hand side onto the span of the perturbed states.

    Computes x_i = (I + M Gramian) phi_i for all basis vectors at once (one
    backward and one forward sweep over the N columns, a block whose
    columns may differ from single-vector images by rounding) and the
    right-hand side (one sweep), then returns the coefficients of the
    orthogonal projection of the right-hand side onto span{x_i} in the
    weighted inner product, and the projection residual norm, which equals
    the certificate of the expanded adjoint up to rounding.
    """
    if basis.size == 0:
        raise ValueError("cannot project onto an empty basis")
    rhs = dynamics.rhs_vector(inst)
    images = dynamics.apply_system_operator(inst, basis.matrix())
    return _project(images, rhs, inst.ip)


def greedy_offline(
    family,
    train_set,
    tol,
    max_basis=50,
    cg_tol=1e-12,
    cg_max_iter=None,
):
    """Offline weak-greedy loop over a finite training set (a sequence or a (P, p) array).

    Starts from the empty basis (approximate adjoint zero everywhere) and
    repeats: pick the training parameter with the largest residual estimate,
    stop if that estimate is at most ``tol``, otherwise solve it exactly,
    orthonormalize the new snapshot into the basis and refresh coefficients
    and estimates for the whole training set.  Only the image of the new
    basis vector has to be computed per iteration, and only once per
    distinct system operator (``dynamics.operator_key``): training
    parameters that share the operator share its image columns and differ
    only in their right-hand sides.  Previously cached columns stay valid
    because earlier basis vectors never change.  Each distinct operator K
    is assembled once (``assemble_dense_operator``), so an image is the
    product K @ phi, and an iteration costs one exact solve
    (``solve_exact`` with ``operator=K``, CG preconditioned by K itself:
    6 sweeps when CG takes one step, for the right-hand side, the step,
    the verified residual and the control) plus one n x n product per
    distinct operator in the training set (heat: 8 for the 8x8 grid, since
    mu_2 enters only xT).  The right-hand sides take one uncontrolled sweep
    per distinct operator and x0.

    Each training instance is built once, for its right-hand side, its
    operator key and, for the first of each operator, its assembly; the
    selected parameter's instance is built again for its exact solve.  The
    loop thus holds G assembled operators and one instance, the P
    right-hand sides and G*n*N image columns (P training parameters, G
    distinct operators, state dimension n, basis size N): heat on the 8x8
    grid keeps 8 operators of n x n, each the size of one instance's
    propagator.

    Each history row of a selection also records the true error of the
    selected parameter before its snapshot joins the basis.  Returns the
    reduced basis and the ``TrainingData`` of the training set with its
    final coefficients.  Ties in the argmax resolve to the smallest training index.
    """
    if len(train_set) == 0:
        raise ValueError("training set must not be empty")
    if not tol > 0:
        raise ValueError("greedy tolerance must be positive")

    train_set = [np.atleast_1d(np.asarray(mu, dtype=float)) for mu in train_set]
    groups = {}  # operator key -> (its assembled operator, indices sharing it)
    operators = []  # the assembled operator of each training parameter
    free = {}  # (operator key, x0) -> uncontrolled final state
    rhs = []
    for i, mu in enumerate(train_set):
        inst = family.build(mu)
        key = dynamics.operator_key(inst)
        if key not in groups:
            groups[key] = (assemble_dense_operator(inst), [])
        groups[key][1].append(i)
        operators.append(groups[key][0])
        start = (key, inst.x0.tobytes())
        if start not in free:
            free[start] = dynamics.solve_state_forward(inst, inst.x0)
        rhs.append(inst.M @ (free[start] - inst.xT))  # as dynamics.rhs_vector
    ip, n = inst.ip, inst.n
    del inst  # the loop holds no instance, only the assembled operators
    groups = list(groups.values())
    n_train = len(train_set)
    columns = [np.zeros((n, 0)) for _ in groups]
    coeffs = [np.zeros(0) for _ in range(n_train)]
    eta = np.array([ip.norm(r) for r in rhs])
    selectable = np.ones(n_train, dtype=bool)

    basis = ReducedBasis(np.zeros((0, n)), np.zeros((0, len(train_set[0]))),
                         ip=ip, tolerance_used=tol, family_name=family.name)

    def make_training_data():
        return TrainingData(np.array(train_set), np.array(coeffs))

    while True:
        candidates = np.where(selectable)[0]
        if candidates.size == 0:
            log.warning("greedy ran out of selectable training parameters")
            basis.history.append(GreedyStep(float(np.max(eta))))
            break
        j = candidates[int(np.argmax(eta[candidates]))]
        if eta[j] <= tol:
            basis.history.append(GreedyStep(float(eta[j])))
            break
        if basis.size >= max_basis:
            basis.history.append(GreedyStep(float(eta[j])))
            raise GreedyBudgetError(
                f"estimated error {eta[j]:.3e} still above tol {tol:.3e} "
                f"at max_basis = {max_basis}",
                basis,
                make_training_data(),
            )

        exact = solve_exact(family.build(train_set[j]), cg_tol=cg_tol, max_iter=cg_max_iter,
                            operator=operators[j])
        true_err = ip.norm(exact.phiT - basis.matrix() @ coeffs[j])
        new_vec = gram_schmidt_extend(basis.vectors, exact.phiT, ip)
        if new_vec is None:
            log.warning(
                "snapshot for parameter %s is linearly dependent on the basis; "
                "excluding it from further selection",
                train_set[j],
            )
            selectable[j] = False
            continue
        basis.history.append(GreedyStep(float(eta[j]), true_err))
        basis.vectors = np.vstack([basis.vectors, new_vec])
        basis.selected_params = np.vstack([basis.selected_params, train_set[j]])

        for g, (K, members) in enumerate(groups):
            columns[g] = np.column_stack([columns[g], K @ new_vec])
            for i in members:
                coeffs[i], eta[i] = _project(columns[g], rhs[i], ip)

    return basis, make_training_data()


def reduced_solution(inst, basis, coeffs, certify=True):
    """The answer at one instance whose adjoint is the expansion of ``coeffs``
    in the basis, ``phi = basis.matrix() @ coeffs``.

    Certified, the control and the estimate come from one
    ``error_estimator`` call (two sweeps); uncertified, the control follows
    from one backward sweep.
    """
    phi = basis.matrix() @ coeffs
    if certify:
        est, control, _ = error_estimator(inst, phi)
    else:
        est, control = None, dynamics.solve_adjoint_backward(inst, phi)
    return ReducedSolution(coeffs=coeffs, phiT_approx=phi, control=control, estimated_error=est)


def rom_online(inst, basis, certify=True):
    """Evaluate the reduced model at one instance (Galerkin projection).

    Projects onto the perturbed-state span and answers through
    ``reduced_solution``.  A certified query costs 5 sweeps: the
    right-hand side, two over the N basis columns at once, and the
    certificate's two, the same two a certified surrogate query runs.
    """
    coeffs, _ = project_coefficients(inst, basis)
    return reduced_solution(inst, basis, coeffs, certify)


def _basis_meta(meta):
    """``meta`` if it keeps the basis file's rule, which ``save_basis`` and
    ``load_basis`` apply: a string family, finite positive tolerance and weight."""
    if not isinstance(meta["family"], str):
        raise ValueError(f"family {meta['family']!r} is not a string")
    for name in ("ip_weight", "tolerance"):
        if not (persist.is_real(meta[name]) and 0 < meta[name] < np.inf):
            raise ValueError(f"{name} {meta[name]!r} is not a finite positive real number")
    return meta


def save_basis(basis, path):
    """Write a reduced basis as a ``persist`` file of kind ``basis``: the
    vectors as the rows of an (N, n) array, the selected parameters as an
    (N, p) array, family name, tolerance and inner-product weight as meta.

    A basis with a greedy history also stores it, as ``estimates`` (N+1),
    the estimated maximum error of each row, and ``true_errors`` (N), the
    true error of each selection row, which pairs row for row with the
    selected parameters.  A row's basis size is its index."""
    meta = _basis_meta({"family": basis.family_name, "tolerance": basis.tolerance_used,
                        "ip_weight": basis.ip.weight})
    arrays = {"vectors": basis.vectors, "selected_params": basis.selected_params}
    if basis.history:
        arrays["estimates"] = [step.estimated_max_error for step in basis.history]
        arrays["true_errors"] = [step.true_error_at_selected for step in basis.history[:-1]]
    persist.write(path, "basis", meta, arrays)


def load_basis(path):
    """Read a reduced basis written by ``save_basis``, with its greedy history;
    a file without the two history arrays loads with an empty history."""
    _, meta, arrays = persist.read(path, "basis")
    try:
        _basis_meta(meta)
        basis = ReducedBasis(
            vectors=arrays["vectors"],
            selected_params=arrays["selected_params"],
            ip=InnerProduct(weight=meta["ip_weight"]),
            tolerance_used=meta["tolerance"],
            family_name=meta["family"],
        )
        if "estimates" in arrays or "true_errors" in arrays:
            estimates, true_errors = arrays["estimates"], arrays["true_errors"]
            if estimates.shape != (basis.size + 1,) or true_errors.shape != (basis.size,):
                raise ValueError(f"estimates of shape {estimates.shape} and true errors of shape "
                                 f"{true_errors.shape} do not pair up with {basis.size} "
                                 f"selected parameters")
            basis.history = [GreedyStep(float(estimate), float(true_error))
                             for estimate, true_error in zip(estimates, true_errors)]
            basis.history.append(GreedyStep(float(estimates[-1])))
        return basis
    except KeyError as exc:
        raise ValueError(f"{path}: basis record lacks {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_training_data(data, path):
    """Write training data as a ``persist`` file of kind ``training_data``
    holding its two arrays under their field names."""
    persist.write(path, "training_data", {}, vars(data))


def load_training_data(path, n_params):
    """Read training data written by ``save_training_data``; the parameters
    must have ``n_params`` components."""
    _, _, arrays = persist.read(path, "training_data")
    try:
        data = TrainingData(arrays["parameters"], arrays["coefficients"])
        if data.parameters.shape[1] != n_params:
            raise ValueError(f"{data.parameters.shape[1]} parameter columns, expected {n_params}")
        return data
    except KeyError as exc:
        raise ValueError(f"{path}: training data record lacks {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
