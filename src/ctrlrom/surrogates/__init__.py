"""Learned parameter-to-coefficient maps and their certified evaluation.

Three interchangeable regressors predict reduced coefficients from a
parameter: greedy sparse kernel interpolation, Gaussian process regression
and a small feedforward network.  A certified query expands the prediction
in the reduced basis and reconstructs its control and certificate with one
backward and one forward sweep, independent of the basis size; without
certification only the backward sweep runs.
"""

from dataclasses import dataclass

import numpy as np

from .. import dynamics, persist
from ..exact_solver import error_estimator, solve_exact
from ..greedy_rom import ReducedSolution, project_coefficients
from .base import CoefficientRegressor
from .gpr import GPRegressor
from .kernel import KernelRegressor
from .mlp import MLPRegressor

REGRESSOR_CLASSES = {
    "kernel": KernelRegressor,
    "gpr": GPRegressor,
    "mlp": MLPRegressor,
}


def make_regressor(kind, **settings):
    """Instantiate a regressor by kind name ('kernel' | 'gpr' | 'mlp')."""
    try:
        cls = REGRESSOR_CLASSES[kind]
    except KeyError:
        raise ValueError(f"unknown regressor kind '{kind}'") from None
    return cls(**settings)


def load_model(path):
    """Load a persisted surrogate of any kind, dispatching on its header."""
    kind, _, _ = persist.read(path, *REGRESSOR_CLASSES)
    return REGRESSOR_CLASSES[kind].load(path)


def surrogate_online(inst, basis, model, certify=True):
    """Evaluate a fitted surrogate at one instance and reconstruct the control.

    The predicted coefficients are expanded in the reduced basis.  Certified,
    the control and the estimate come from one ``error_estimator`` call (two
    sweeps); uncertified, the control follows from one backward sweep.
    """
    if model.n_outputs != basis.size:
        raise ValueError(
            f"model predicts {model.n_outputs} coefficients but basis has size {basis.size}"
        )
    if inst.parameter is None:
        raise ValueError("instance does not carry its parameter; build it from a family")
    coeffs = model.predict(inst.parameter)
    phi = basis.combine(coeffs)
    if certify:
        est, control, _ = error_estimator(inst, phi)
    else:
        est = None
        control = dynamics.solve_adjoint_backward(inst, phi)
    return ReducedSolution(coeffs=coeffs, phiT_approx=phi, control=control, estimated_error=est)


@dataclass
class AuditRow:
    """Per-pair record of the surrogate error decomposition."""

    parameter: np.ndarray
    coefficient_error: float
    adjoint_shift: float
    greedy_residual: float
    certified_error: float
    true_error: float | None
    a_priori_bound: float


@dataclass
class AuditReport:
    rows: list
    eps_tilde: float

    @property
    def max_coefficient_error(self):
        return max(r.coefficient_error for r in self.rows)

    def greedy_residuals_within_tolerance(self):
        """Whether every projected adjoint meets the offline stopping tolerance."""
        return all(r.greedy_residual <= self.eps_tilde for r in self.rows)


def ml_error_bound_audit(family, basis, model, data, eps_tilde, check_true_errors=True,
                         cg_tol=1e-12, cg_max_iter=None):
    """Decompose the surrogate error against its two-term a priori bound.

    For pairs with known reduced coefficients, reports the coefficient error
    (which equals the induced adjoint shift exactly, because the basis is
    orthonormal), the greedy residual of the projected adjoint, the certified
    residual of the predicted adjoint, and, optionally, the true error
    against the exact solve.  The a priori bound is the greedy residual plus
    the coefficient error.  The certified residual is the estimate
    ``surrogate_online`` reports for the same prediction.
    """
    rows = []
    for mu, alpha in data.pairs:
        inst = family.build(mu)
        alpha_hat = model.predict(np.atleast_1d(mu))
        coeff_err = float(np.linalg.norm(alpha - alpha_hat))
        phi_hat = basis.combine(alpha_hat)
        shift = inst.ip.norm(basis.combine(alpha) - phi_hat)
        _, greedy_res = project_coefficients(inst, basis)
        certified, _, _ = error_estimator(inst, phi_hat)
        true_err = None
        if check_true_errors:
            reference = solve_exact(inst, cg_tol=cg_tol, max_iter=cg_max_iter)
            true_err = inst.ip.norm(reference.phiT - phi_hat)
        rows.append(
            AuditRow(
                parameter=np.atleast_1d(mu),
                coefficient_error=coeff_err,
                adjoint_shift=shift,
                greedy_residual=greedy_res,
                certified_error=certified,
                true_error=true_err,
                a_priori_bound=greedy_res + coeff_err,
            )
        )
    return AuditReport(rows=rows, eps_tilde=eps_tilde)
