"""Sparse Gaussian-kernel regression with greedy center selection.

Centers are picked from the training inputs by maximizing the power
function, the pointwise worst-case interpolation error bound of the current
center set.  Selection, power updates and the interpolant itself are all
maintained in the Newton basis, the numerically stable incremental form:
the raw kernel matrix of a flat Gaussian kernel is catastrophically
ill-conditioned, while the Newton triangle has its selection-time power
values on the diagonal, which the stopping tolerance ``P_GREEDY_TOL`` =
1e-10 on the squared power function keeps away from zero.
"""

import numpy as np
from scipy.linalg import solve_triangular

from .base import CoefficientRegressor, sq_dists

P_GREEDY_TOL = 1e-10  # selection stops once the squared power is below this everywhere


def gaussian_kernel(x, y, beta):
    """k(x, y) = exp(-(beta * |x - y|)^2) for rows of x against rows of y."""
    return np.exp(-(beta**2) * sq_dists(x, y))


class KernelRegressor(CoefficientRegressor):
    kind = "kernel"
    min_pairs = 1
    hyper_parameters = ("beta",)
    fitted_arrays = {"centers": ("rows", "inputs"), "newton_triangle": ("rows", "rows"),
                     "coefficients": ("rows", "n_outputs")}

    def __init__(self, beta=1.0, seed=0):
        super().__init__(seed=seed)
        if not beta > 0:
            raise ValueError("kernel shape parameter must be positive")
        self.beta = float(beta)
        self.centers = None
        self.newton_triangle = None  # rows of the Newton basis at the centers
        self.coefficients = None

    def _fit(self, X, Y):
        """Greedy center selection and interpolation in the Newton basis.

        The squared power function starts at k(x, x) = 1 everywhere and
        shrinks by the squared Newton column of each accepted center; the
        interpolant is extended alongside, so the training residual at the
        selected centers vanishes by construction.
        """
        n = X.shape[0]

        power = np.ones(n)
        newton = np.zeros((n, 0))
        residual = Y.astype(float).copy()
        coeffs = []
        selected = []
        while len(selected) < n:
            j = int(np.argmax(power))
            if power[j] < P_GREEDY_TOL:
                break
            col = gaussian_kernel(X, X[j : j + 1], self.beta)[:, 0]
            if selected:
                col = col - newton @ newton[j]
            col = col / np.sqrt(power[j])
            c = residual[j] / col[j]
            residual = residual - np.outer(col, c)
            newton = np.column_stack([newton, col])
            power = np.maximum(power - col**2, 0.0)
            coeffs.append(c)
            selected.append(j)

        self.centers = np.ascontiguousarray(X[selected])
        self.newton_triangle = np.ascontiguousarray(newton[selected])
        self.coefficients = np.ascontiguousarray(coeffs)

    def _newton_values(self, x):
        """Newton basis functions of the selected centers at inputs x."""
        kvec = gaussian_kernel(x, self.centers, self.beta)
        # N(x) solves N(x) L^T = k(x, centers) with the unit-power diagonal
        # of the triangle bounded below by the selection tolerance
        return solve_triangular(self.newton_triangle, kvec.T, lower=True).T

    def _predict_one(self, x):
        return self._newton_values(x[None, :])[0] @ self.coefficients

    def power_function(self, x):
        """Squared power function of the selected centers at inputs x.

        Recomputed from the Newton representation rather than the greedy
        loop's running array, so it can audit the selection; it vanishes at
        the centers.
        """
        values = self._newton_values(np.atleast_2d(x))
        return np.maximum(1.0 - np.sum(values**2, axis=1), 0.0)
