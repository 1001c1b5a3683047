"""Exception types shared across the package."""


class CtrlRomError(Exception):
    """Base class for all package-specific errors."""


class ConvergenceError(CtrlRomError):
    """Iterative solver exhausted its budget.

    Carries the best iterate found so far together with its residual norm
    and the number of iterations performed.
    """

    def __init__(self, message, best_iterate, residual_norm, iterations):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.residual_norm = residual_norm
        self.iterations = iterations


class GramMatrixError(CtrlRomError):
    """Normal-equation Gram matrix is numerically singular."""

    def __init__(self, message, basis_size):
        super().__init__(message)
        self.basis_size = basis_size


class GreedyBudgetError(CtrlRomError):
    """Greedy loop hit max_basis before reaching the tolerance.

    The partially built basis and training data are attached so callers can
    inspect or reuse them.
    """

    def __init__(self, message, basis, training_data):
        super().__init__(message)
        self.basis = basis
        self.training_data = training_data


class TrainingError(CtrlRomError):
    """All restarts of a surrogate training run failed."""
