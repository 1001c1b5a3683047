"""Certified reduced-order models for parametrized linear-quadratic optimal
control, with learned surrogates for the online phase."""

from .numerics import InnerProduct, cg_solve, gram_schmidt_extend
from .system import (
    ParameterDomain,
    ProblemFamily,
    ProblemInstance,
    TimeGrid,
    build_heat_family,
    build_wave_family,
    sample_grid,
    sample_random,
)
from .dynamics import (
    apply_gramian,
    apply_system_operator,
    control_norm_dt,
    evaluate_cost,
    rhs_vector,
    solve_adjoint_backward,
    solve_state_forward,
)
from .exact_solver import ExactSolution, assemble_dense_operator, error_estimator, solve_exact
from .greedy_rom import (
    ReducedBasis,
    ReducedSolution,
    TrainingData,
    greedy_offline,
    load_basis,
    load_training_data,
    project_coefficients,
    rom_online,
    save_basis,
    save_training_data,
)
from .surrogates import make_regressor, surrogate_online

__version__ = "0.1.0"
