"""Learned parameter-to-coefficient maps and their certified evaluation.

Three interchangeable regressors predict reduced coefficients from a
parameter: greedy sparse kernel interpolation, Gaussian process regression
and a small feedforward network.  A query answers through the g-rom's own
``greedy_rom.reduced_solution``: it expands the prediction in the reduced
basis and, certified, reconstructs its control and certificate with one
backward and one forward sweep (``error_estimator``), independent of the
basis size; without certification only the backward sweep runs.
"""

from .. import persist
from ..greedy_rom import reduced_solution
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
    """Load a persisted surrogate of any kind, dispatching on the kind its
    header names; the file is read once."""
    kind, meta, arrays = persist.read(path, *REGRESSOR_CLASSES)
    return REGRESSOR_CLASSES[kind]._from_record(path, meta, arrays)


def surrogate_online(inst, basis, model, certify=True):
    """Evaluate a fitted surrogate at one instance and reconstruct the control.

    The predicted coefficients answer through ``greedy_rom.reduced_solution``:
    certified, two sweeps; uncertified, one.
    """
    if model.n_outputs != basis.size:
        raise ValueError(
            f"model predicts {model.n_outputs} coefficients but basis has size {basis.size}"
        )
    if inst.parameter is None:
        raise ValueError("instance does not carry its parameter; build it from a family")
    return reduced_solution(inst, basis, model.predict(inst.parameter), certify)

