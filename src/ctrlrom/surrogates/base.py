"""Shared interface for parameter-to-coefficient regressors."""

import math

import numpy as np

from .. import persist


def sq_dists(x, y):
    """Squared Euclidean distances between the rows of x and the rows of y."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    return np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1)


class CoefficientRegressor:
    """Base class for surrogates mapping parameters to reduced coefficients.

    Subclasses implement ``fit(training_data)`` and ``_predict_one(x)``, set
    ``kind`` and ``min_pairs``, the fewest training pairs ``fit`` accepts,
    and name the fitted attributes ``predict`` reads: scalars in
    ``hyper_parameters``, arrays in ``fitted_arrays`` with the shape of each.
    A shape's entries are sizes or the names ``"n_outputs"``, ``"inputs"``
    (the parameter dimension) and ``"rows"`` (the model's own row count,
    such as its centers).  ``save`` writes those and ``load`` checks their
    types and shapes and that they are finite, and sets them on a model
    built with default arguments.  Prediction is
    deterministic after fitting and returns an array whose length matches
    the basis size the model was trained against.
    """

    kind = "abstract"
    hyper_parameters = ()
    fitted_arrays = {}

    def __init__(self, seed=0):
        self.seed = int(seed)
        self.n_outputs = None

    def fit(self, data):
        raise NotImplementedError

    def _predict_one(self, x):
        raise NotImplementedError

    def predict(self, mu):
        if self.n_outputs is None:
            raise RuntimeError(f"{self.kind} model used before fitting")
        x = np.atleast_1d(np.asarray(mu, dtype=float))
        out = np.asarray(self._predict_one(x), dtype=float).reshape(-1)
        if out.shape[0] != self.n_outputs:
            raise RuntimeError(
                f"{self.kind} model produced {out.shape[0]} coefficients, "
                f"expected {self.n_outputs}"
            )
        return out

    def _arrays(self):
        return {name: getattr(self, name) for name in self.fitted_arrays}

    def _set_arrays(self, arrays):
        for name in self.fitted_arrays:
            setattr(self, name, arrays[name])

    def save(self, path):
        """Write the fitted model as a ``persist`` file of its kind."""
        if self.n_outputs is None:
            raise RuntimeError(f"{self.kind} model saved before fitting")
        meta = {name: getattr(self, name) for name in ("n_outputs", *self.hyper_parameters)}
        persist.write(path, self.kind, meta, self._arrays())

    @classmethod
    def load(cls, path):
        """Read a model written by ``save`` of the same kind."""
        _, meta, arrays = persist.read(path, cls.kind)
        model = cls()
        try:
            for name in ("n_outputs", *cls.hyper_parameters):
                value = meta[name]
                if not (persist.is_real(value) and math.isfinite(value)
                        and (name != "n_outputs" or isinstance(value, int))):
                    what = "an integer" if name == "n_outputs" else "a finite real number"
                    raise ValueError(f"{path}: {cls.kind} record holds {name} = {value!r}, not "
                                     f"{what}")
                setattr(model, name, value)
            sizes = {"n_outputs": model.n_outputs}  # the named sizes, bound where first met
            for name, shape in cls.fitted_arrays.items():
                found = arrays[name].shape
                expected = tuple(sizes.setdefault(d, n) if isinstance(d, str) else d
                                 for d, n in zip(shape, found))
                if len(found) != len(shape) or found != expected:
                    raise ValueError(f"{path}: {cls.kind} array {name} has shape {found}, not "
                                     f"{shape} with n_outputs = {model.n_outputs}")
                if not np.all(np.isfinite(arrays[name])):
                    raise ValueError(f"{path}: {cls.kind} array {name} holds a NaN or an "
                                     f"infinity")
            model._set_arrays(arrays)
        except KeyError as exc:
            raise ValueError(f"{path}: {cls.kind} record lacks {exc}") from None
        return model
