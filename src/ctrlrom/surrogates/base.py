"""Shared interface for parameter-to-coefficient regressors."""

import numpy as np

from .. import persist


def sq_dists(x, y):
    """Squared Euclidean distances between the rows of x and the rows of y."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    return np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1)


class CoefficientRegressor:
    """Base class for surrogates mapping parameters to reduced coefficients,
    and the one owner of their contract.

    Subclasses set ``kind`` and ``min_pairs``, the fewest training pairs a
    fit accepts, implement ``_fit(X, Y)`` and ``_predict_one(x)``, and name
    the fitted attributes ``predict`` reads: positive scalars in
    ``hyper_parameters``, arrays in ``fitted_arrays`` with the shape of
    each.  A shape's entries are sizes or the names ``"n_outputs"``,
    ``"inputs"`` (the parameter dimension) and ``"rows"`` (the model's own
    row count, such as its centers).  ``fit`` checks the pair count, calls
    ``_fit`` and records ``n_inputs`` and ``n_outputs``; ``save`` writes the
    fitted attributes, and ``surrogates.load_model``, the one reader of a
    model file of any kind, reads them back through ``_from_record``, which
    checks the header values' types and the arrays' shapes (``persist.read``
    has checked that every number is finite) and sets them, ``n_inputs``
    too, on a model built with default arguments.  Prediction is
    deterministic after fitting and maps ``n_inputs`` parameter components
    to ``n_outputs`` coefficients, as many as the model's basis has vectors.
    """

    kind = "abstract"
    hyper_parameters = ()
    fitted_arrays = {}

    def __init__(self, seed=0):
        self.seed = int(seed)
        self.n_inputs = None
        self.n_outputs = None

    def fit(self, data):
        """Fit to the pairs of a ``TrainingData`` record; returns the model."""
        X, Y = data.parameters, data.coefficients
        if len(X) < self.min_pairs:
            raise ValueError(f"{self.kind} fit: need at least {self.min_pairs} training "
                             f"pair{'s' * (self.min_pairs > 1)}, got {len(X)}")
        self._fit(X, Y)
        self.n_inputs, self.n_outputs = X.shape[1], Y.shape[1]
        return self

    def _fit(self, X, Y):
        raise NotImplementedError

    def _predict_one(self, x):
        raise NotImplementedError

    def predict(self, mu):
        if self.n_outputs is None:
            raise RuntimeError(f"{self.kind} model used before fitting")
        x = np.atleast_1d(np.asarray(mu, dtype=float))
        if x.shape != (self.n_inputs,):
            raise ValueError(f"{self.kind} model takes a parameter of length {self.n_inputs}, got "
                             f"one of shape {x.shape}")
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
    def _from_record(cls, path, meta, arrays):
        """The model in the record ``persist.read`` returned for ``path``:
        ``n_outputs`` must be an integer, every hyper-parameter a positive
        number and every array of its shape, or a ``ValueError`` names the
        file."""
        model = cls()
        try:
            for name in ("n_outputs", *cls.hyper_parameters):
                value, integer = meta[name], name == "n_outputs"
                if not (persist.is_real(value) and (isinstance(value, int) if integer
                                                    else value > 0)):
                    what = "an integer" if integer else "a positive real number"
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
            model.n_inputs = sizes["inputs"]
            model._set_arrays(arrays)
        except KeyError as exc:
            raise ValueError(f"{path}: {cls.kind} record lacks {exc}") from None
        return model
