"""Small feedforward network regressor trained from scratch.

Architecture is fixed to three tanh hidden layers of 50 neurons and a
linear output layer.  Targets are affinely mapped per coefficient to [0, 1]
over the training set before fitting, because the coefficients of a greedy
basis decay strongly in magnitude and would otherwise be learned unevenly.
Training minimizes the mean squared error by full-batch gradient descent
with adaptive moment estimates (base rate ``LEARNING_RATE`` = 0.01, halved
every 1000 steps), early-stopped on a held-out share ``VAL_FRACTION`` = 0.1
of the pairs once more than ``PATIENCE`` = 10 validation checks, one every
``CHECK_EVERY`` = 25 steps, bring no new best; the best of several random
restarts (by final training loss) wins.
"""

import numpy as np

from ..errors import TrainingError
from .base import CoefficientRegressor

HIDDEN_LAYERS = (50, 50, 50)
VAL_FRACTION = 0.1  # share of the training pairs held out for validation
PATIENCE = 10  # stop after more checks than this without a new best
LEARNING_RATE = 0.01  # base rate, halved every 1000 steps
CHECK_EVERY = 25  # optimizer steps between validation checks


def init_params(layer_sizes, rng):
    """Glorot-uniform weights, zero biases."""
    params = []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        params.append(rng.uniform(-limit, limit, size=(n_out, n_in)))
        params.append(np.zeros(n_out))
    return params


def forward(params, X):
    """Forward pass; returns output and per-layer activations for backprop."""
    activations = [X]
    a = X
    n_layers = len(params) // 2
    for i in range(n_layers):
        W, b = params[2 * i], params[2 * i + 1]
        z = a @ W.T + b
        a = z if i == n_layers - 1 else np.tanh(z)
        activations.append(a)
    return a, activations


def mse_loss(params, X, Y):
    out, _ = forward(params, X)
    return float(np.mean(np.sum((out - Y) ** 2, axis=1)))


def loss_gradients(params, X, Y):
    """Backpropagation of the mean squared error."""
    out, activations = forward(params, X)
    n_layers = len(params) // 2
    grads = [None] * len(params)
    delta = 2.0 * (out - Y) / X.shape[0]
    for i in range(n_layers - 1, -1, -1):
        W = params[2 * i]
        a_prev = activations[i]
        grads[2 * i] = delta.T @ a_prev
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ W) * (1.0 - activations[i] ** 2)
    return grads


class MLPRegressor(CoefficientRegressor):
    kind = "mlp"
    fitted_arrays = ("y_min", "y_span")

    def __init__(self, seed=0, restarts=10, max_steps=5000):
        super().__init__(seed=seed)
        if restarts < 1:
            raise ValueError(f"mlp needs at least one restart, got {restarts}")
        self.restarts = int(restarts)
        self.max_steps = int(max_steps)
        self.params = None
        self.y_min = None
        self.y_span = None

    def _train_once(self, layer_sizes, X, Yn, train_idx, val_idx, rng):
        params = init_params(layer_sizes, rng)
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        Xt, Yt = X[train_idx], Yn[train_idx]
        Xv, Yv = X[val_idx], Yn[val_idx]
        best_val = np.inf
        best_params = [p.copy() for p in params]
        checks = 0
        best_check = 0
        for step in range(1, self.max_steps + 1):
            grads = loss_gradients(params, Xt, Yt)
            lr = LEARNING_RATE * 0.5 ** (step // 1000)
            for i, g in enumerate(grads):
                m[i] = beta1 * m[i] + (1 - beta1) * g
                v[i] = beta2 * v[i] + (1 - beta2) * g**2
                m_hat = m[i] / (1 - beta1**step)
                v_hat = v[i] / (1 - beta2**step)
                params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            # validation is polled on a coarser grid than the optimizer steps
            # so the patience window spans a meaningful stretch of training
            if step % CHECK_EVERY == 0:
                checks += 1
                val = mse_loss(params, Xv, Yv)
                if not np.isfinite(val):
                    return None, np.inf
                if val < best_val:
                    best_val = val
                    best_params = [p.copy() for p in params]
                    best_check = checks
                elif checks - best_check > PATIENCE:
                    break
        return best_params, mse_loss(best_params, Xt, Yt)

    def fit(self, data):
        X = data.inputs()
        Y = data.targets()
        n = X.shape[0]
        if n < 5:
            raise ValueError("need at least five training pairs")
        layer_sizes = [X.shape[1], *HIDDEN_LAYERS, Y.shape[1]]

        self.y_min = Y.min(axis=0)
        self.y_span = Y.max(axis=0) - self.y_min
        scale = np.where(self.y_span > 0.0, self.y_span, 1.0)
        Yn = (Y - self.y_min) / scale

        # validation split: last ceil(VAL_FRACTION * n) entries of a
        # seed-shuffled ordering
        order = np.random.default_rng(self.seed).permutation(n)
        n_val = max(1, int(np.ceil(VAL_FRACTION * n)))
        val_idx, train_idx = order[n - n_val :], order[: n - n_val]

        best = (np.inf, None)
        for r in range(self.restarts):
            rng = np.random.default_rng(self.seed * 100003 + r)
            params, train_loss = self._train_once(layer_sizes, X, Yn, train_idx, val_idx, rng)
            if params is not None and train_loss < best[0]:
                best = (train_loss, params)
        if best[1] is None:
            raise TrainingError("all mlp restarts diverged")
        self.params = best[1]
        self.n_outputs = Y.shape[1]
        return self

    def _predict_one(self, x):
        out, _ = forward(self.params, x[None, :])
        return out[0] * np.where(self.y_span > 0.0, self.y_span, 1.0) + self.y_min

    def _arrays(self):
        # weights and biases alternate, layer by layer
        return {**super()._arrays(), **{f"param_{i}": p for i, p in enumerate(self.params)}}

    def _set_arrays(self, arrays):
        super()._set_arrays(arrays)
        self.params = [a for name, a in arrays.items() if name.startswith("param_")]
