"""Small feedforward network regressor trained from scratch.

Architecture is fixed to three tanh hidden layers of 50 neurons and a
linear output layer.  Targets are affinely mapped per coefficient to [0, 1]
over the training set before fitting, because the coefficients of a greedy
basis decay strongly in magnitude and would otherwise be learned unevenly.
Training minimizes the mean squared error by full-batch gradient descent
with adaptive moment estimates (base rate ``LEARNING_RATE`` = 0.01, halved
every 1000 steps), early-stopped on a held-out share ``VAL_FRACTION`` = 0.1
of the pairs once more than ``PATIENCE`` = 10 validation checks, one every
``CHECK_EVERY`` = 25 steps and one after the last step, bring no new best;
the best of several random restarts (by final training loss) wins.

The restarts are trained together, as one network stacked along a leading
axis: each weight is (restarts, out, in) and each bias (restarts, out), and
one gradient evaluation and one update per step serve every restart still
training.  ``forward``, ``loss_gradients`` and ``mse_loss`` take one network
or such a stack; a slice of a stacked result equals the single network's
result bit for bit, so every restart follows the arithmetic it would follow
alone.  Working memory grows as restarts x (parameters + pairs x 50 floats),
about 5 MB at the default 10 restarts.
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
    """Forward pass; returns output and per-layer activations for backprop.

    The inputs ``X`` (pairs, in) are shared by every network of a stack.
    """
    activations = [X]
    a = X
    n_layers = len(params) // 2
    for i in range(n_layers):
        W, b = params[2 * i], params[2 * i + 1]
        z = np.matmul(a, W.swapaxes(-1, -2)) + b[..., None, :]
        a = z if i == n_layers - 1 else np.tanh(z)
        activations.append(a)
    return a, activations


def mse_loss(params, X, Y):
    """Mean squared error: a float for one network, an array for a stack."""
    out, _ = forward(params, X)
    loss = np.mean(np.sum((out - Y) ** 2, axis=-1), axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def loss_gradients(params, X, Y):
    """Backpropagation of the mean squared error."""
    out, activations = forward(params, X)
    n_layers = len(params) // 2
    grads = [None] * len(params)
    delta = 2.0 * (out - Y) / X.shape[0]
    for i in range(n_layers - 1, -1, -1):
        W = params[2 * i]
        a_prev = activations[i]
        grads[2 * i] = np.matmul(delta.swapaxes(-1, -2), a_prev)
        grads[2 * i + 1] = delta.sum(axis=-2)
        if i > 0:
            delta = np.matmul(delta, W) * (1.0 - activations[i] ** 2)
    return grads


def _param_shapes(layer_sizes):
    """The file's ``param_<i>``: weights (out, in) and biases (out,)
    alternating, layer by layer, as ``init_params`` lays them out."""
    shapes = {}
    for i, (n_in, n_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        shapes[f"param_{2 * i}"] = (n_out, n_in)
        shapes[f"param_{2 * i + 1}"] = (n_out,)
    return shapes


class MLPRegressor(CoefficientRegressor):
    kind = "mlp"
    fitted_arrays = {"y_min": ("n_outputs",), "y_span": ("n_outputs",),
                     **_param_shapes(("inputs", *HIDDEN_LAYERS, "n_outputs"))}

    def __init__(self, seed=0, restarts=10, max_steps=5000):
        super().__init__(seed=seed)
        if restarts < 1:
            raise ValueError(f"mlp needs at least one restart, got {restarts}")
        if max_steps < 1:
            raise ValueError(f"mlp needs at least one training step, got {max_steps}")
        self.restarts = int(restarts)
        self.max_steps = int(max_steps)
        self.params = None
        self.y_min = None
        self.y_span = None

    def _train(self, layer_sizes, Xt, Yt, Xv, Yv):
        """Adam on every restart at once; returns the restarts' weights at
        their best validation loss, stacked, and which restarts diverged."""
        inits = [init_params(layer_sizes, np.random.default_rng(self.seed * 100003 + r))
                 for r in range(self.restarts)]
        params = [np.stack(layer) for layer in zip(*inits)]
        best = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        active = np.arange(self.restarts)  # the restart of each row of the stack
        best_val = np.full(self.restarts, np.inf)
        best_check = np.zeros(self.restarts, dtype=int)
        diverged = np.zeros(self.restarts, dtype=bool)
        checks = 0
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
            # so the patience window spans a meaningful stretch of training;
            # the last step is checked too, so no step goes unused
            if step % CHECK_EVERY and step < self.max_steps:
                continue
            checks += 1
            val = mse_loss(params, Xv, Yv)
            finite = np.isfinite(val)
            improved = finite & (val < best_val[active])
            best_val[active[improved]] = val[improved]
            best_check[active[improved]] = checks
            for kept, p in zip(best, params):
                kept[active[improved]] = p[improved]
            diverged[active[~finite]] = True
            # a restart leaves the stack where it diverges or runs out of patience
            stays = finite & (checks - best_check[active] <= PATIENCE)
            if not stays.all():
                active = active[stays]
                if active.size == 0:
                    break
                params, m, v = ([a[stays] for a in arrays] for arrays in (params, m, v))
        return best, diverged

    def fit(self, data):
        X, Y = data.parameters, data.coefficients
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

        Xt, Yt = X[train_idx], Yn[train_idx]
        best, diverged = self._train(layer_sizes, Xt, Yt, X[val_idx], Yn[val_idx])
        train_loss = mse_loss(best, Xt, Yt)
        # a NaN loss never wins; ties go to the lowest restart index
        train_loss[diverged | np.isnan(train_loss)] = np.inf
        winner = int(np.argmin(train_loss))
        if train_loss[winner] == np.inf:
            raise TrainingError("all mlp restarts diverged")
        self.params = [p[winner].copy() for p in best]
        self.n_outputs = Y.shape[1]
        return self

    def _predict_one(self, x):
        out, _ = forward(self.params, x[None, :])
        return out[0] * np.where(self.y_span > 0.0, self.y_span, 1.0) + self.y_min

    def _arrays(self):
        return {"y_min": self.y_min, "y_span": self.y_span,
                **{f"param_{i}": p for i, p in enumerate(self.params)}}

    def _set_arrays(self, arrays):
        self.y_min, self.y_span = arrays["y_min"], arrays["y_span"]
        self.params = [arrays[name] for name in self.fitted_arrays if name.startswith("param_")]
