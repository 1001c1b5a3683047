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
result bit for bit, in either float64 or float32, so every restart follows
the arithmetic it would follow alone.

Training runs in float32.  ``init_params`` draws each restart's weights in
float64, from its restart's seeded stream, and the stack is cast once; the
training and validation pairs, Adam's moments, the best copies and every
buffer are float32 too.  The winners come back cast to float64, which is
exact, and ``fit`` ranks them by their float64 training loss on the original
pairs.  A fitted model's weights are thus float32 values stored as float64:
prediction and the file stay float64.  The fit's own error (a mean adjoint
error near 2e-4 on heat) lies three orders of magnitude above float32's unit
roundoff (6e-8), so float64 training would buy no accuracy, only twice the
bytes per step.

A fit allocates its arrays once, sized for every restart: restarts x (6 x
parameters + pairs x (4 x 50 + outputs)) float32 values, for the weights,
their best copy, Adam's two moments, the gradients and one temporary, and
for the three hidden activations, one product delta @ W and the output of
every training pair; about 1.9 MB at 10 restarts, 57 pairs and 9 outputs
(heat at paper scale).  Each of the six parameter-sized arrays is one flat
(restarts, parameters per network) array, a row per restart; ``forward``,
``loss_gradients`` and ``Work.grads`` see its per-layer views, and Adam
updates the flat rows with 14 ufunc calls per step, whatever the number of
layers.  A step writes into the arrays in place or through ``out=``, with
the ufuncs and the order of the allocating expressions, so it does their
float32 arithmetic bit for bit; a restart that stops moves the remaining
rows of the weights and of the two moments (three row copies per restart
that stays) to the front, every array shrinks to a view of its first rows,
and a new best copies one row.
"""

import math
from typing import NamedTuple

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


def _layers(flat, shapes):
    """The per-layer arrays of the networks whose parameters are the rows of
    ``flat``, laid out as ``init_params`` lists them: views, not copies."""
    layers, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        layers.append(flat[:, start:start + size].reshape(len(flat), *shape))
        start += size
    return layers


class Work(NamedTuple):
    """Buffers that ``forward`` and ``loss_gradients`` write into instead of
    allocating: each layer's output (pairs, out), which the backward pass
    overwrites with the layer's delta, the product delta @ W of every hidden
    layer (one array per width, shared by the layers of that width) and the
    gradients ``grads``, arrays shaped like the parameters.  Every array
    leads with the stack axis, so ``rows(k)`` serves the first k networks of
    the stack."""

    outputs: list
    products: list
    grads: list

    @classmethod
    def allocate(cls, params, pairs, grads):
        stack = params[0].shape[:-2]
        widths = [W.shape[-2] for W in params[::2]]
        dtype = params[0].dtype
        by_width = {w: np.empty((*stack, pairs, w), dtype) for w in widths[:-1]}
        return cls([np.empty((*stack, pairs, w), dtype) for w in widths],
                   [by_width[w] for w in widths[:-1]], grads)

    def rows(self, k):
        return Work(*([a[:k] for a in arrays] for arrays in self))


def forward(params, X, work=None):
    """Forward pass; returns output and per-layer activations for backprop.

    The inputs ``X`` (pairs, in) are shared by every network of a stack.
    The activations are written into ``work.outputs`` if given.
    """
    n_layers = len(params) // 2
    outputs = [None] * n_layers if work is None else work.outputs
    activations = [X]
    a = X
    for i in range(n_layers):
        W, b = params[2 * i], params[2 * i + 1]
        a = np.matmul(a, W.swapaxes(-1, -2), out=outputs[i])
        np.add(a, b[..., None, :], out=a)
        if i < n_layers - 1:
            np.tanh(a, out=a)
        activations.append(a)
    return a, activations


def mse_loss(params, X, Y):
    """Mean squared error: a float for one network, an array for a stack."""
    out, _ = forward(params, X)
    loss = np.mean(np.sum((out - Y) ** 2, axis=-1), axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def loss_gradients(params, X, Y, work=None):
    """Backpropagation of the mean squared error.

    With ``work`` (a ``Work`` sized for ``params`` and ``X``) every array is
    written into its buffers and nothing is allocated; the arithmetic is the
    same either way.  The activations are overwritten by the deltas.
    """
    out, activations = forward(params, X, work)
    n_layers = len(params) // 2
    if work is None:
        grads, products = [None] * len(params), [None] * n_layers
    else:
        grads, products = work.grads, work.products
    delta = np.subtract(out, Y, out=out)
    np.multiply(2.0, delta, out=delta)
    np.divide(delta, X.shape[0], out=delta)
    for i in range(n_layers - 1, -1, -1):
        W = params[2 * i]
        a_prev = activations[i]
        grads[2 * i] = np.matmul(delta.swapaxes(-1, -2), a_prev, out=grads[2 * i])
        grads[2 * i + 1] = np.sum(delta, axis=-2, out=grads[2 * i + 1])
        if i > 0:
            # a_prev has served its gradient: it turns into 1 - a_prev^2,
            # then into the next delta
            product = np.matmul(delta, W, out=products[i - 1])
            np.square(a_prev, out=a_prev)
            np.subtract(1.0, a_prev, out=a_prev)
            delta = np.multiply(product, a_prev, out=a_prev)
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
    min_pairs = 5
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
        """Adam on every restart at once, in float32; returns the restarts'
        weights at their best validation loss, stacked and cast back to
        float64, and which restarts diverged."""
        inits = [init_params(layer_sizes, np.random.default_rng(self.seed * 100003 + r))
                 for r in range(self.restarts)]
        shapes = [a.shape for a in inits[0]]
        # the weights p, Adam's moments m and v, the gradients g and a
        # temporary t hold a row per restart still training and a column per
        # parameter; the passes see the per-layer views of p and g
        p = np.array([np.concatenate([a.ravel() for a in init]) for init in inits],
                     dtype=np.float32)
        best, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
        g, t = np.empty_like(p), np.empty_like(p)
        Xt, Yt, Xv, Yv = (a.astype(np.float32) for a in (Xt, Yt, Xv, Yv))
        params = _layers(p, shapes)
        work = Work.allocate(params, len(Xt), _layers(g, shapes))
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        active = np.arange(self.restarts)  # the restart of each row of the stack
        best_val = np.full(self.restarts, np.inf)
        best_check = np.zeros(self.restarts, dtype=int)
        diverged = np.zeros(self.restarts, dtype=bool)
        checks = 0
        for step in range(1, self.max_steps + 1):
            loss_gradients(params, Xt, Yt, work)  # into g
            lr = LEARNING_RATE * 0.5 ** (step // 1000)
            # m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g^2 and
            # p = p - lr m_hat / (sqrt(v_hat) + eps), in place; g turns into
            # the v terms and t into the m terms
            m *= beta1
            m += np.multiply(g, 1 - beta1, out=t)
            v *= beta2
            v += np.multiply(np.square(g, out=g), 1 - beta2, out=g)
            np.divide(m, 1 - beta1**step, out=t)
            np.divide(v, 1 - beta2**step, out=g)
            np.sqrt(g, out=g)
            g += eps
            t *= lr
            t /= g
            p -= t
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
            for row in np.flatnonzero(improved):
                best[active[row]] = p[row]
            diverged[active[~finite]] = True
            # a restart leaves the stack where it diverges or runs out of
            # patience; the rows that stay move to the front
            stays = finite & (checks - best_check[active] <= PATIENCE)
            if not stays.all():
                active = active[stays]
                if active.size == 0:
                    break
                for row, kept_row in enumerate(np.flatnonzero(stays)):
                    for a in (p, m, v):
                        a[row] = a[kept_row]
                k = active.size
                p, m, v, g, t = (a[:k] for a in (p, m, v, g, t))
                params = _layers(p, shapes)
                work = work.rows(k)
        return [layer.astype(np.float64) for layer in _layers(best, shapes)], diverged

    def _fit(self, X, Y):
        n = X.shape[0]
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

    def _predict_one(self, x):
        out, _ = forward(self.params, x[None, :])
        return out[0] * np.where(self.y_span > 0.0, self.y_span, 1.0) + self.y_min

    def _arrays(self):
        return {"y_min": self.y_min, "y_span": self.y_span,
                **{f"param_{i}": p for i, p in enumerate(self.params)}}

    def _set_arrays(self, arrays):
        self.y_min, self.y_span = arrays["y_min"], arrays["y_span"]
        self.params = [arrays[name] for name in self.fitted_arrays if name.startswith("param_")]
