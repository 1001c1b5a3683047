import itertools
import json
import os
import platform
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from ctrlrom import persist
from ctrlrom.errors import TrainingError
from ctrlrom.experiment import surrogate_path
from ctrlrom.exact_solver import solve_exact
from ctrlrom.greedy_rom import TrainingData, greedy_offline, project_coefficients, rom_online
from ctrlrom.surrogates import (
    GPRegressor,
    KernelRegressor,
    MLPRegressor,
    REGRESSOR_CLASSES,
    gpr,
    load_model,
    make_regressor,
    mlp,
    surrogate_online,
)
from ctrlrom.surrogates.base import CoefficientRegressor, sq_dists
from ctrlrom.surrogates.gpr import log_marginal_likelihood
from ctrlrom.surrogates.kernel import P_GREEDY_TOL
from ctrlrom.surrogates.mlp import forward, init_params, loss_gradients, mse_loss
from ctrlrom.system import build_heat_family, build_wave_family, sample_grid

from conftest import CORRUPTIONS, corrupted_copy


def make_training_data(n=12, p=2, N=3, seed=0, mapping=None):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, p))
    if mapping is None:
        C = rng.standard_normal((N, p))
        mapping = lambda x: C @ x
    return TrainingData(X, np.array([mapping(x) for x in X], dtype=float))


def reference_lml(X, Y, c, length):
    """The log-marginal likelihood as ``cho_factor`` and ``cho_solve``
    compute it on the jittered kernel matrix of the inputs ``X``."""
    n = X.shape[0]
    K = gpr.rbf_kernel(X, X, c, length) + gpr.JITTER * np.eye(n)
    try:
        factor = cho_factor(K, lower=True)
    except np.linalg.LinAlgError:
        return -np.inf
    alpha = cho_solve(factor, Y)
    logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
    quad = float(np.sum(Y * alpha))
    return -0.5 * quad - 0.5 * Y.shape[1] * (logdet + n * np.log(2.0 * np.pi))


def reference_gpr_fit(data, restarts, seed):
    """The search ``GPRegressor.fit`` runs, on ``reference_lml``; returns the
    chosen c and length and the weights alpha."""
    X, Y = data.parameters, data.coefficients
    std = Y.std(axis=0)
    Yn = (Y - Y.mean(axis=0)) / np.where(std > 0.0, std, 1.0)
    c_box, l_box = np.log10(gpr.C_BOUNDS), np.log10(gpr.L_BOUNDS)
    starts = np.random.default_rng(seed).uniform(
        [c_box[0], l_box[0]], [c_box[1], l_box[1]], size=(restarts, 2))
    best = (-np.inf, None)
    for log_c, log_l in starts:
        for _ in range(gpr.SWEEPS):
            log_c, value = gpr._golden_max(
                lambda t: reference_lml(X, Yn, 10.0**t, 10.0**log_l), *c_box)
            log_l, value = gpr._golden_max(
                lambda t: reference_lml(X, Yn, 10.0**log_c, 10.0**t), *l_box)
        if np.isfinite(value) and value > best[0]:
            best = (value, (log_c, log_l))
    c, length = float(10.0 ** best[1][0]), float(10.0 ** best[1][1])
    K = gpr.rbf_kernel(X, X, c, length) + gpr.JITTER * np.eye(len(X))
    return c, length, cho_solve(cho_factor(K, lower=True), Yn)


def reference_restart(layer_sizes, Xt, Yt, Xv, Yv, rng, max_steps):
    """One restart's Adam loop on its own float32 network, as the fit ran
    before the restarts were stacked.  Returns (best params cast to float64
    or None if it diverged, the step it stopped at)."""
    params = [p.astype(np.float32) for p in mlp.init_params(layer_sizes, rng)]
    Xt, Yt, Xv, Yv = (a.astype(np.float32) for a in (Xt, Yt, Xv, Yv))
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    best_val = np.inf
    best_params = [p.copy() for p in params]
    checks = 0
    best_check = 0
    for step in range(1, max_steps + 1):
        grads = mlp.loss_gradients(params, Xt, Yt)
        lr = mlp.LEARNING_RATE * 0.5 ** (step // 1000)
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g**2
            m_hat = m[i] / (1 - beta1**step)
            v_hat = v[i] / (1 - beta2**step)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        if step % mlp.CHECK_EVERY == 0 or step == max_steps:
            checks += 1
            val = mlp.mse_loss(params, Xv, Yv)
            if not np.isfinite(val):
                return None, step
            if val < best_val:
                best_val = val
                best_params = [p.copy() for p in params]
                best_check = checks
            elif checks - best_check > mlp.PATIENCE:
                break
    return [p.astype(np.float64) for p in best_params], step


def reference_fit(model, data):
    """The restarts of ``model`` trained one after another; returns the
    winner's params and the step each restart stopped at."""
    X, Y = data.parameters, data.coefficients
    n = X.shape[0]
    y_min = Y.min(axis=0)
    y_span = Y.max(axis=0) - y_min
    Yn = (Y - y_min) / np.where(y_span > 0.0, y_span, 1.0)
    order = np.random.default_rng(model.seed).permutation(n)
    n_val = max(1, int(np.ceil(mlp.VAL_FRACTION * n)))
    val_idx, train_idx = order[n - n_val :], order[: n - n_val]
    layer_sizes = [X.shape[1], *mlp.HIDDEN_LAYERS, Y.shape[1]]
    best, stops = (np.inf, None), []
    for r in range(model.restarts):
        rng = np.random.default_rng(model.seed * 100003 + r)
        params, stop = reference_restart(layer_sizes, X[train_idx], Yn[train_idx],
                                         X[val_idx], Yn[val_idx], rng, model.max_steps)
        stops.append(None if params is None else stop)
        if params is None:
            continue
        loss = mlp.mse_loss(params, X[train_idx], Yn[train_idx])  # float64, as fit ranks them
        if loss < best[0]:
            best = (loss, params)
    return best[1], stops


@pytest.fixture(scope="module")
def heat_pipeline():
    fam = build_heat_family(n_y=8, T=0.1, steps_per_point=10)
    train = sample_grid(fam.domain, [4, 4])
    basis, data = greedy_offline(fam, train, tol=1e-5, cg_tol=1e-13)
    return fam, basis, data


class LookupModel(CoefficientRegressor):
    """Test double: returns the stored coefficients of known parameters."""

    kind = "lookup"

    def __init__(self, data, perturbation=None):
        super().__init__(seed=0)
        self.table = list(zip(data.parameters, data.coefficients))
        self.n_inputs, self.n_outputs = data.parameters.shape[1], data.coefficients.shape[1]
        self.perturbation = perturbation

    def fit(self, data):
        return self

    def _predict_one(self, x):
        for mu, coeffs in self.table:
            if np.allclose(mu, x, atol=1e-12):
                out = coeffs.copy()
                if self.perturbation is not None:
                    out = out + self.perturbation
                return out
        raise KeyError(f"unknown parameter {x}")


class TestKernelRegressor:
    def test_single_pair_interpolates(self):
        data = TrainingData(np.array([[0.3, 0.7]]), np.array([[2.0, -1.0]]))
        model = KernelRegressor(beta=0.5).fit(data)
        np.testing.assert_allclose(model.predict([0.3, 0.7]), [2.0, -1.0], atol=1e-12)

    def test_interpolation_at_selected_centers(self):
        data = make_training_data(n=15, seed=1)
        model = KernelRegressor(beta=1.0).fit(data)
        targets = {tuple(mu): y for mu, y in zip(data.parameters, data.coefficients)}
        for center in model.centers:
            err = np.max(np.abs(model.predict(center) - targets[tuple(center)]))
            assert err <= 1e-8

    def test_power_function_vanishes_at_centers(self):
        # independent recomputation of the power function after selection
        data = make_training_data(n=20, seed=2)
        model = KernelRegressor(beta=1.0).fit(data)
        values = model.power_function(model.centers)
        assert np.max(values) <= 1e-12

    def test_power_function_below_tolerance_elsewhere(self):
        data = make_training_data(n=25, seed=3)
        model = KernelRegressor(beta=1.0).fit(data)
        values = model.power_function(data.parameters)
        assert np.max(values) <= P_GREEDY_TOL

    def test_save_load_round_trip(self, tmp_path):
        data = make_training_data(n=10, seed=4)
        model = KernelRegressor(beta=0.8).fit(data)
        path = tmp_path / "kernel.bin"
        model.save(path)
        loaded = load_model(path)
        for mu in data.parameters:
            np.testing.assert_array_equal(loaded.predict(mu), model.predict(mu))


class TestGPRegressor:
    def test_near_interpolation_at_training_inputs(self):
        data = make_training_data(n=10, seed=5)
        model = GPRegressor(restarts=5, seed=0).fit(data)
        std = data.coefficients.std(axis=0)
        for mu, y in zip(data.parameters, data.coefficients):
            err = np.abs(model.predict(mu) - y)
            assert np.all(err <= 1e-2 * np.maximum(std, 1e-12) + 1e-8)

    def test_constant_targets_reproduced(self):
        data = make_training_data(n=8, seed=6, mapping=lambda x: np.array([4.2, -1.0]))
        model = GPRegressor(restarts=3, seed=0).fit(data)
        np.testing.assert_allclose(model.predict([0.2, 0.9]), [4.2, -1.0], atol=1e-8)

    def test_chosen_hyperparameters_beat_random_probes(self):
        # audit: the fitted likelihood should dominate random draws
        data = make_training_data(n=14, seed=7)
        model = GPRegressor(restarts=5, seed=0).fit(data)
        Y = data.coefficients
        Yn = (Y - Y.mean(axis=0)) / np.where(Y.std(axis=0) > 0, Y.std(axis=0), 1.0)
        dists = sq_dists(data.parameters, data.parameters)
        best = log_marginal_likelihood(dists, Yn, model.c, model.length)
        rng = np.random.default_rng(123)
        for _ in range(20):
            c = 10.0 ** rng.uniform(-1, 3)
            length = 10.0 ** rng.uniform(-3, 3)
            probe = log_marginal_likelihood(dists, Yn, c, length)
            assert best >= probe - 1e-9

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 20), p=st.integers(1, 2), outputs=st.integers(1, 6),
           log_c=st.floats(*np.log10(gpr.C_BOUNDS)), log_l=st.floats(*np.log10(gpr.L_BOUNDS)),
           seed=st.integers(0, 2**32 - 1))
    def test_likelihood_is_the_cho_factor_likelihood_bitwise(self, n, p, outputs, log_c,
                                                             log_l, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, size=(n, p))
        Y = rng.standard_normal((n, outputs))
        c, length = 10.0**log_c, 10.0**log_l
        dists = sq_dists(X, X)
        value = log_marginal_likelihood(dists, Y, c, length)
        assert value == reference_lml(X, Y, c, length)
        # a negative amplitude makes the kernel matrix indefinite for both
        assert log_marginal_likelihood(dists, Y, -c, length) == -np.inf
        assert reference_lml(X, Y, -c, length) == -np.inf

    @pytest.mark.parametrize("n, p, N, seed, restarts", [
        (10, 1, 3, 31, 3),
        (12, 2, 4, 32, 4),
        (6, 2, 1, 33, 2),
    ])
    def test_fit_is_the_reference_search_bitwise(self, n, p, N, seed, restarts):
        data = make_training_data(n=n, p=p, N=N, seed=seed)
        model = GPRegressor(restarts=restarts, seed=seed).fit(data)
        c, length, alpha = reference_gpr_fit(data, restarts, seed)
        assert (model.c, model.length) == (c, length)
        assert np.array_equal(model.alpha, alpha)

    def test_needs_two_pairs(self):
        data = TrainingData(np.array([[0.1]]), np.array([[1.0]]))
        with pytest.raises(ValueError):
            GPRegressor().fit(data)

    def test_save_load_round_trip(self, tmp_path):
        data = make_training_data(n=9, seed=8)
        model = GPRegressor(restarts=3, seed=1).fit(data)
        path = tmp_path / "gpr.bin"
        model.save(path)
        loaded = load_model(path)
        for mu in data.parameters:
            np.testing.assert_array_equal(loaded.predict(mu), model.predict(mu))


class TestMLPRegressor:
    def test_gradient_matches_finite_differences(self):
        # oracle: central finite differences through the full forward pass
        rng = np.random.default_rng(11)
        layers = [2, 7, 5, 3]
        params = init_params(layers, rng)
        X = rng.standard_normal((6, 2))
        Y = rng.standard_normal((6, 3))
        grads = loss_gradients(params, X, Y)
        step = 1e-6
        worst = 0.0
        for i, p in enumerate(params):
            flat = p.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up = mse_loss(params, X, Y)
                flat[j] = orig - step
                down = mse_loss(params, X, Y)
                flat[j] = orig
                fd = (up - down) / (2 * step)
                g = grads[i].ravel()[j]
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1.0))
        assert worst <= 1e-5

    def test_learns_linear_map(self):
        rng = np.random.default_rng(12)
        C = rng.standard_normal((3, 2))
        data = make_training_data(n=8, seed=12, mapping=lambda x: C @ x)
        model = MLPRegressor(seed=0, restarts=3).fit(data)
        # validation split: last entries of the seed-shuffled ordering
        order = np.random.default_rng(0).permutation(8)
        val = zip(data.parameters[order[-1:]], data.coefficients[order[-1:]])
        mse = np.mean([np.sum((model.predict(mu) - y) ** 2) for mu, y in val])
        assert mse <= 1e-3

    def test_constant_targets(self):
        data = make_training_data(n=8, seed=13, mapping=lambda x: np.array([0.7, -2.0]))
        model = MLPRegressor(seed=0, restarts=2).fit(data)
        np.testing.assert_allclose(model.predict([0.4, 0.4]), [0.7, -2.0], atol=1e-3)

    def test_needs_five_pairs(self):
        data = make_training_data(n=4, seed=14)
        with pytest.raises(ValueError):
            MLPRegressor().fit(data)

    # float32 is the dtype the fit trains in, float64 the one criterion 9 checks
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @settings(max_examples=60, deadline=None)
    @given(layers=st.lists(st.integers(1, 9), min_size=2, max_size=5),
           n=st.integers(1, 12), restarts=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_stack_slices_equal_single_networks(self, dtype, layers, n, restarts, seed):
        rng = np.random.default_rng(seed)
        nets = [[rng.standard_normal(p.shape).astype(dtype) for p in init_params(layers, rng)]
                for _ in range(restarts)]
        stack = [np.stack(layer) for layer in zip(*nets)]
        X = rng.standard_normal((n, layers[0])).astype(dtype)
        Y = rng.standard_normal((n, layers[-1])).astype(dtype)
        out, activations = forward(stack, X)
        grads = loss_gradients(stack, X, Y)
        losses = mse_loss(stack, X, Y)
        assert out.dtype == losses.dtype == dtype
        assert all(g.dtype == dtype for g in grads)
        for r, net in enumerate(nets):
            single_out, single_activations = forward(net, X)
            assert np.array_equal(out[r], single_out)
            for a, single in zip(activations[1:], single_activations[1:]):
                assert np.array_equal(a[r], single)
            for g, single in zip(grads, loss_gradients(net, X, Y)):
                assert np.array_equal(g[r], single)
            loss = mse_loss(net, X, Y)
            assert isinstance(loss, float)
            assert losses[r] == loss

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @settings(max_examples=60, deadline=None)
    @given(layers=st.lists(st.integers(1, 9), min_size=2, max_size=5),
           n=st.integers(1, 12), restarts=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_gradients_into_flat_buffer_views_equal_allocating_call(self, dtype, layers, n,
                                                                   restarts, seed):
        # the fit's weights and gradients are per-layer views of one
        # (restarts, parameters) array each, as are the first rows of a
        # shrunken stack
        rng = np.random.default_rng(seed)
        shapes = [p.shape for p in init_params(layers, rng)]
        flat = rng.standard_normal((restarts, sum(map(np.prod, shapes)))).astype(dtype)
        X = rng.standard_normal((n, layers[0])).astype(dtype)
        Y = rng.standard_normal((n, layers[-1])).astype(dtype)
        grads = np.empty_like(flat)
        params = mlp._layers(flat, shapes)
        work = mlp.Work.allocate(params, n, mlp._layers(grads, shapes))
        for k in range(restarts, 0, -1):
            rows, work = mlp._layers(flat[:k], shapes), work.rows(k)
            expected = loss_gradients([np.ascontiguousarray(p) for p in rows], X, Y)
            got = loss_gradients(rows, X, Y, work)
            assert all(np.shares_memory(g, grads) for g in got)
            for g, e, view in zip(got, expected, mlp._layers(grads[:k], shapes)):
                assert g.dtype == e.dtype == dtype
                assert np.array_equal(g, e) and np.array_equal(view, e)

    @pytest.mark.parametrize("n, seed, restarts, max_steps, distinct_stops", [
        (10, 7, 2, 300, 1),  # every restart runs to the last step
        (6, 0, 4, 1000, 2),  # restarts run out of patience at different checks
        (6, 0, 4, 410, 2),  # some stop early, the others get a check after step 410
        (8, 3, 3, 20, 1),  # one check, after the last step
    ])
    def test_stacked_fit_is_the_per_restart_fit(self, monkeypatch, n, seed, restarts, max_steps,
                                                distinct_stops):
        data = make_training_data(n=n, seed=seed)
        calls = self.count_gradient_calls(monkeypatch)
        model = MLPRegressor(seed=seed, restarts=restarts, max_steps=max_steps).fit(data)
        steps = len(calls)
        expected, stops = reference_fit(model, data)
        assert len(set(stops)) >= distinct_stops
        # the stack trains until its last restart stops
        assert steps == max(stops)
        assert len(model.params) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(model.params, expected))

    def test_diverging_restart_is_dropped(self, monkeypatch):
        # restart 1 of each fit starts from weights whose outputs overflow
        calls = itertools.count()
        init = mlp.init_params

        def huge_second(layer_sizes, rng):
            params = init(layer_sizes, rng)
            return [1e200 * p for p in params] if next(calls) % 3 == 1 else params

        monkeypatch.setattr(mlp, "init_params", huge_second)
        data = make_training_data(n=10, seed=21)
        with np.errstate(all="ignore"):
            model = MLPRegressor(seed=1, restarts=3, max_steps=100).fit(data)
            expected, stops = reference_fit(model, data)
        assert stops[1] is None and None not in (stops[0], stops[2])
        assert all(np.array_equal(a, b) for a, b in zip(model.params, expected))

    def test_restart_diverging_after_good_checks_is_dropped(self, monkeypatch):
        # NaN gradients at step 90: the weights of the checks at steps 25-75
        # do not make the one restart a winner
        calls = itertools.count(1)
        gradients = mlp.loss_gradients

        def poisoned(*args):
            # the arrays returned are the fit's own buffers: NaN goes into them
            grads = gradients(*args)
            if next(calls) == 90:
                for g in grads:
                    g.fill(np.nan)
            return grads

        monkeypatch.setattr(mlp, "loss_gradients", poisoned)
        with pytest.raises(TrainingError, match="diverged"):
            MLPRegressor(seed=0, restarts=1, max_steps=100).fit(make_training_data(n=8, seed=22))

    @staticmethod
    def count_gradient_calls(monkeypatch):
        calls = []
        gradients = mlp.loss_gradients

        def counted(*args):
            calls.append(None)
            return gradients(*args)

        monkeypatch.setattr(mlp, "loss_gradients", counted)
        return calls

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="MALLOC_MMAP_THRESHOLD_ is a glibc setting")
    def test_steps_allocate_no_fresh_pages(self, tmp_path):
        # with glibc's mmap threshold fixed at 64 KB every larger array a step
        # allocated would be mapped afresh and fault its pages in; the fit's
        # buffers are allocated once, so a step faults almost none
        data = make_training_data(n=30)
        np.save(tmp_path / "X.npy", data.parameters)
        np.save(tmp_path / "Y.npy", data.coefficients)
        child = textwrap.dedent("""
            import resource, sys
            import numpy as np
            from ctrlrom.greedy_rom import TrainingData
            from ctrlrom.surrogates import MLPRegressor, mlp

            data = TrainingData(np.load(sys.argv[1]), np.load(sys.argv[2]))
            MLPRegressor(restarts=10, max_steps=500).fit(data)  # warm-up
            steps, gradients = [], mlp.loss_gradients

            def counted(*args):
                steps.append(None)
                return gradients(*args)

            mlp.loss_gradients = counted
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            MLPRegressor(restarts=10, max_steps=500).fit(data)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, len(steps))
        """)
        env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="65536",
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        result = subprocess.run([sys.executable, "-c", child, str(tmp_path / "X.npy"),
                                 str(tmp_path / "Y.npy")], env=env, capture_output=True,
                                text=True, check=True, timeout=300)
        faults, steps = map(int, result.stdout.split())
        assert steps > 0
        assert faults < 10 * steps

    def test_one_gradient_evaluation_per_step_for_all_restarts(self, monkeypatch):
        calls = self.count_gradient_calls(monkeypatch)
        MLPRegressor(seed=0, restarts=4, max_steps=100).fit(make_training_data(n=10, seed=23))
        # one restart after another took up to 4 x 100
        assert 0 < len(calls) <= 100

    def test_trailing_steps_are_kept(self):
        data = make_training_data(n=10, seed=24)

        def fitted(max_steps):
            return MLPRegressor(seed=2, restarts=2, max_steps=max_steps).fit(data).params

        layer_sizes = [2, *mlp.HIDDEN_LAYERS, 3]
        inits = [init_params(layer_sizes, np.random.default_rng(2 * 100003 + r))[0]
                 for r in range(2)]
        assert not any(np.array_equal(fitted(20)[0], init) for init in inits)
        assert not np.array_equal(fitted(49)[0], fitted(25)[0])

    @pytest.mark.parametrize("max_steps", [0, -5])
    def test_needs_one_step(self, max_steps):
        with pytest.raises(ValueError, match="training step"):
            MLPRegressor(max_steps=max_steps)

    def test_fit_trains_in_float32_and_saves_float64(self, monkeypatch, tmp_path):
        dtypes = set()
        gradients = mlp.loss_gradients

        def recorded(params, X, Y, work):
            dtypes.update(a.dtype for a in (*params, X, Y, *itertools.chain(*work)))
            return gradients(params, X, Y, work)

        monkeypatch.setattr(mlp, "loss_gradients", recorded)
        model = MLPRegressor(seed=4, restarts=3, max_steps=200).fit(make_training_data(n=10))
        assert dtypes == {np.dtype(np.float32)}
        path = tmp_path / "mlp.bin"
        model.save(path)
        _, _, arrays = persist.read(path, "mlp")
        for i, p in enumerate(model.params):
            saved = arrays[f"param_{i}"]
            assert p.dtype == np.float64 and saved.dtype == np.dtype("<f8")
            assert np.array_equal(saved, p)
            # float32 values, stored exactly in float64
            assert np.array_equal(p.astype(np.float32).astype(np.float64), p)

    def test_save_load_round_trip(self, tmp_path):
        data = make_training_data(n=8, seed=15)
        model = MLPRegressor(seed=3, restarts=2, max_steps=400).fit(data)
        path = tmp_path / "mlp.bin"
        model.save(path)
        loaded = load_model(path)
        for mu in data.parameters:
            np.testing.assert_array_equal(loaded.predict(mu), model.predict(mu))


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("models")
    data = make_training_data(n=8, N=4, seed=15)
    models = {
        "kernel": KernelRegressor(beta=0.9),
        "gpr": GPRegressor(restarts=2),
        "mlp": MLPRegressor(seed=3, restarts=2, max_steps=400),
    }
    paths = {}
    for kind, model in models.items():
        paths[kind] = surrogate_path(outdir, kind)
        model.fit(data).save(paths[kind])
    return paths


class TestOlderModelFiles:
    """Files written while the removed settings were still saved in the meta."""

    @pytest.mark.parametrize("kind, removed", [
        ("kernel", dict(p_greedy_tol=1e-10, regularization=0.0)),
        ("gpr", dict(jitter=1e-3)),
    ])
    def test_load_and_predict_bit_identically(self, saved_models, tmp_path, kind, removed):
        model = load_model(saved_models[kind])
        _, meta, arrays = persist.read(saved_models[kind], kind)
        assert not set(removed) & set(meta)
        older = tmp_path / f"older_{kind}.bin"
        persist.write(older, kind, {**meta, **removed}, arrays)
        loaded = load_model(older)
        for probe in ([0.37, 0.61], [0.0, 1.0], [0.9, 0.05]):
            assert np.array_equal(loaded.predict(probe), model.predict(probe))


class TestCorruptModelFiles:
    @pytest.mark.parametrize("kind", ["kernel", "gpr", "mlp"])
    @pytest.mark.parametrize("change", CORRUPTIONS)
    def test_truncated_or_extended_file_rejected(self, saved_models, kind, change):
        bad = corrupted_copy(saved_models[kind], change)
        with pytest.raises(ValueError, match=re.escape(bad.name)):
            load_model(bad)


class TestInterfaceDeterminism:
    @pytest.mark.parametrize("kind,settings", [
        ("kernel", dict(beta=0.9)),
        ("gpr", dict(restarts=3, seed=7)),
        ("mlp", dict(seed=7, restarts=2, max_steps=300)),
    ])
    def test_identical_fits_identical_predictions(self, kind, settings):
        data = make_training_data(n=10, seed=20)
        a = make_regressor(kind, **settings).fit(data)
        b = make_regressor(kind, **settings).fit(data)
        probe = np.array([0.37, 0.61])
        np.testing.assert_array_equal(a.predict(probe), b.predict(probe))


class TestSurrogateOnline:
    def test_lookup_model_matches_rom_online(self, heat_pipeline):
        fam, basis, data = heat_pipeline
        model = LookupModel(data)
        mu = data.parameters[5]
        inst = fam.build(mu)
        via_surrogate = surrogate_online(inst, basis, model, certify=True)
        via_rom = rom_online(inst, basis, certify=True)
        assert inst.ip.norm(via_surrogate.phiT_approx - via_rom.phiT_approx) <= 1e-12
        assert abs(via_surrogate.estimated_error - via_rom.estimated_error) <= 1e-10
        assert via_surrogate.estimated_error == pytest.approx(via_rom.estimated_error, rel=1e-10)

    def test_certified_error_dominates_true_error(self, heat_pipeline):
        fam, basis, data = heat_pipeline
        model = GPRegressor(restarts=3, seed=0).fit(data)
        rng = np.random.default_rng(9)
        for _ in range(3):
            mu = rng.uniform(fam.domain.lows, fam.domain.highs)
            inst = fam.build(mu)
            sol = surrogate_online(inst, basis, model, certify=True)
            exact = solve_exact(inst, cg_tol=1e-13)
            true_err = inst.ip.norm(exact.phiT - sol.phiT_approx)
            assert true_err <= sol.estimated_error * (1 + 1e-6)

    def test_expansion_rounds_as_the_column_stacked_basis(self, heat_pipeline):
        # the g-rom and the surrogates expand their coefficients bit for bit
        # as the basis stacked column by column did; a product that rounds
        # otherwise would re-roll the certificates at the rounding floor
        fam, basis, data = heat_pipeline
        model = KernelRegressor(beta=0.5).fit(data)
        stacked = np.column_stack(list(basis.vectors))
        rng = np.random.default_rng(3)
        for _ in range(4):
            inst = fam.build(rng.uniform(fam.domain.lows, fam.domain.highs))
            for sol in (rom_online(inst, basis), surrogate_online(inst, basis, model)):
                np.testing.assert_array_equal(sol.phiT_approx, stacked @ sol.coeffs)

    def test_size_mismatch_rejected(self, heat_pipeline):
        fam, basis, data = heat_pipeline
        bad = make_training_data(n=6, p=2, N=basis.size + 1, seed=30)
        model = KernelRegressor(beta=0.5).fit(bad)
        with pytest.raises(ValueError):
            surrogate_online(fam.build([1.5, 1.0]), basis, model)


class TestIsometry:
    def test_orthonormal_expansion_is_isometric(self, heat_pipeline, rng):
        _, basis, _ = heat_pipeline
        a = rng.standard_normal(basis.size)
        b = rng.standard_normal(basis.size)
        lhs = basis.ip.norm(basis.matrix() @ a - basis.matrix() @ b)
        assert abs(lhs - np.linalg.norm(a - b)) <= 1e-10


class TestTransferBound:
    def test_predicted_adjoint_within_greedy_residual_plus_coefficient_error(
            self, heat_pipeline):
        # the a priori bound of a learned model: with the greedy coefficients
        # alpha and residual eps at mu, ||p*(mu) - V alpha_hat|| <= eps +
        # |alpha - alpha_hat|, since V is an isometry and (I + M Gramian) >= I
        fam, basis, data = heat_pipeline
        delta = np.linspace(-0.01, 0.01, basis.size)
        model = LookupModel(data, perturbation=delta)
        floor = 1e-12  # the CG accuracy of the reference solves
        for mu, alpha in zip(data.parameters[:4], data.coefficients[:4]):
            inst = fam.build(mu)
            _, eps = project_coefficients(inst, basis)
            assert eps <= 1e-5  # the greedy tolerance of heat_pipeline
            sol = surrogate_online(inst, basis, model)
            true_err = inst.ip.norm(solve_exact(inst, cg_tol=1e-13).phiT - sol.phiT_approx)
            bound = eps + np.linalg.norm(alpha - sol.coeffs)
            assert true_err <= bound * (1 + 1e-6) + floor
            assert true_err <= sol.estimated_error * (1 + 1e-6) + floor


TINY_CG_TOL = 1e-12


@pytest.fixture(scope="module", params=["heat", "wave"])
def tiny_pipeline(request):
    """A tiny family with its greedy basis and one fitted model per surrogate kind."""
    if request.param == "heat":
        fam, grid, tol = build_heat_family(n_y=8, T=0.1, steps_per_point=10), [4, 4], 1e-5
    else:
        fam, grid, tol = build_wave_family(n_y=6), [7], 1e-2
    basis, data = greedy_offline(fam, sample_grid(fam.domain, grid), tol=tol,
                                 cg_tol=TINY_CG_TOL)
    models = [KernelRegressor(beta=0.5), GPRegressor(restarts=3),
              MLPRegressor(restarts=2, max_steps=1000)]
    return fam, basis, {model.kind: model.fit(data) for model in models}


class TestCertificateProperty:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_true_error_at_most_the_estimate(self, tiny_pipeline, data):
        # anywhere in the box, its faces and corners included, the g-rom and
        # every surrogate report an estimate no smaller than their distance to
        # the optimal adjoint.  The reference is itself a CG answer, at most
        # its verified residual from the optimum, since (I + M Gramian) >= I
        fam, basis, models = tiny_pipeline
        mu = [data.draw(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)))
              for lo, hi in zip(fam.domain.lows, fam.domain.highs)]
        inst = fam.build(mu)
        exact = solve_exact(inst, cg_tol=TINY_CG_TOL)
        answers = {"g-rom": rom_online(inst, basis)}
        answers.update({kind: surrogate_online(inst, basis, m) for kind, m in models.items()})
        for name, sol in answers.items():
            true_err = inst.ip.norm(exact.phiT - sol.phiT_approx)
            assert true_err <= sol.estimated_error + exact.residual_norm, (name, mu)


@pytest.mark.parametrize("kind", sorted(REGRESSOR_CLASSES))
def test_fit_rejects_fewer_pairs_than_its_minimum(kind):
    cls = REGRESSOR_CLASSES[kind]
    data = TrainingData(np.zeros((cls.min_pairs - 1, 2)), np.zeros((cls.min_pairs - 1, 3)))
    with pytest.raises(ValueError, match=f"need at least {cls.min_pairs} training pair"):
        cls().fit(data)


@pytest.mark.parametrize("kind", sorted(REGRESSOR_CLASSES))
def test_predict_rejects_a_parameter_of_another_length(tmp_path, kind):
    # fitted on one-component parameters, as a wave model is: the kernel and
    # gpr distances would broadcast a two-component parameter against them
    settings = {"gpr": dict(restarts=1), "mlp": dict(restarts=1, max_steps=50)}.get(kind, {})
    model = make_regressor(kind, **settings).fit(make_training_data(n=9, p=1, seed=3))
    path = tmp_path / f"{kind}.bin"
    model.save(path)
    for fitted in (model, load_model(path)):
        with pytest.raises(ValueError, match=re.escape(f"{kind} model takes a parameter of "
                                                       f"length 1, got one of shape (2,)")):
            fitted.predict([1.5, 1.0])
        assert fitted.n_inputs == 1 and fitted.predict([0.5]).shape == (3,)


@pytest.mark.parametrize("kind", sorted(REGRESSOR_CLASSES))
def test_kind_keeps_the_shared_contract(kind):
    # a kind fits through ``_fit`` and inherits the checks of ``fit``, ``save``
    # and ``_from_record``, so no kind can skip the pair count or the file checks
    cls = REGRESSOR_CLASSES[kind]
    assert "_fit" in vars(cls)
    own = {name for klass in cls.__mro__[:cls.__mro__.index(CoefficientRegressor)]
           for name in vars(klass)}
    assert not own & {"fit", "save", "_from_record"}


@pytest.mark.parametrize("kind", sorted(REGRESSOR_CLASSES))
def test_fit_does_not_depend_on_blas_threads(tmp_path, kind):
    # pairs shaped like heat's training set at paper scale (64 pairs of 2
    # parameters and 9 coefficients), default settings but 600 mlp steps;
    # BLAS reads its thread count once, at load, so each count fits in a
    # fresh interpreter
    settings = {"max_steps": 600} if kind == "mlp" else {}
    child = textwrap.dedent("""
        import hashlib, json, sys
        import numpy as np
        from ctrlrom.greedy_rom import TrainingData
        from ctrlrom.surrogates import make_regressor

        rng = np.random.default_rng(5)
        X = rng.uniform(0.5, 2.0, size=(64, 2))
        Y = np.sin(X @ rng.standard_normal((2, 9))) * np.logspace(0, -4, 9)
        model = make_regressor(sys.argv[1], **json.loads(sys.argv[2]))
        model.fit(TrainingData(X, Y)).save(sys.argv[3])
        with open(sys.argv[3], "rb") as f:
            print(hashlib.sha256(f.read()).hexdigest())
    """)
    digests = []
    for threads in ("2", "1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        done = subprocess.run([sys.executable, "-c", child, kind, json.dumps(settings),
                               str(tmp_path / f"{threads}.bin")],
                              env=env, capture_output=True, text=True, check=True, timeout=300)
        digests.append(done.stdout.split())
    assert len(digests[0]) == 1
    assert digests[0] == digests[1]
