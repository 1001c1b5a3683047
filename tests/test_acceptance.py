"""Benchmark reproduction gate.

One test per criterion, each printing a [PASS] line with the measured
numbers. The two full pipelines (heat at benchmark scale, wave at the
reduced spatial resolution its criterion sanctions) and the singular-value
diagnostics run once per session and are shared across criteria.

 1. Tiny-oracle equivalence of the matrix-free exact solver
 2. Gramian symmetry / positive-semidefiniteness at benchmark scale
 3. Two-sided residual-estimator bounds (reliability everywhere,
    efficiency against the dense operator norm on tiny instances)
 4. Heat greedy reproduction (basis size band, terminal estimate)
 5. Heat online accuracy (G-ROM and all three surrogates)
 6. Wave greedy reproduction and G-ROM online accuracy
 7. Singular-value diagnostics (heat decay, damping sweep ordering)
 8. Speedup ordering exact > G-ROM > surrogates with factor >= 2
 9. Fast property suite (orthonormality, snapshot reproduction, MLP
    gradient check, kernel interpolation, cached estimator equivalence)
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from ctrlrom.dynamics import apply_gramian, rhs_vector
from ctrlrom.exact_solver import (
    assemble_dense_operator,
    error_estimator,
    solve_exact,
)
from ctrlrom.experiment import default_config, run_experiment, run_svd_diagnostic
from ctrlrom.greedy_rom import greedy_offline, rom_online
from ctrlrom.surrogates import KernelRegressor
from ctrlrom.surrogates.mlp import init_params, loss_gradients, mse_loss
from ctrlrom.system import build_heat_family, build_wave_family, sample_grid


@pytest.fixture(scope="session")
def heat_run(tmp_path_factory):
    cfg = replace(default_config("heat"), output_dir=str(tmp_path_factory.mktemp("heat")))
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    return cfg, report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def wave_run(tmp_path_factory):
    cfg = replace(default_config("wave"), output_dir=str(tmp_path_factory.mktemp("wave")))
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    return cfg, report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def svd_spectra(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("svd"))
    heat = run_svd_diagnostic(replace(default_config("heat"), output_dir=outdir))[None]
    wave_cfg = replace(default_config("wave"), train_grid=(28,), cg_tol=1e-7, output_dir=outdir)
    wave = run_svd_diagnostic(wave_cfg, damping_list=[0.0, 100.0])
    return heat, wave


def test_criterion_1_tiny_oracle_equivalence():
    fam = build_heat_family(n_y=4, T=0.1, steps_per_point=30)
    inst = fam.build([1.3, 0.9])
    t0 = time.perf_counter()
    sol = solve_exact(inst, cg_tol=1e-12)
    dense = assemble_dense_operator(inst)
    direct = np.linalg.solve(dense, rhs_vector(inst))
    elapsed = time.perf_counter() - t0
    gap = inst.ip.norm(sol.phiT - direct)
    assert gap <= 1e-9
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: tiny-oracle gap {gap:.2e} <= 1e-9 in {elapsed:.2f}s")


def test_criterion_2_gramian_structure():
    t0 = time.perf_counter()
    cases = [
        (build_heat_family(), [[1.0, 0.5], [1.5, 1.0], [2.0, 1.5]]),
        (build_wave_family(), [[3.0], [6.5], [10.0]]),
    ]
    worst_defect, worst_psd = 0.0, 0.0
    rng = np.random.default_rng(7)
    for fam, params in cases:
        for mu in params:
            inst = fam.build(mu)
            assert inst.n in (100, 200)
            for _ in range(10):
                p = rng.standard_normal(inst.n)
                q = rng.standard_normal(inst.n)
                lp = apply_gramian(inst, p)
                lq = apply_gramian(inst, q)
                scale = inst.ip.norm(p) * inst.ip.norm(q)
                defect = abs(inst.ip.dot(lp, q) - inst.ip.dot(p, lq)) / scale
                worst_defect = max(worst_defect, defect)
                assert defect <= 1e-8
                for vec, image in ((p, lp), (q, lq)):
                    quad = inst.ip.dot(vec, image)
                    worst_psd = min(worst_psd, quad)
                    assert quad >= -1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 2: worst symmetry defect {worst_defect:.2e} <= 1e-8, "
          f"min quadratic form {worst_psd:.2e} >= -1e-10 in {elapsed:.1f}s")


def test_criterion_3_estimator_two_sided_bounds():
    rng = np.random.default_rng(11)

    # reliability at benchmark scale, 5 parameters per family
    setups = [
        (build_heat_family(), [[1.0, 0.5], [1.25, 0.75], [1.5, 1.0], [1.75, 1.25], [2.0, 1.5]],
         1e-12, None),
        (build_wave_family(n_y=60), [[3.0], [4.75], [6.5], [8.25], [10.0]], 1e-9, 8000),
    ]
    checked = 0
    for fam, params, cg_tol, max_iter in setups:
        for mu in params:
            inst = fam.build(mu)
            sol = solve_exact(inst, cg_tol=cg_tol, max_iter=max_iter)
            scale = max(inst.ip.norm(sol.phiT), 1.0)
            for _ in range(4):
                delta = rng.standard_normal(inst.n)
                delta *= 0.1 * scale / inst.ip.norm(delta)
                p = sol.phiT + delta
                eta, _, _ = error_estimator(inst, p)
                assert inst.ip.norm(sol.phiT - p) <= eta * (1 + 1e-6)
                checked += 1

    # efficiency on tiny instances against the dense operator norm
    tiny = [build_heat_family(n_y=4, T=0.1, steps_per_point=30).build([1.6, 1.2]),
            build_wave_family(n_y=3, T=1.0, steps_per_point=10).build([5.0])]
    for inst in tiny:
        sol = solve_exact(inst, cg_tol=1e-12)
        # a scalar weight makes the induced operator norm the Euclidean one
        bound = np.linalg.norm(assemble_dense_operator(inst), 2)
        for _ in range(20):
            p = sol.phiT + rng.standard_normal(inst.n)
            eta, _, _ = error_estimator(inst, p)
            dist = inst.ip.norm(sol.phiT - p)
            assert dist <= eta * (1 + 1e-6)
            assert eta <= bound * dist * (1 + 1e-6)
    print(f"\n[PASS] criterion 3: reliability on {checked} benchmark perturbations, "
          f"two-sided bounds on 40 tiny perturbations")


def test_criterion_4_heat_greedy_reproduction(heat_run):
    cfg, report, elapsed = heat_run
    final = report.greedy_history[-1].estimated_max_error
    assert 6 <= report.basis_size <= 12
    assert final <= 1e-6
    assert elapsed < 15 * 60
    print(f"\n[PASS] criterion 4: heat greedy N={report.basis_size} in [6,12], "
          f"terminal estimate {final:.2e} <= 1e-6, pipeline {elapsed:.0f}s < 15min")


def test_criterion_5_heat_online_accuracy(heat_run):
    _, report, _ = heat_run
    adjoint = {name: errors[:, 0] for name, errors in report.errors.items()}
    assert len(report.parameters) == 100
    grom = adjoint["g-rom"]
    assert grom.max() <= 5e-6
    assert grom.mean() <= 1e-6
    assert adjoint["gpr"].mean() <= 5e-5
    assert adjoint["kernel"].mean() <= 5e-5
    assert adjoint["mlp"].mean() <= 5e-4
    # the certified estimate itself stays within the online bound band
    max_estimated = report.errors["g-rom"][:, 1].max()
    assert max_estimated <= 5e-6
    print(f"\n[PASS] criterion 5: heat online over 100 unseen parameters — "
          f"g-rom max/avg {grom.max():.2e}/{grom.mean():.2e}, "
          f"gpr avg {adjoint['gpr'].mean():.2e}, "
          f"kernel avg {adjoint['kernel'].mean():.2e}, "
          f"mlp avg {adjoint['mlp'].mean():.2e}")


def test_criterion_6_wave_greedy_reproduction(wave_run):
    # the greedy tolerance is the benchmark stopping point 1e-2 expressed
    # in the package's weighted residual norm (factor 1/sqrt(h)); see README
    cfg, report, elapsed = wave_run
    final = report.greedy_history[-1].estimated_max_error
    grom_max = report.errors["g-rom"][:, 0].max()
    assert 12 <= report.basis_size <= 26
    assert final <= cfg.tolerance
    assert len(report.parameters) == 100
    assert grom_max <= 5e-3
    assert elapsed < 45 * 60
    print(f"\n[PASS] criterion 6: wave greedy N={report.basis_size} in [12,26], "
          f"terminal estimate {final:.2e} <= {cfg.tolerance:.2e}, g-rom max adjoint "
          f"error {grom_max:.2e} <= 5e-3, pipeline {elapsed:.0f}s < 45min")


def test_criterion_7_singular_value_diagnostics(svd_spectra):
    heat, wave = svd_spectra
    heat_ratio = heat[7] / heat[0]
    assert heat_ratio <= 1e-4
    rel_undamped = wave[0.0][19] / wave[0.0][0]
    rel_damped = wave[100.0][19] / wave[100.0][0]
    assert rel_damped * 1e2 <= rel_undamped
    print(f"\n[PASS] criterion 7: heat sigma_8/sigma_1 {heat_ratio:.2e} <= 1e-4; "
          f"wave mode-20 relative decay nu=100 vs nu=0 faster by "
          f"{rel_undamped / rel_damped:.1e}x >= 1e2x")


@pytest.mark.parametrize("pipeline", ["heat_run", "wave_run"])
def test_criterion_8_speedup_ordering(pipeline, request):
    _, report, _ = request.getfixturevalue(pipeline)
    exact_t = report.runtimes["exact"].mean()
    grom_t = report.runtimes["g-rom"].mean()
    surrogate_t = max(report.runtimes[k].mean() for k in ("kernel", "gpr", "mlp"))
    assert surrogate_t * 2 <= grom_t
    assert grom_t * 2 <= exact_t
    print(f"\n[PASS] criterion 8 ({pipeline}): surrogate {surrogate_t:.3f}s < "
          f"g-rom {grom_t:.3f}s < exact {exact_t:.3f}s with factor >= 2 per tier")


def test_criterion_9_property_suite():
    t0 = time.perf_counter()

    # greedy basis orthonormality and snapshot reproduction; the tolerance
    # keeps the basis strictly smaller than the tiny state space so the
    # estimators stay above the round-off floor for the relative comparison
    fam = build_heat_family(n_y=8, T=0.1, steps_per_point=10)
    train = sample_grid(fam.domain, [4, 4])
    basis, data = greedy_offline(fam, train, tol=1e-5, cg_tol=1e-13)
    mat = basis.matrix()
    gram_defect = np.max(np.abs(basis.ip.weight * (mat.T @ mat) - np.eye(basis.size)))
    assert gram_defect <= 1e-10
    worst_snapshot = 0.0
    for mu in basis.selected_params:
        sol = rom_online(fam.build(mu), basis, certify=True)
        worst_snapshot = max(worst_snapshot, sol.estimated_error)
        assert sol.estimated_error <= 1e-8

    # cached estimator equals the full estimator
    inst = fam.build([1.37, 0.66])
    sol = rom_online(inst, basis, certify=True)
    full, _, _ = error_estimator(inst, sol.phiT_approx)
    cache_gap = abs(sol.estimated_error - full) / max(full, 1e-300)
    assert cache_gap <= 1e-10

    # mlp gradient against central finite differences
    rng = np.random.default_rng(3)
    params = init_params([2, 6, 5, 3], rng)
    X = rng.standard_normal((5, 2))
    Y = rng.standard_normal((5, 3))
    grads = loss_gradients(params, X, Y)
    step = 1e-6
    worst_grad = 0.0
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
            worst_grad = max(worst_grad, abs(fd - g) / max(abs(fd), abs(g), 1.0))
    assert worst_grad <= 1e-5

    # kernel interpolation at the selected centers
    model = KernelRegressor(beta=0.5).fit(data)
    targets = {tuple(mu): y for mu, y in zip(data.parameters, data.coefficients)}
    worst_interp = 0.0
    for center in model.centers:
        err = np.max(np.abs(model.predict(center) - targets[tuple(center)]))
        worst_interp = max(worst_interp, err)
        assert err <= 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 5 * 60
    print(f"\n[PASS] criterion 9: orthonormality {gram_defect:.1e} <= 1e-10, "
          f"snapshot residuals {worst_snapshot:.1e} <= 1e-8, cached-vs-full estimator "
          f"{cache_gap:.1e} <= 1e-10 rel, mlp gradient {worst_grad:.1e} <= 1e-5, "
          f"kernel interpolation {worst_interp:.1e} <= 1e-8, all in {elapsed:.0f}s < 5min")
