"""Fast self-test of the benchmark.

Runs both workloads at n_y=8, untraced and traced, and then shows that every
correctness check rejects a tampered result: a halved estimate, a perturbed
exact adjoint, an understated certificate, a reloaded model whose
predictions differ from the in-memory one, a basis that is not orthonormal
and a greedy that stopped above its tolerance.  Exits non-zero on the first
unexpected outcome.

    python3 perfbench/selftest.py
"""

import json
import signal
import sys
import tempfile
import time
from dataclasses import replace

import env  # noqa: F401  (thread pins and import path, before numpy)
import numpy as np

from ctrlrom import exact_solver, experiment, greedy_rom, surrogates

import machine
import metrics
import oracle
import pipeline
import tracer as tracing
import workloads

failures = []
SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def matches_spec(section, found):
    """Metric names and units equal the ones ``BENCHMARK.json`` declares."""
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    return declared == {name: unit for name, (_, unit) in found.items()}


def expect(label, condition):
    print(f"{'ok  ' if condition else 'FAIL'} {label}")
    if not condition:
        failures.append(label)


def run_tiny(name, traced):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    tr = tracing.Tracer().install() if traced else tracing.NullTracer()
    clock = machine.WallClock() if traced else machine.SpeedMeter()
    with tempfile.TemporaryDirectory(dir=env.OUT_DIR) as workdir:
        try:
            with clock.sampling():
                res = pipeline.run(workload, 7, 0.0, workdir, tr, clock)
        finally:
            if traced:
                tr.remove()
    label = f"{workload.name} {'traced' if traced else 'untraced'}"
    expect(f"{label}: all checks pass ({res.failures[:2]})", not res.failures)
    expect(f"{label}: no failed operation", res.ops.total("failed") == 0)
    if not traced:
        found = metrics.end_to_end(res, [(1.0, 1.0)], 1.0)
        expect(f"{label}: end-to-end metrics positive",
               all(v > 0 for v, _ in found.values()))
        expect(f"{label}: end-to-end metrics as declared", matches_spec("end_to_end", found))
        factors = [c / w for _, w, c in res.ops.calls if w > 0]
        expect(f"{label}: speed correction within a factor 3 of wall time",
               all(1 / 3 < f < 3 for f in factors))
        expect(f"{label}: SIGALRM handler restored",
               signal.getsignal(signal.SIGALRM) is signal.SIG_DFL)
        return res
    found = metrics.per_layer(res, tr)
    expect(f"{label}: per-layer metrics finite",
           all(np.isfinite(v) for v, _ in found.values()))
    expect(f"{label}: per-layer metrics as declared", matches_spec("per_layer", found))
    n_basis = found["greedy_rom.basis_size"][0]
    expect(f"{label}: g-rom query costs 2N+2 sweeps",
           found["greedy_rom.rom_sweeps_per_query"][0] == 2 * n_basis + 2)
    expect(f"{label}: certified surrogate query costs 4 sweeps",
           found["surrogates.sweeps_per_query"][0] == 4)
    table = metrics.self_time_table(tr)
    expect(f"{label}: layer self times account for every stage",
           set(table) == set(metrics.STAGES)
           and all(abs(row["unaccounted_s"]) < 1e-9 for row in table.values()))
    expect(f"{label}: wrappers removed",
           not hasattr(exact_solver.solve_exact, "__wrapped__")
           and not hasattr(greedy_rom.solve_exact, "__wrapped__"))
    return res


def tamper_checks():
    workload = workloads.tiny(workloads.WORKLOADS["heat-paper"])
    cfg = workloads.config_for(workload)
    family = experiment.build_family(cfg)
    basis, data = greedy_rom.greedy_offline(
        family, experiment.training_parameters(cfg, family), tol=cfg.tolerance, cg_tol=cfg.cg_tol)
    mu = workloads.test_parameters(family.domain, 1, 3)[0]
    inst = family.build(mu)
    orc = oracle.Oracle(inst)
    exact = exact_solver.solve_exact(inst, cg_tol=cfg.cg_tol)
    rom = greedy_rom.rom_online(inst, basis)
    (res_exact, res_rom), (floor_exact, floor_rom) = orc.residual_norms(
        [exact.phiT, rom.phiT_approx])
    true_error = orc.norm(exact.phiT - rom.phiT_approx)

    expect("exact adjoint meets cg_tol",
           oracle.check_exact(res_exact, cfg.cg_tol, floor_exact) is None)
    noise = np.random.default_rng(0).standard_normal(inst.n)
    bumped = exact.phiT + 1e-6 * np.linalg.norm(exact.phiT) * noise
    (res_bumped,), (floor_bumped,) = orc.residual_norms([bumped])
    expect("perturbed exact adjoint rejected",
           oracle.check_exact(res_bumped, cfg.cg_tol, floor_bumped) is not None)

    expect("estimate equals the oracle residual",
           oracle.check_estimate(rom.estimated_error, res_rom, floor_rom) is None)
    expect("halved estimate rejected",
           oracle.check_estimate(rom.estimated_error / 2, res_rom, floor_rom) is not None)
    expect("missing estimate rejected", oracle.check_estimate(None, res_rom) is not None)

    expect("true error within the estimate",
           oracle.check_reliability(true_error, rom.estimated_error) is None)
    expect("understated certificate rejected",
           oracle.check_reliability(true_error, true_error / 2) is not None)

    with tempfile.TemporaryDirectory(dir=env.OUT_DIR) as workdir:
        only_kernel = replace(cfg, surrogate_kinds=("kernel",))
        fitted = experiment.fit_surrogates(only_kernel, data)["kernel"]
        fitted.save(f"{workdir}/kernel.csv")
        loaded = surrogates.load_model(f"{workdir}/kernel.csv")
    expect("reloaded model reproduces its predictions",
           oracle.check_equal("kernel", fitted.predict(mu), loaded.predict(mu)) is None)
    loaded.coefficients = loaded.coefficients * (1.0 + 1e-12)
    expect("reloaded model with different predictions rejected",
           oracle.check_equal("kernel", fitted.predict(mu), loaded.predict(mu)) is not None)

    V = basis.matrix()
    expect("greedy basis orthonormal", oracle.check_orthonormal(V, basis.ip.weight) is None)
    V[:, 0] *= 1.0 + 1e-8
    expect("non-orthonormal basis rejected",
           oracle.check_orthonormal(V, basis.ip.weight) is not None)
    expect("greedy stopped within tolerance",
           oracle.check_terminal_estimate(basis.history, cfg.tolerance) is None)
    expect("greedy stopped above tolerance rejected",
           oracle.check_terminal_estimate(basis.history, cfg.tolerance * 1e-6) is not None)

    ops = pipeline.Operations()
    ops.run("query", lambda: 1 / 0)
    expect("failed operation counted",
           ops.total("attempted") == 1 and ops.total("failed") == 1)


def main():
    env.OUT_DIR.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    for name in workloads.WORKLOADS:
        run_tiny(name, traced=False)
        run_tiny(name, traced=True)
    tamper_checks()
    print(f"{len(failures)} failure(s) in {time.perf_counter() - t0:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
