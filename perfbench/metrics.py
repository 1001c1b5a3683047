"""End-to-end metrics of an untraced run and per-layer metrics of a traced run."""

import statistics

import numpy as np

import tracer as tracing
from pipeline import SURROGATE_KINDS

QUERY_METRICS = {  # tier -> (metric, unit, scale from seconds)
    "exact": ("exact_query_s", "s", 1.0),
    "g-rom": ("grom_query_ms", "ms", 1e3),
    "kernel": ("kernel_query_ms", "ms", 1e3),
    "gpr": ("gpr_query_ms", "ms", 1e3),
    "mlp": ("mlp_query_ms", "ms", 1e3),
}
STAGES = ("setup", "offline", "train", "online")
SWEEPS = ("dynamics.solve_adjoint_backward", "dynamics.solve_state_forward")


def end_to_end(res, setup_probes_s, peak_rss_mb):
    m = {
        "setup_s": (statistics.median(c for _, c in setup_probes_s), "s"),
        "offline_s": (res.offline_s, "s"),
        "train_s": (sum(res.fit_s.values()), "s"),
    }
    for tier, (name, unit, scale) in QUERY_METRICS.items():
        m[name] = (scale * statistics.median(res.query_s[tier]), unit)
    m["peak_rss_mb"] = (peak_rss_mb, "MB")
    return m


def _median(values, scale=1.0):
    return scale * float(np.median(values)) if len(values) else float("nan")


def per_layer(res, tr):
    """Per-layer metrics from the spans and counts of one traced run."""
    t = tr.table()
    names = np.array(t["name"], dtype=object)
    dur = t["end"] - t["start"]
    parent = t["parent"]

    def ids(name, within=None):
        mask = names == name
        if within is not None:
            mask &= inside[within] >= 0
        return np.flatnonzero(mask)

    roots = ("greedy_rom.greedy_offline", "exact_solver.solve_exact", "greedy_rom.rom_online",
             "surrogates.surrogate_online", "numerics.cg_solve")
    inside = {r: tracing.nearest_ancestor(t, lambda n, r=r: n == r) for r in roots}
    is_sweep = np.isin(names, SWEEPS)
    counted = {k: v[0] for k, v in tr.counts.items()}

    def total(sel):
        return float(dur[sel].sum())

    sweep_ids = np.flatnonzero(is_sweep)
    bwd, fwd = ids(SWEEPS[0]), ids(SWEEPS[1])
    flops_per_sweep = 2.0 * res.facts["n"] ** 2 * res.facts["n_t"]
    sweep_s = total(sweep_ids)
    gram = ids("dynamics.apply_gramian")

    cg = ids("numerics.cg_solve")
    cg_iters = sum(tr.results.get(int(i), 0) for i in cg)
    cg_applies = np.flatnonzero((names == "dynamics.apply_system_operator")
                                & np.isin(parent, cg))

    solves = ids("exact_solver.solve_exact")
    cg_in_solves = cg[np.isin(inside["exact_solver.solve_exact"][cg], solves)]
    sweeps_in_solves = np.count_nonzero(is_sweep & (inside["exact_solver.solve_exact"] >= 0))

    greedy = ids("greedy_rom.greedy_offline")
    greedy_exact = solves[inside["greedy_rom.greedy_offline"][solves] >= 0]
    images = np.flatnonzero((names == "dynamics.apply_system_operator") & np.isin(parent, greedy))
    rom = ids("greedy_rom.rom_online")
    project = ids("greedy_rom.project_coefficients", within="greedy_rom.rom_online")
    sur = ids("surrogates.surrogate_online")
    certify = ids("exact_solver.error_estimator", within="surrogates.surrogate_online")

    def per_call(count, calls):
        return float(count) / len(calls) if len(calls) else float("nan")

    m = {
        "system.builds": (len(ids("system.ProblemFamily.build")), "count"),
        "system.build_ms": (_median(dur[ids("system.ProblemFamily.build")], 1e3), "ms"),
        "dynamics.sweeps": (len(sweep_ids), "count"),
        "dynamics.sweep_bwd_ms": (_median(dur[bwd], 1e3), "ms"),
        "dynamics.sweep_fwd_ms": (_median(dur[fwd], 1e3), "ms"),
        "dynamics.sweep_s": (sweep_s, "s"),
        "dynamics.sweep_gflops": (len(sweep_ids) * flops_per_sweep / sweep_s / 1e9, "GFLOP/s"),
        "dynamics.gramian_applies": (len(gram), "count"),
        "dynamics.apply_gramian_ms": (_median(dur[gram], 1e3), "ms"),
        "numerics.cg_solves": (len(cg), "count"),
        "numerics.cg_iterations": (int(cg_iters), "count"),
        "numerics.cg_applies": (len(cg_applies), "count"),
        "numerics.cg_useful_ratio": (per_call(cg_iters, cg_applies), "ratio"),
        "numerics.gram_schmidt_ms": (1e3 * total(ids("numerics.gram_schmidt_extend")), "ms"),
        "exact_solver.solves": (len(solves), "count"),
        "exact_solver.solve_s": (_median(dur[solves]), "s"),
        "exact_solver.cg_iters_per_solve": (per_call(
            sum(tr.results.get(int(i), 0) for i in cg_in_solves), solves), "count"),
        "exact_solver.sweeps_per_solve": (per_call(sweeps_in_solves, solves), "count"),
        "exact_solver.overhead_s": (per_call(total(solves) - total(cg_in_solves), solves), "s"),
        "greedy_rom.basis_size": (res.facts["basis_size"], "count"),
        "greedy_rom.iterations": (len(greedy_exact), "count"),
        "greedy_rom.iteration_s": (per_call(total(greedy), greedy_exact), "s"),
        "greedy_rom.exact_s": (total(greedy_exact), "s"),
        "greedy_rom.images": (len(images), "count"),
        "greedy_rom.images_s": (total(images), "s"),
        "greedy_rom.rom_sweeps_per_query": (per_call(
            np.count_nonzero(is_sweep & (inside["greedy_rom.rom_online"] >= 0)), rom), "count"),
        "greedy_rom.project_ms": (_median(dur[project], 1e3), "ms"),
        "greedy_rom.save_basis_ms": (1e3 * total(ids("greedy_rom.save_basis")), "ms"),
        "greedy_rom.load_basis_ms": (1e3 * total(ids("greedy_rom.load_basis")), "ms"),
        "greedy_rom.basis_bytes": (res.facts["basis_bytes"], "bytes"),
    }
    regressor = {"kernel": "KernelRegressor", "gpr": "GPRegressor", "mlp": "MLPRegressor"}
    for kind in SURROGATE_KINDS:
        m[f"surrogates.fit_{kind}_s"] = (total(ids(f"surrogates.{regressor[kind]}.fit")), "s")
    m["surrogates.gpr_lml_evals"] = (counted.get("surrogates.log_marginal_likelihood", 0), "count")
    m["surrogates.mlp_grad_steps"] = (counted.get("surrogates.loss_gradients", 0), "count")
    m["surrogates.kernel_centers"] = (res.facts["kernel_centers"], "count")
    for kind in SURROGATE_KINDS:
        pred = ids(f"surrogates.{regressor[kind]}.predict", within="surrogates.surrogate_online")
        m[f"surrogates.predict_{kind}_us"] = (_median(dur[pred], 1e6), "us")
    m["surrogates.certify_ms"] = (_median(dur[certify], 1e3), "ms")
    m["surrogates.sweeps_per_query"] = (per_call(
        np.count_nonzero(is_sweep & (inside["surrogates.surrogate_online"] >= 0)), sur), "count")
    saves = [i for k in SURROGATE_KINDS for i in ids(f"surrogates.{regressor[k]}.save")]
    loads = [i for k in SURROGATE_KINDS for i in ids(f"surrogates.{regressor[k]}.load")]
    m["surrogates.save_ms"] = (1e3 * total(saves), "ms")
    m["surrogates.load_ms"] = (1e3 * total(loads), "ms")
    m["surrogates.model_bytes"] = (res.facts["model_bytes"], "bytes")
    for stage in STAGES:
        m[f"experiment.stage_s.{stage}"] = (total(ids(f"bench.stage.{stage}")), "s")
    m["trace.overhead_s"] = (tr.overhead_s, "s")
    return m


def self_time_table(tr):
    """Per stage: self time of every layer, the benchmark's own remainder,
    and the gap between their sum and the stage's wall time."""
    t = tr.table()
    own = tracing.self_times(t)
    stage_of = tracing.nearest_ancestor(t, lambda n: n.startswith("bench.stage."))
    table = {}
    for sid in np.flatnonzero(stage_of == np.arange(len(own))):
        stage = t["name"][sid].rsplit(".", 1)[1]
        rows = {}
        for i in np.flatnonzero(stage_of == sid):
            layer = t["layer"][i]
            rows[layer] = rows.get(layer, 0.0) + float(own[i])
        wall = float(t["end"][sid] - t["start"][sid])
        rows = {("remainder" if k == tracing.BENCH_LAYER else k): v for k, v in rows.items()}
        table[stage] = dict(wall_s=wall, self_s=rows, unaccounted_s=wall - sum(rows.values()))
    return table
