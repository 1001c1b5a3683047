"""The benchmarked pipeline: set-up, offline greedy, surrogate training and a
certified online query stream, with every correctness check.

Each stage calls ``ctrlrom``'s public functions through their modules, so a
``Tracer`` installed beforehand sees every call.  Only the calls themselves
are timed; oracle checks, file comparisons and bookkeeping run outside the
timed regions.
"""

import math
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ctrlrom import exact_solver, experiment, greedy_rom, surrogates

import machine
import oracle
import workloads

SURROGATE_KINDS = ("kernel", "gpr", "mlp")
TIERS = ("exact", "g-rom", *SURROGATE_KINDS)
# calls per tier, test parameter and round: more samples of the cheap tiers
CALLS = {"exact": 1, "g-rom": 3, "kernel": 3, "gpr": 3, "mlp": 3}
MODEL_FILES = {"kernel": "surrogate_kernel.csv", "gpr": "surrogate_gpr.csv",
               "mlp": "surrogate_mlp.bin"}


@dataclass
class Setup:
    config: object
    family: object
    train_set: list
    test_set: list
    instances: list


def setup(workload, seed):
    """Family, training grid, seeded test parameters and their instances."""
    config = workloads.config_for(workload)
    family = experiment.build_family(config)
    train_set = experiment.training_parameters(config, family)
    test_set = workloads.test_parameters(family.domain, workload.test_count, seed)
    instances = [family.build(mu) for mu in test_set]
    return Setup(config, family, train_set, test_set, instances)


@dataclass
class Operations:
    """Operations attempted and failed, by kind, timed by ``clock``.

    ``calls`` keeps ``(kind, wall seconds, corrected seconds)`` of every
    call that returned.
    """

    clock: object = field(default_factory=machine.WallClock)
    attempted: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    calls: list = field(default_factory=list)

    def run(self, kind, fn):
        """Call ``fn`` once; return ``(result, corrected seconds)`` or
        ``(None, None)`` if it raised."""
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        try:
            result, wall, corrected = self.clock.call(fn)
        except Exception:  # one failed query must not end the run
            self.failed[kind] = self.failed.get(kind, 0) + 1
            self.errors.append(f"{kind}: {traceback.format_exc(limit=3)}")
            return None, None
        self.calls.append((kind, wall, corrected))
        return result, corrected

    def total(self, which):
        return sum(getattr(self, which).values())


class StageFailed(RuntimeError):
    pass


@dataclass
class RunResult:
    stage_s: dict = field(default_factory=dict)
    offline_s: float = math.nan
    fit_s: dict = field(default_factory=dict)
    query_s: dict = field(default_factory=lambda: {t: [] for t in TIERS})
    rounds: int = 0
    ops: Operations = field(default_factory=Operations)
    failures: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    test_set: list = field(default_factory=list)
    config: object = None


def _stage_call(ops, kind, fn):
    result, seconds = ops.run(kind, fn)
    if seconds is None:
        raise StageFailed(ops.errors[-1])
    return result, seconds


def run(workload, seed, seconds, workdir, tracer, clock=None):
    """Run all four stages once.  The online stage answers whole rounds of
    the test stream: one, then more while another round of the same length
    still ends within ``seconds`` of the stage's start (exactly one when
    traced, so that traced counts repeat).  ``clock`` times every call
    (plain wall time by default)."""
    res = RunResult(ops=Operations(clock=clock or machine.WallClock()))
    ops = res.ops
    workdir = Path(workdir)

    with tracer.span("bench.stage.setup"):
        t0 = time.perf_counter()
        s, _ = _stage_call(ops, "setup", lambda: setup(workload, seed))
        res.stage_s["setup"] = time.perf_counter() - t0
    cfg = s.config
    res.config, res.test_set = cfg, s.test_set
    cg_max_iter = cfg.cg_max_iter or None

    with tracer.span("bench.stage.offline"):
        t0 = time.perf_counter()
        (basis, data), res.offline_s = _stage_call(
            ops, "greedy_offline", lambda: greedy_rom.greedy_offline(
                s.family, s.train_set, tol=cfg.tolerance, max_basis=cfg.max_basis,
                cg_tol=cfg.cg_tol, cg_max_iter=cg_max_iter))
        basis_path = workdir / "basis.crb"
        _stage_call(ops, "save_basis", lambda: greedy_rom.save_basis(basis, basis_path))
        res.stage_s["offline"] = time.perf_counter() - t0
    res.failures += [f for f in (
        oracle.check_orthonormal(basis.matrix(), basis.ip.weight),
        oracle.check_terminal_estimate(basis.history, cfg.tolerance),
    ) if f]

    with tracer.span("bench.stage.train"):
        t0 = time.perf_counter()
        models = {}
        for kind in SURROGATE_KINDS:
            one = replace(cfg, surrogate_kinds=(kind,))
            fitted, res.fit_s[kind] = _stage_call(
                ops, f"fit_{kind}", lambda: experiment.fit_surrogates(one, data))
            models[kind] = fitted[kind]
            path = workdir / MODEL_FILES[kind]
            _stage_call(ops, f"save_{kind}", lambda: models[kind].save(path))
        res.stage_s["train"] = time.perf_counter() - t0

    with tracer.span("bench.stage.online"):
        t0 = time.perf_counter()
        loaded_basis, _ = _stage_call(ops, "load_basis", lambda: greedy_rom.load_basis(basis_path))
        loaded = {}
        for kind in SURROGATE_KINDS:
            path = workdir / MODEL_FILES[kind]
            loaded[kind], _ = _stage_call(ops, f"load_{kind}", lambda: surrogates.load_model(path))
        res.failures += _reload_failures(basis, loaded_basis, models, loaded, s.test_set)
        oracles = [oracle.Oracle(inst) for inst in s.instances]
        t_rounds = time.perf_counter()
        while True:
            for q, (inst, orc) in enumerate(zip(s.instances, oracles)):
                tracer.query = (res.rounds, q)
                answers = _answer(ops, res.query_s, inst, loaded_basis, loaded, cfg, cg_max_iter)
                tracer.query = None
                res.failures += _query_failures(
                    orc, answers, cfg.cg_tol, f"round {res.rounds} query {q}", res.certificates)
            res.rounds += 1
            elapsed = time.perf_counter() - t_rounds
            if tracer.enabled or elapsed * (res.rounds + 1) / res.rounds > seconds:
                break
        res.stage_s["online"] = time.perf_counter() - t0

    res.facts = dict(
        basis_size=basis.size,
        basis_bytes=basis_path.stat().st_size,
        model_bytes=sum((workdir / MODEL_FILES[k]).stat().st_size for k in SURROGATE_KINDS),
        kernel_centers=int(models["kernel"].centers.shape[0]),
        n=s.instances[0].n,
        n_t=s.instances[0].grid.n_t,
        terminal_estimate=basis.history[-1].estimated_max_error,
    )
    return res


def _answer(ops, query_s, inst, basis, models, cfg, cg_max_iter):
    """One test parameter through every tier, ``CALLS[tier]`` times each;
    only the calls are timed.  Returns ``(tier, answer)`` pairs, exact first."""
    answers = []

    def ask(tier, fn):
        for _ in range(CALLS[tier]):
            answer, seconds = ops.run(tier, fn)
            if seconds is not None:
                query_s[tier].append(seconds)
                answers.append((tier, answer))

    ask("exact", lambda: exact_solver.solve_exact(inst, cg_tol=cfg.cg_tol, max_iter=cg_max_iter))
    ask("g-rom", lambda: greedy_rom.rom_online(inst, basis, certify=True))
    for kind in SURROGATE_KINDS:
        ask(kind, lambda: surrogates.surrogate_online(inst, basis, models[kind], certify=True))
    return answers


def _query_failures(orc, answers, cg_tol, where, log):
    """Oracle checks of every answer for one test parameter; appends one row
    per answer (tier, estimate, oracle residual, true error) to ``log``."""
    if not answers:
        return []
    exact = answers[0][1] if answers[0][0] == "exact" else None
    residuals, floors = orc.residual_norms(
        [a.phiT if t == "exact" else a.phiT_approx for t, a in answers])
    failures = []
    for (tier, answer), residual, floor in zip(answers, residuals, floors):
        if tier == "exact":
            failures.append((tier, oracle.check_exact(residual, cg_tol, floor)))
            log.append(dict(tier=tier, residual=residual, rounding=floor))
            continue
        estimate = answer.estimated_error
        failures.append((tier, oracle.check_estimate(estimate, residual, floor)))
        true_error = None
        if exact is not None:
            true_error = orc.norm(exact.phiT - answer.phiT_approx)
            failures.append((tier, oracle.check_reliability(true_error, estimate)))
        log.append(dict(tier=tier, estimate=estimate, residual=residual, rounding=floor,
                        true_error=true_error))
    return [f"{where} {tier}: {f}" for tier, f in failures if f]


def _reload_failures(basis, loaded_basis, models, loaded, test_set):
    """Reloaded basis and models must reproduce the in-memory ones."""
    failures = [
        oracle.check_equal("basis", basis.matrix(), loaded_basis.matrix()),
        oracle.check_equal("basis parameters", np.array(basis.selected_params),
                           np.array(loaded_basis.selected_params)),
    ]
    for kind in SURROGATE_KINDS:
        failures += [oracle.check_equal(f"{kind} prediction", models[kind].predict(mu),
                                        loaded[kind].predict(mu)) for mu in test_set]
    return [f for f in failures if f]
