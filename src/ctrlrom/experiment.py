"""Configuration-driven experiment pipeline in three stages, each written
once, plus the singular value diagnostic.

``offline_stage`` builds the reduced basis on a training grid,
``training_stage`` fits the requested surrogates on the coefficients the
greedy loop collected, and ``online_stage`` compares, at every random test
parameter, the exact solution against the reduced and learned models,
recording adjoint errors in the weighted norm, control errors in the
discrete time-integrated norm, and per-query runtimes.  Each stage writes its
own files into ``config.output_dir`` and returns its result;
``run_experiment`` runs the three in order.
"""

import configparser
import multiprocessing
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import dynamics, greedy_rom, surrogates
from .exact_solver import solve_exact
from .numerics import svd_singular_values
from .system import FAMILY_BUILDERS, sample_grid, sample_random

FAILURE_MARKER = "run_failed.marker"
BASIS_FILE = "basis.crb"
TRAINING_FILE = "training_data.bin"
SINGULAR_VALUES_FILE = "singular_values.csv"

# Per-family experiment defaults.  The wave configuration runs at a reduced
# spatial resolution and a looser CG tolerance: the final-time adjoint
# operator of the damped wave system has norm ~1e7, which puts the float64
# round-off floor of the true CG residual near 1e-10, and full resolution
# inflates desk runtimes without changing the observed error bands.  The
# wave greedy tolerance is the benchmark stopping point 1e-2 converted into
# this package's weighted residual norm (factor 1/sqrt(h) at n_y=60); see
# the README.
_FAMILY_DEFAULTS = {
    "heat": dict(workers=2),  # the dataclass defaults are the heat setup
    "wave": dict(n_y=60, T=1.0, steps_per_point=10, train_grid=(50,),
                 tolerance=7.81e-2, cg_tol=1e-9, cg_max_iter=8000,
                 kernel_beta=1.0, workers=2),
}


@dataclass
class ExperimentConfig:
    """All settings of one experiment run; see the README.

    Each field is one INI key (its section is in ``_SECTIONS``) and one
    command-line flag (``cli.FLAGS``); a ``<kind>_*`` field is the
    constructor argument ``*`` of the surrogate of that kind.
    """

    family: str = "heat"
    n_y: int = 100
    T: float = 0.1
    steps_per_point: int = 30
    nu: float = 10.0
    train_grid: tuple = (8, 8)
    tolerance: float = 1e-6
    max_basis: int = 50
    cg_tol: float = 1e-12
    cg_max_iter: int = 0  # 0 = solver default (10 * state dimension)
    track_true_errors: bool = False
    surrogate_kinds: tuple = ("kernel", "gpr", "mlp")
    kernel_beta: float = 0.5
    gpr_restarts: int = 10
    mlp_restarts: int = 10
    surrogate_seed: int = 0
    test_count: int = 100
    test_seed: int = 2024
    workers: int = 1
    output_dir: str = "results"
    certify: bool = True
    time_runs: bool = True

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, str) and not isinstance(value, str):
                raise ValueError(f"{f.name} must be a string, got {value!r}")
        if self.family not in FAMILY_BUILDERS:
            raise ValueError(f"unknown family '{self.family}'")
        if self.n_y < 2 or self.steps_per_point < 1:
            raise ValueError("n_y >= 2 and steps_per_point >= 1 required")
        if not (self.tolerance > 0 and self.cg_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_basis < 1 or self.test_count < 0:
            raise ValueError("max_basis >= 1 and test_count >= 0 required")
        if self.cg_max_iter < 0:
            raise ValueError("cg_max_iter >= 0 required (0 = solver default)")
        if self.test_seed < 0 or self.surrogate_seed < 0:
            raise ValueError("test_seed >= 0 and surrogate_seed >= 0 required")
        # rejects a grid that does not fit the family, or T <= 0, nu < 0
        training_parameters(self, build_family(self))
        for kind in self.surrogate_kinds:
            _regressor(self, kind)  # rejects an unknown kind or a bad setting
        return self


def default_config(family):
    """Documented per-family defaults reproducing the benchmark setups."""
    if family not in _FAMILY_DEFAULTS:
        raise ValueError(f"unknown family '{family}'")
    cfg = ExperimentConfig(family=family)
    return replace(cfg, **_FAMILY_DEFAULTS[family]).validate()


_SECTIONS = {
    "family": ("family", "n_y", "T", "steps_per_point", "nu"),
    "training": ("train_grid",),
    "greedy": ("tolerance", "max_basis", "cg_tol", "cg_max_iter", "track_true_errors"),
    "surrogates": (
        "surrogate_kinds", "kernel_beta", "gpr_restarts", "mlp_restarts", "surrogate_seed",
    ),
    "test": ("test_count", "test_seed", "workers"),
    "output": ("output_dir", "certify", "time_runs"),
}


def _format_value(value):
    if isinstance(value, (tuple, list)):
        return " ".join(_format_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(text, template):
    if isinstance(template, bool):
        if text.lower() not in ("true", "false"):
            raise ValueError(f"expected true/false, got {text!r}")
        return text.lower() == "true"
    if isinstance(template, (tuple, list)):
        inner = template[0] if len(template) else "x"
        return tuple(_parse_value(tok, inner) for tok in text.split())
    if isinstance(template, int):
        return int(text)
    if isinstance(template, float):
        return float(text)
    return text


def save_config(config, path):
    """Write a config as a flat key/value file with sections."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SECTIONS.items():
        parser[section] = {key: _format_value(getattr(config, key)) for key in keys}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def load_config(path):
    """Read a config written by ``save_config``.

    Keys missing from the file fall back to the per-family defaults of the
    family named in the file; a section or key that ``save_config`` does not
    write there raises ``ValueError``.
    """
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path, encoding="utf-8"):
        raise FileNotFoundError(path)
    family = parser.get("family", "family", fallback="heat")
    defaults = default_config(family)
    values = {}
    for section in parser.sections():
        known = {parser.optionxform(key): key for key in _SECTIONS.get(section, ())}
        for option, text in parser[section].items():
            if option not in known:
                raise ValueError(f"{path}: unknown key '{option}' in section [{section}]")
            values[known[option]] = _parse_value(text, getattr(defaults, known[option]))
    return replace(defaults, **values).validate()


def _cg_max_iter(config):
    return config.cg_max_iter if config.cg_max_iter > 0 else None


def build_family(config):
    if config.family == "heat":
        return FAMILY_BUILDERS["heat"](
            n_y=config.n_y, T=config.T, steps_per_point=config.steps_per_point
        )
    return FAMILY_BUILDERS["wave"](
        n_y=config.n_y, T=config.T, steps_per_point=config.steps_per_point, nu=config.nu
    )


def training_parameters(config, family):
    return sample_grid(family.domain, list(config.train_grid))


def _regressor(config, kind):
    """Unfitted regressor of ``kind`` with the config's ``<kind>_*`` settings."""
    prefix = kind + "_"
    settings = {f.name[len(prefix):]: getattr(config, f.name)
                for f in fields(config) if f.name.startswith(prefix)}
    return surrogates.make_regressor(kind, seed=config.surrogate_seed, **settings)


def fit_surrogates(config, training_data):
    """Fit every requested surrogate on the greedy training pairs."""
    return {kind: _regressor(config, kind).fit(training_data)
            for kind in config.surrogate_kinds}


@dataclass
class ModelResult:
    """Errors and runtime of one model at one test parameter."""

    true_adjoint_error: float
    estimated_error: float | None
    control_error: float
    runtime: float


@dataclass
class TestRow:
    index: int
    parameter: np.ndarray
    exact_runtime: float
    results: dict  # model name -> ModelResult


@dataclass
class ModelSummary:
    name: str
    max_adjoint_error: float
    avg_adjoint_error: float
    max_control_error: float
    avg_control_error: float
    avg_runtime: float
    avg_speedup: float


@dataclass
class RunReport:
    config: ExperimentConfig
    greedy_history: list
    basis_size: int
    model_names: list
    rows: list = field(default_factory=list)
    exact_avg_runtime: float = float("nan")
    invariant_violations: list = field(default_factory=list)

    def summaries(self):
        out = []
        for name in self.model_names:
            adjoint = [r.results[name].true_adjoint_error for r in self.rows]
            control = [r.results[name].control_error for r in self.rows]
            runtimes = [r.results[name].runtime for r in self.rows]
            avg_rt = float(np.mean(runtimes)) if runtimes else float("nan")
            out.append(
                ModelSummary(
                    name=name,
                    max_adjoint_error=float(np.max(adjoint)) if adjoint else float("nan"),
                    avg_adjoint_error=float(np.mean(adjoint)) if adjoint else float("nan"),
                    max_control_error=float(np.max(control)) if control else float("nan"),
                    avg_control_error=float(np.mean(control)) if control else float("nan"),
                    avg_runtime=avg_rt,
                    avg_speedup=self.exact_avg_runtime / avg_rt if runtimes else float("nan"),
                )
            )
        return out

    def ok(self):
        return not self.invariant_violations


# shared, read-only context for forked evaluation workers; set by the parent
# right before the pool starts (fork inherits it), never mutated afterwards
_POOL_CONTEXT = {}


def _evaluate_in_worker(task):
    index, mu = task
    ctx = _POOL_CONTEXT
    return _evaluate_test_parameter(
        ctx["config"], ctx["family"], ctx["basis"], ctx["models"], index, mu
    )


def _evaluate_test_set(config, family, basis, models, test_set):
    """Evaluate all test parameters, with an optional forked worker pool.

    Each parameter is independent (the evaluation is a pure function of
    immutable data); rows are reduced back in test-index order, so results
    are identical for any worker count.  Workers inherit the shared context,
    so the pool forks whatever the global start method; without fork the
    evaluation runs serially.
    """
    tasks = list(enumerate(test_set))
    workers = min(config.workers, len(tasks))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        _POOL_CONTEXT.update(config=config, family=family, basis=basis, models=models)
        try:
            with multiprocessing.get_context("fork").Pool(processes=workers) as pool:
                return pool.map(_evaluate_in_worker, tasks)
        finally:
            _POOL_CONTEXT.clear()
    return [_evaluate_test_parameter(config, family, basis, models, i, mu)
            for i, mu in tasks]


def _evaluate_test_parameter(config, family, basis, models, index, mu):
    inst = family.build(mu)
    t0 = time.perf_counter()
    exact = solve_exact(inst, cg_tol=config.cg_tol, max_iter=_cg_max_iter(config))
    exact_runtime = time.perf_counter() - t0

    results = {}

    t0 = time.perf_counter()
    reduced = greedy_rom.rom_online(inst, basis, certify=config.certify)
    rom_runtime = time.perf_counter() - t0
    results["g-rom"] = _model_result(inst, exact, reduced, rom_runtime)

    for kind, model in models.items():
        t0 = time.perf_counter()
        sol = surrogates.surrogate_online(inst, basis, model, certify=config.certify)
        runtime = time.perf_counter() - t0
        results[kind] = _model_result(inst, exact, sol, runtime)

    return TestRow(index=index, parameter=np.atleast_1d(mu), exact_runtime=exact_runtime,
                   results=results)


def _model_result(inst, exact, solution, runtime):
    true_err = inst.ip.norm(exact.phiT - solution.phiT_approx)
    control_err = dynamics.control_norm_dt(
        dynamics.Trajectory(times=exact.control.times,
                            values=exact.control.values - solution.control.values)
    )
    return ModelResult(
        true_adjoint_error=true_err,
        estimated_error=solution.estimated_error,
        control_error=control_err,
        runtime=runtime,
    )


def surrogate_path(outdir, kind):
    """File of the surrogate of ``kind``."""
    return Path(outdir) / f"surrogate_{kind}.bin"


def _check_invariants(report):
    """Certification must upper-bound the true error on every emitted row,
    and at benchmark scale the online runtimes must order as
    surrogates < reduced model < exact solve."""
    slack = 1.0 + 1e-6
    for row in report.rows:
        for name, res in row.results.items():
            if res.estimated_error is None:
                continue
            if res.true_adjoint_error > res.estimated_error * slack:
                report.invariant_violations.append(
                    f"row {row.index} model {name}: true error "
                    f"{res.true_adjoint_error:.3e} exceeds estimate "
                    f"{res.estimated_error:.3e}"
                )
    if report.rows and report.config.time_runs and report.config.n_y >= 50:
        summaries = {s.name: s for s in report.summaries()}
        grom_t = summaries["g-rom"].avg_runtime
        if grom_t >= report.exact_avg_runtime:
            report.invariant_violations.append(
                f"reduced model ({grom_t:.4f}s) not faster than exact "
                f"({report.exact_avg_runtime:.4f}s)"
            )
        for name, summary in summaries.items():
            if name != "g-rom" and summary.avg_runtime >= grom_t:
                report.invariant_violations.append(
                    f"surrogate {name} ({summary.avg_runtime:.4f}s) not faster "
                    f"than the reduced model ({grom_t:.4f}s)"
                )


def _output_dir(config):
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def offline_stage(config):
    """Greedy reduced basis on the training grid.

    Writes the config, the basis, the training pairs and the greedy history;
    returns ``(basis, training_data)``.
    """
    outdir = _output_dir(config)
    save_config(config, outdir / "config.ini")
    family = build_family(config)
    basis, training_data = greedy_rom.greedy_offline(
        family,
        training_parameters(config, family),
        tol=config.tolerance,
        max_basis=config.max_basis,
        cg_tol=config.cg_tol,
        cg_max_iter=_cg_max_iter(config),
        track_true_errors=config.track_true_errors,
    )
    greedy_rom.save_basis(basis, outdir / BASIS_FILE)
    greedy_rom.save_training_data(training_data, outdir / TRAINING_FILE)
    write_greedy_history(basis.history, outdir / "greedy_results.csv")
    return basis, training_data


def training_stage(config, training_data):
    """Fit the requested surrogates and write one file per kind; returns
    ``{kind: model}``.  An empty basis leaves nothing to learn: no model."""
    if training_data.n_coeffs == 0:
        return {}
    outdir = _output_dir(config)
    models = fit_surrogates(config, training_data)
    for kind, model in models.items():
        model.save(surrogate_path(outdir, kind))
    return models


def online_stage(config, basis, models):
    """Evaluate the reduced model and ``models`` on random test parameters
    outside the training grid, check the run's invariants and write the error
    and timing CSVs; returns the ``RunReport``.  Nothing runs without a basis."""
    report = RunReport(config=config, greedy_history=basis.history, basis_size=basis.size,
                       model_names=["g-rom", *models])
    if config.test_count > 0 and basis.size > 0:
        family = build_family(config)
        test_set = sample_random(family.domain, config.test_count, seed=config.test_seed,
                                 exclude=training_parameters(config, family))
        report.rows = _evaluate_test_set(config, family, basis, models, test_set)
        report.exact_avg_runtime = float(np.mean([row.exact_runtime for row in report.rows]))
        _check_invariants(report)
    emit_reports(report, _output_dir(config))
    return report


def run_experiment(config):
    """Run the offline, training and online stages in order.

    A failed stage leaves a marker file naming it in the output directory,
    next to the files of the stages that finished, before the exception
    propagates.
    """
    outdir = _output_dir(config.validate())
    (outdir / FAILURE_MARKER).unlink(missing_ok=True)
    stage = "offline-greedy"
    try:
        basis, training_data = offline_stage(config)
        stage = "train-surrogates"
        models = training_stage(config, training_data)
        stage = "online-evaluation"
        return online_stage(config, basis, models)
    except Exception as exc:
        (outdir / FAILURE_MARKER).write_text(
            f"stage: {stage}\nerror: {type(exc).__name__}: {exc}\n", encoding="utf-8"
        )
        raise


def run_svd_diagnostic(config, damping_list=None):
    """Singular values of the exact final-time adjoints over the training set.

    For the wave family, one spectrum per damping constant in
    ``damping_list``; for the heat family a single spectrum.  Returns a dict
    mapping the damping value (or None for heat) to the descending singular
    values and writes them to ``singular_values.csv``.  Every damping value
    is validated before the first solve.
    """
    if config.family == "wave":
        nus = list(damping_list) if damping_list is not None else [config.nu]
        configs = {float(nu): replace(config, nu=float(nu)).validate() for nu in nus}
    else:
        configs = {None: config.validate()}
    spectra = {key: _training_set_singular_values(cfg) for key, cfg in configs.items()}
    _write_singular_values_csv(spectra, _output_dir(config) / SINGULAR_VALUES_FILE)
    return spectra


def _training_set_singular_values(config):
    family = build_family(config)
    ip = None
    columns = []
    for mu in training_parameters(config, family):
        inst = family.build(mu)
        ip = inst.ip
        columns.append(solve_exact(inst, cg_tol=config.cg_tol,
                                   max_iter=_cg_max_iter(config)).phiT)
    return svd_singular_values(columns, ip)


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def _write_singular_values_csv(spectra, path):
    keys = list(spectra)
    labels = ["heat" if k is None else f"nu={k:g}" for k in keys]
    depth = max(len(s) for s in spectra.values())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mode," + ",".join(f"sigma[{lab}]" for lab in labels) + "\n")
        for i in range(depth):
            row = [str(i + 1)]
            for k in keys:
                s = spectra[k]
                row.append(_fmt(s[i]) if i < len(s) else "")
            fh.write(",".join(row) + "\n")


def write_greedy_history(history, path):
    """Write the greedy history as ``greedy_results.csv``, one row per step."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,basis_size,estimated_max_error,true_error_at_selected\n")
        for i, step in enumerate(history):
            fh.write(
                f"{i},{step.basis_size},{_fmt(step.estimated_max_error)},"
                f"{_fmt(step.true_error_at_selected)}\n"
            )


def emit_reports(report, outdir):
    """Write the per-parameter error and timing CSVs into ``outdir``."""
    p = len(report.rows[0].parameter) if report.rows else 0
    param_cols = [f"mu_{i}" for i in range(p)]
    with open(outdir / "analysis_results_errors.csv", "w", encoding="utf-8") as fh:
        cols = ["test_index", *param_cols]
        for name in report.model_names:
            cols += [
                f"{name}_true_adjoint_error",
                f"{name}_estimated_error",
                f"{name}_control_error",
            ]
        fh.write(",".join(cols) + "\n")
        for row in report.rows:
            out = [str(row.index)] + [_fmt(v) for v in row.parameter]
            for name in report.model_names:
                res = row.results[name]
                out += [
                    _fmt(res.true_adjoint_error),
                    _fmt(res.estimated_error),
                    _fmt(res.control_error),
                ]
            fh.write(",".join(out) + "\n")

    if report.config.time_runs:
        with open(outdir / "timings.csv", "w", encoding="utf-8") as fh:
            fh.write("model,avg_runtime_seconds,avg_speedup_vs_exact\n")
            fh.write(f"exact,{_fmt(report.exact_avg_runtime)},\n")
            for summary in report.summaries():
                fh.write(
                    f"{summary.name},{_fmt(summary.avg_runtime)},{_fmt(summary.avg_speedup)}\n"
                )
