"""Configuration-driven experiment pipeline in three stages, each written
once, plus the singular value diagnostic.

``offline_stage`` builds the reduced basis on a training grid,
``training_stage`` fits the requested surrogates on the coefficients the
greedy loop collected, and ``online_stage`` compares, at every random test
parameter, the exact solution against the reduced and learned models.  Its
``RunReport`` is the table the error CSV holds: per model, one row per test
parameter of the adjoint error in the weighted norm, its certified estimate
and the control error in the discrete time-integrated norm, next to the
per-query runtimes.  The stages hand over through their files alone:
each takes only the config, reads what the stage before it wrote into
``config.output_dir`` (the training data, then the basis with its greedy
history and the surrogate files), writes its own files there and returns
its result.  ``run_experiment`` runs the three in order, as the staged
commands do.
"""

import configparser
import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import dynamics, greedy_rom, surrogates
from .exact_solver import assemble_dense_operator, solve_exact
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
    "heat": {},  # the dataclass defaults are the heat setup
    "wave": dict(n_y=60, T=1.0, steps_per_point=10, train_grid=(50,),
                 tolerance=7.81e-2, cg_tol=1e-9, cg_max_iter=8000,
                 kernel_beta=1.0),
}


def _key(section, default, flag=None):
    """A config field stored under ``[section]`` of the INI file and set by
    the command-line flag ``flag``, by default ``--name-with-dashes``."""
    return field(default=default, metadata={"section": section, "flag": flag})


@dataclass
class ExperimentConfig:
    """All settings of one experiment run; see the README.

    Each field is one INI key, in the section its ``metadata["section"]``
    names (sections and keys are written in field order), and one
    command-line flag, ``FLAGS[name]``; ``load_config`` resolves both.  A
    field's default gives its type, and a ``<kind>_*`` field is the
    constructor argument ``*`` of the surrogate of that kind.
    """

    family: str = _key("family", "heat")
    n_y: int = _key("family", 100)
    T: float = _key("family", 0.1, flag="--final-time")
    steps_per_point: int = _key("family", 30)
    nu: float = _key("family", 10.0)
    train_grid: tuple = _key("training", (8, 8))
    tolerance: float = _key("greedy", 1e-6)
    max_basis: int = _key("greedy", 50)
    cg_tol: float = _key("greedy", 1e-12)
    cg_max_iter: int = _key("greedy", 0)  # 0 = solver default (10 * state dimension)
    surrogate_kinds: tuple = _key("surrogates", ("kernel", "gpr", "mlp"), flag="--surrogates")
    kernel_beta: float = _key("surrogates", 0.5)
    gpr_restarts: int = _key("surrogates", 10)
    mlp_restarts: int = _key("surrogates", 10)
    surrogate_seed: int = _key("surrogates", 0)
    test_count: int = _key("test", 100)
    test_seed: int = _key("test", 2024)
    output_dir: str = _key("output", "results")

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, str) and not isinstance(value, str):
                raise ValueError(f"{f.name} must be a string, got {value!r}")
        if self.family not in FAMILY_BUILDERS:
            raise ValueError(f"unknown family '{self.family}'")
        if self.n_y < 2 or self.steps_per_point < 1:
            raise ValueError("n_y >= 2 and steps_per_point >= 1 required")
        for name in ("T", "tolerance", "cg_tol"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.max_basis < 1 or self.test_count < 0:
            raise ValueError("max_basis >= 1 and test_count >= 0 required")
        if self.cg_max_iter < 0:
            raise ValueError("cg_max_iter >= 0 required (0 = solver default)")
        if self.test_seed < 0 or self.surrogate_seed < 0:
            raise ValueError("test_seed >= 0 and surrogate_seed >= 0 required")
        # rejects a grid that does not fit the family, or a negative or NaN nu
        training_parameters(self, build_family(self))
        for name in ("nu", "kernel_beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if len(set(self.surrogate_kinds)) < len(self.surrogate_kinds):
            raise ValueError(f"surrogate_kinds names a kind twice: {self.surrogate_kinds!r}")
        for kind in self.surrogate_kinds:
            _regressor(self, kind)  # rejects an unknown kind or a bad setting
        return self


# the command-line flag of each config field
FLAGS = {f.name: f.metadata["flag"] or "--" + f.name.replace("_", "-")
         for f in fields(ExperimentConfig)}


def default_config(family):
    """Documented per-family defaults reproducing the benchmark setups."""
    if not (isinstance(family, str) and family in _FAMILY_DEFAULTS):
        raise ValueError(f"unknown family '{family}'")
    cfg = ExperimentConfig(family=family)
    return replace(cfg, **_FAMILY_DEFAULTS[family]).validate()


def _format_value(value):
    if isinstance(value, (tuple, list)):
        return " ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(text, template):
    """``text`` read as the type of ``template``; a tuple's text is a string
    of tokens or their list.  Text for a string field passes through as it
    is, so that ``validate()`` rejects one that is not a string."""
    if isinstance(template, (tuple, list)):
        inner = template[0] if len(template) else "x"
        return tuple(_parse_value(tok, inner)
                     for tok in (text.split() if isinstance(text, str) else text))
    if isinstance(template, int):
        return int(text)
    if isinstance(template, float):
        return float(text)
    return text


def save_config(config, path):
    """Write a config as a flat key/value file with sections."""
    parser = configparser.ConfigParser(interpolation=None)
    for f in fields(config):
        section = f.metadata["section"]
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, f.name, _format_value(getattr(config, f.name)))
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def load_config(path=None, **flags):
    """The validated config of a run: the file at ``path`` as ``save_config``
    writes it, if any, with ``flags`` over it.

    ``flags`` maps field names to texts as the command line gives them: a
    string, or a tuple field's list of tokens.  A flag's text overrides the
    file's, and each parses as its field's type.  A field set by neither
    takes the default of the family the flags name, else of the one the
    file names, else heat's.  A file that is not INI, a section or key that
    ``save_config`` does not write there, or a text that does not parse
    raises ``ValueError`` naming where the text came from: the file, section
    and key, or the flag; so does a flag with an empty list of tokens, where a
    file's empty text is an empty tuple.  A config that ``validate()``
    rejects raises its message, located the same way when exactly one value
    makes the family defaults invalid on its own, and else after the file's
    name, if any.
    """
    texts, where = {}, {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            found = parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ValueError(f"{path}: malformed config file: {exc}") from exc
        if not found:
            raise FileNotFoundError(f"config file {path} not found")
        keys = {(f.metadata["section"], parser.optionxform(f.name)): f.name
                for f in fields(ExperimentConfig)}
        for section in parser.sections():
            for option, text in parser[section].items():
                if (section, option) not in keys:
                    raise ValueError(f"{path}: unknown key '{option}' in section [{section}]")
                name = keys[section, option]
                texts[name], where[name] = text, f"{path}: key '{option}' in section [{section}]"
    for name, text in flags.items():
        if isinstance(text, list) and not text:  # argparse before 3.13 makes [] of --flag=--
            raise ValueError(f"flag {FLAGS[name]}: no value given")
        texts[name], where[name] = text, f"flag {FLAGS[name]}"
    template, values = ExperimentConfig(), {}
    for name, text in texts.items():
        try:
            values[name] = _parse_value(text, getattr(template, name))
        except ValueError as exc:
            raise ValueError(f"{where[name]}: cannot parse {text!r}: {exc}") from exc
    try:
        defaults = default_config(values.get("family", "heat"))
    except ValueError as exc:
        raise ValueError(f"{where['family']}: {exc}") from exc
    try:
        return replace(defaults, **values).validate()
    except ValueError as exc:
        at_fault = []  # the values that the family defaults reject alone
        for name, value in values.items():
            try:
                replace(defaults, **{name: value}).validate()
            except ValueError:
                at_fault.append(where[name])
        located = at_fault[0] if len(at_fault) == 1 else path
        raise ValueError(f"{located}: {exc}" if located is not None else str(exc)) from exc


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


def _require_pairs(config, pairs, source):
    """Reject ``pairs`` training pairs, counted in ``source``, when a requested
    surrogate's fit needs more: before any fit, with the kind named."""
    for kind in config.surrogate_kinds:
        needed = surrogates.REGRESSOR_CLASSES[kind].min_pairs
        if pairs < needed:
            raise ValueError(f"the {kind} surrogate needs at least {needed} training pairs, "
                             f"{source} {pairs}")


def fit_surrogates(config, training_data):
    """Fit every requested surrogate on the greedy training pairs."""
    return {kind: _regressor(config, kind).fit(training_data)
            for kind in config.surrogate_kinds}


# the columns of ``RunReport.errors[name]``, in the error CSV's order
ERROR_COLUMNS = ("true_adjoint_error", "estimated_error", "control_error")


@dataclass
class RunReport:
    """The online stage's measurements at its T test parameters.

    ``parameters`` is (T, p); ``errors[name]`` is (T, 3) per model, with
    columns ``ERROR_COLUMNS``; ``runtimes[name]`` is (T,) seconds for
    ``"exact"`` and each model.  Models are keyed in the CSVs' order.
    """

    config: ExperimentConfig
    greedy_history: list
    basis_size: int
    parameters: np.ndarray
    errors: dict
    runtimes: dict
    invariant_violations: list = field(default_factory=list)

    def ok(self):
        return not self.invariant_violations


def surrogate_path(outdir, kind):
    """File of the surrogate of ``kind``."""
    return Path(outdir) / f"surrogate_{kind}.bin"


def _check_invariants(report):
    """Certification must upper-bound the true error on every emitted row,
    and at benchmark scale the online runtimes must order as
    surrogates < reduced model < exact solve."""
    slack = 1.0 + 1e-6
    names = list(report.errors)
    errors = np.stack(list(report.errors.values()), axis=1)  # (T, models, 3)
    for i, m in zip(*np.nonzero(errors[..., 0] > errors[..., 1] * slack)):
        report.invariant_violations.append(
            f"row {i} model {names[m]}: true error {errors[i, m, 0]:.3e} exceeds "
            f"estimate {errors[i, m, 1]:.3e}"
        )
    if len(report.parameters) and report.config.n_y >= 50:
        mean = {name: t.mean() for name, t in report.runtimes.items()}
        exact_t, grom_t = mean.pop("exact"), mean.pop("g-rom")
        if grom_t >= exact_t:
            report.invariant_violations.append(
                f"reduced model ({grom_t:.4f}s) not faster than exact ({exact_t:.4f}s)"
            )
        for name, t in mean.items():
            if t >= grom_t:
                report.invariant_violations.append(
                    f"surrogate {name} ({t:.4f}s) not faster "
                    f"than the reduced model ({grom_t:.4f}s)"
                )


def _output_dir(config):
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def offline_stage(config):
    """Greedy reduced basis on the training grid.

    Writes the config, the basis with its greedy history, the training
    pairs and the history's CSV; returns the basis.
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
    )
    greedy_rom.save_basis(basis, outdir / BASIS_FILE)
    greedy_rom.save_training_data(training_data, outdir / TRAINING_FILE)
    _write_csv(outdir / "greedy_results.csv",
               ["iteration", "basis_size", "estimated_max_error", "true_error_at_selected"],
               ([i, i, step.estimated_max_error, step.true_error_at_selected]
                for i, step in enumerate(basis.history)))  # row i has basis size i
    return basis


def training_stage(config):
    """Fit the requested surrogates on the training data the offline stage
    wrote and write one file per kind; returns ``{kind: model}``.  Fewer
    pairs than a requested surrogate needs raise ``ValueError`` before any
    fit.  An empty basis leaves nothing to learn: no model."""
    outdir = Path(config.output_dir)
    training_data = greedy_rom.load_training_data(outdir / TRAINING_FILE,
                                                  n_params=build_family(config).domain.dim)
    _require_pairs(config, len(training_data.parameters), f"{TRAINING_FILE} holds")
    if training_data.coefficients.shape[1] == 0:
        return {}
    models = fit_surrogates(config, training_data)
    for kind, model in models.items():
        model.save(surrogate_path(outdir, kind))
    return models


def online_stage(config):
    """Evaluate the reduced model and the requested surrogates, as the
    earlier stages wrote them, on random test parameters outside the
    training grid, one after another in this process, check the run's
    invariants and write the error and timing CSVs; returns the
    ``RunReport``, which carries the basis file's greedy history.  An empty
    basis has no surrogate files and no test parameters; a basis of another
    family or inner-product weight, or a model fitted to another basis size
    or parameter length, raises ``ValueError`` before the first solve."""
    outdir = Path(config.output_dir)
    basis = greedy_rom.load_basis(outdir / BASIS_FILE)
    family = build_family(config)
    weight = family.build(family.domain.lows).ip.weight
    if (basis.family_name, basis.ip.weight) != (family.name, weight):
        raise ValueError(f"basis built for {basis.family_name} with inner-product weight "
                         f"{basis.ip.weight!r}, config is {family.name} with weight {weight!r}")
    models = {kind: surrogates.load_model(surrogate_path(outdir, kind))
              for kind in (config.surrogate_kinds if basis.size else ())}
    for kind, model in models.items():
        if model.n_outputs != basis.size:
            raise ValueError(f"{kind} model predicts {model.n_outputs} coefficients but "
                             f"basis has size {basis.size}")
        if model.n_inputs != family.domain.dim:
            raise ValueError(f"{kind} model takes a parameter of length {model.n_inputs} but "
                             f"{family.name} has parameters of length {family.domain.dim}")
    names = ["g-rom", *models]
    test_set = np.reshape(
        sample_random(family.domain, config.test_count if basis.size else 0,
                      seed=config.test_seed, exclude=training_parameters(config, family)),
        (-1, family.domain.dim))
    count = len(test_set)
    report = RunReport(config=config, greedy_history=basis.history, basis_size=basis.size,
                       parameters=test_set,
                       errors={name: np.empty((count, len(ERROR_COLUMNS))) for name in names},
                       runtimes={name: np.empty(count) for name in ("exact", *names)})
    for i, mu in enumerate(test_set):
        inst = family.build(mu)
        t0 = time.perf_counter()
        # the timed exact tier is the paper's matrix-free baseline: it
        # sketches its preconditioner and never assembles the operator
        exact = solve_exact(inst, cg_tol=config.cg_tol, max_iter=_cg_max_iter(config))
        report.runtimes["exact"][i] = time.perf_counter() - t0
        for name in names:
            model = models.get(name)
            t0 = time.perf_counter()
            sol = (greedy_rom.rom_online(inst, basis) if model is None
                   else surrogates.surrogate_online(inst, basis, model))
            report.runtimes[name][i] = time.perf_counter() - t0
            report.errors[name][i] = (
                inst.ip.norm(exact.phiT - sol.phiT_approx), sol.estimated_error,
                dynamics.control_norm_dt(exact.control - sol.control, inst.grid.dt))
    _check_invariants(report)
    emit_reports(report, outdir)
    return report


def run_experiment(config):
    """Run the offline, training and online stages in order.

    A training grid with fewer pairs than a requested surrogate's fit needs
    raises ``ValueError`` before anything is written.  A failed stage leaves
    a marker file naming it in the output directory, next to the files of
    the stages that finished, before the exception propagates.
    """
    _require_pairs(config.validate(), math.prod(config.train_grid),
                   f"train_grid {_format_value(config.train_grid)} has")
    outdir = _output_dir(config)
    (outdir / FAILURE_MARKER).unlink(missing_ok=True)
    stage = "offline-greedy"
    try:
        offline_stage(config)
        stage = "train-surrogates"
        training_stage(config)
        stage = "online-evaluation"
        return online_stage(config)
    except Exception as exc:
        (outdir / FAILURE_MARKER).write_text(
            f"stage: {stage}\nerror: {type(exc).__name__}: {exc}\n", encoding="utf-8"
        )
        raise


def damping_configs(config, damping_list=None):
    """The validated configs of a damping sweep, keyed by damping constant:
    for the wave family one per value in ``damping_list`` (default: its own
    ``nu``; a value named twice, or two sharing a ``damping_label``, is
    rejected), for the heat family, which takes no damping list, itself
    under None."""
    if config.family != "wave":
        if damping_list:
            raise ValueError(f"a damping sweep needs the wave family's damping constant, "
                             f"family {config.family} has none")
        return {None: config.validate()}
    nus = [float(nu) for nu in damping_list] if damping_list else [config.nu]
    if len(set(nus)) < len(nus):
        raise ValueError(f"the damping list names a value twice: {nus!r}")
    if len(set(labels := [damping_label(nu) for nu in nus])) < len(nus):
        raise ValueError(f"two damping values share a label: {nus!r} read {labels!r}")
    return {nu: replace(config, nu=nu).validate() for nu in nus}


def damping_label(key):
    """The label of a ``damping_configs`` key in the svd-diag CSV and report."""
    return "heat" if key is None else f"nu={key:g}"


def run_svd_diagnostic(config, damping_list=None):
    """Singular values of the exact final-time adjoints over the training set.

    One spectrum per config of ``damping_configs``, each validated before
    the first solve.  Each exact solve takes its instance's assembled
    operator (``assemble_dense_operator``) as its preconditioner.  Returns
    a dict mapping the damping value (or None for heat) to the descending
    singular values and writes them to ``singular_values.csv``.
    """
    configs = damping_configs(config, damping_list)
    spectra = {key: _training_set_singular_values(cfg) for key, cfg in configs.items()}
    _write_csv(_output_dir(config) / SINGULAR_VALUES_FILE,
               ["mode", *(f"sigma[{damping_label(key)}]" for key in spectra)],
               ([i + 1, *(s[i] if i < len(s) else None for s in spectra.values())]
                for i in range(max(map(len, spectra.values())))))
    return spectra


def _training_set_singular_values(config):
    family = build_family(config)
    ip = None
    columns = []
    for mu in training_parameters(config, family):
        inst = family.build(mu)
        ip = inst.ip
        columns.append(solve_exact(inst, cg_tol=config.cg_tol, max_iter=_cg_max_iter(config),
                                   operator=assemble_dense_operator(inst)).phiT)
    return svd_singular_values(columns, ip)


def _write_csv(path, header, rows):
    """Write a CSV file: a float cell as ``repr(float(v))``, ``None`` as an
    empty cell, anything else with ``str``."""
    def cell(value):
        if value is None:
            return ""
        return repr(float(value)) if isinstance(value, float) else str(value)

    with open(path, "w", encoding="utf-8") as fh:
        for row in [header, *rows]:
            fh.write(",".join(map(cell, row)) + "\n")


def emit_reports(report, outdir):
    """Write the per-parameter error and timing CSVs into ``outdir``."""
    header = ["test_index", *(f"mu_{i}" for i in range(report.parameters.shape[1])),
              *(f"{name}_{column}" for name in report.errors for column in ERROR_COLUMNS)]
    table = np.hstack([report.parameters, *report.errors.values()])
    _write_csv(outdir / "analysis_results_errors.csv", header,
               ([i, *row] for i, row in enumerate(table)))
    mean = {name: t.mean() if t.size else np.nan for name, t in report.runtimes.items()}
    exact_t = mean.pop("exact")
    _write_csv(outdir / "timings.csv", ["model", "avg_runtime_seconds", "avg_speedup_vs_exact"],
               [["exact", exact_t, None], *([name, t, exact_t / t] for name, t in mean.items())])
