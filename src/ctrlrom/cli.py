"""Command-line experiment runner.

Subcommands mirror the pipeline stages:

    offline           build the reduced basis on the training grid
    train-surrogates  fit the surrogates on the stored training data
    online            evaluate exact / reduced / learned models on test set
    full-run          all of the above in one process
    svd-diag          singular values of the exact adjoints (damping sweep)

Every flag mirrors a config-file key; flags override the file, which
overrides the per-family defaults.  The exit code is zero only if all
invariant checks of the run pass.
"""

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import experiment, greedy_rom, surrogates


def _add_config_flags(parser):
    parser.add_argument("--config", type=str, default=None, help="config file (INI)")
    parser.add_argument("--family", choices=("heat", "wave"))
    parser.add_argument("--n-y", type=int, dest="n_y")
    parser.add_argument("--final-time", type=float, dest="T")
    parser.add_argument("--steps-per-point", type=int, dest="steps_per_point")
    parser.add_argument("--nu", type=float, help="damping constant (wave family)")
    parser.add_argument("--train-grid", type=int, nargs="+", dest="train_grid")
    parser.add_argument("--tolerance", type=float, help="greedy stopping tolerance")
    parser.add_argument("--max-basis", type=int, dest="max_basis")
    parser.add_argument("--cg-tol", type=float, dest="cg_tol")
    parser.add_argument("--cg-max-iter", type=int, dest="cg_max_iter")
    parser.add_argument("--track-true-errors", action="store_true", default=None,
                        dest="track_true_errors")
    parser.add_argument("--surrogates", nargs="+", dest="surrogate_kinds",
                        choices=sorted(surrogates.REGRESSOR_CLASSES))
    parser.add_argument("--kernel-beta", type=float, dest="kernel_beta")
    parser.add_argument("--kernel-p-greedy-tol", type=float, dest="kernel_p_greedy_tol")
    parser.add_argument("--kernel-regularization", type=float, dest="kernel_regularization")
    parser.add_argument("--gpr-restarts", type=int, dest="gpr_restarts")
    parser.add_argument("--gpr-jitter", type=float, dest="gpr_jitter")
    parser.add_argument("--mlp-restarts", type=int, dest="mlp_restarts")
    parser.add_argument("--mlp-val-fraction", type=float, dest="mlp_val_fraction")
    parser.add_argument("--mlp-patience", type=int, dest="mlp_patience")
    parser.add_argument("--surrogate-seed", type=int, dest="surrogate_seed")
    parser.add_argument("--test-count", type=int, dest="test_count")
    parser.add_argument("--test-seed", type=int, dest="test_seed")
    parser.add_argument("--workers", type=int, help="parallel test-evaluation workers")
    parser.add_argument("--output-dir", type=str, dest="output_dir")
    parser.add_argument("--no-certify", action="store_false", default=None, dest="certify")
    parser.add_argument("--no-timing", action="store_false", default=None, dest="time_runs")


def _resolve_config(args):
    if args.config is not None:
        cfg = experiment.load_config(args.config)
    else:
        cfg = experiment.default_config(args.family or "heat")
    names = {f.name for f in fields(experiment.ExperimentConfig)}
    overrides = {}
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = tuple(value) if isinstance(value, list) else value
    return replace(cfg, **overrides).validate()


def _print_summaries(report):
    print(f"reduced basis size: {report.basis_size}")
    for step in report.greedy_history:
        true_part = (
            f"  true@selected {step.true_error_at_selected:.3e}"
            if step.true_error_at_selected is not None
            else ""
        )
        print(f"  greedy size {step.basis_size:3d}: est max {step.estimated_max_error:.3e}{true_part}")
    if report.rows:
        print(f"exact avg runtime: {report.exact_avg_runtime:.4f}s over {len(report.rows)} tests")
        for s in report.summaries():
            print(
                f"  {s.name:8s} adjoint max/avg {s.max_adjoint_error:.3e}/{s.avg_adjoint_error:.3e}"
                f"  control max/avg {s.max_control_error:.3e}/{s.avg_control_error:.3e}"
                f"  runtime {s.avg_runtime:.4f}s  speedup {s.avg_speedup:.1f}x"
            )
    for violation in report.invariant_violations:
        print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)


def _cmd_offline(args):
    cfg = _resolve_config(args)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    family = experiment.build_family(cfg)
    train_set = experiment.training_parameters(cfg, family)
    basis, training_data = greedy_rom.greedy_offline(
        family, train_set, tol=cfg.tolerance, max_basis=cfg.max_basis,
        cg_tol=cfg.cg_tol, cg_max_iter=experiment._cg_max_iter(cfg),
        track_true_errors=cfg.track_true_errors,
    )
    greedy_rom.save_basis(basis, outdir / "basis.crb")
    greedy_rom.save_training_data(training_data, outdir / "training_data.bin")
    experiment.save_config(cfg, outdir / "config.ini")
    experiment.write_greedy_history(basis.history, outdir / "greedy_results.csv")
    print(f"basis of size {basis.size} written to {outdir / 'basis.crb'}")
    return 0


def _cmd_train_surrogates(args):
    cfg = _resolve_config(args)
    outdir = Path(cfg.output_dir)
    family = experiment.build_family(cfg)
    training_data = greedy_rom.load_training_data(
        outdir / "training_data.bin", n_params=family.domain.dim
    )
    models = experiment.fit_surrogates(cfg, training_data)
    for kind, model in models.items():
        path = experiment.surrogate_path(outdir, kind)
        model.save(path)
        print(f"fitted {kind} surrogate -> {path}")
    return 0


def _cmd_online(args):
    cfg = _resolve_config(args)
    outdir = Path(cfg.output_dir)
    basis = greedy_rom.load_basis(outdir / "basis.crb")
    family = experiment.build_family(cfg)
    models = {}
    for kind in cfg.surrogate_kinds:
        path = experiment.surrogate_path(outdir, kind)
        if path.exists():
            models[kind] = surrogates.load_model(path)
    train_set = experiment.training_parameters(cfg, family)
    report = experiment.evaluate_online(cfg, family, basis, models, train_set)
    experiment.emit_reports(report, outdir)
    _print_summaries(report)
    return 0 if report.ok() else 1


def _cmd_full_run(args):
    cfg = _resolve_config(args)
    report = experiment.run_experiment(cfg)
    experiment.save_config(cfg, Path(cfg.output_dir) / "config.ini")
    _print_summaries(report)
    return 0 if report.ok() else 1


def _cmd_svd_diag(args):
    cfg = _resolve_config(args)
    damping = args.damping if cfg.family == "wave" else None
    spectra = experiment.run_svd_diagnostic(cfg, damping_list=damping, cg_tol=args.svd_cg_tol)
    for key, sigma in spectra.items():
        label = "heat" if key is None else f"nu={key:g}"
        decay = sigma[min(len(sigma), 8) - 1] / sigma[0]
        print(f"{label}: {len(sigma)} singular values, sigma_1={sigma[0]:.3e}, "
              f"sigma_8/sigma_1={decay:.3e}")
    print(f"singular_values.csv written to {cfg.output_dir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ctrlrom",
        description="Certified reduced-order models for parametrized LQ optimal control",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("offline", _cmd_offline),
        ("train-surrogates", _cmd_train_surrogates),
        ("online", _cmd_online),
        ("full-run", _cmd_full_run),
        ("svd-diag", _cmd_svd_diag),
    ):
        p = sub.add_parser(name)
        _add_config_flags(p)
        p.set_defaults(func=fn)
        if name == "svd-diag":
            p.add_argument("--damping", type=float, nargs="+", default=None,
                           help="damping constants to sweep (wave family)")
            p.add_argument("--svd-cg-tol", type=float, default=None,
                           help="CG tolerance for the diagnostic solves")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
