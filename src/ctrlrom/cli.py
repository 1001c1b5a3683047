"""Command-line experiment runner.

Subcommands are the pipeline stages:

    offline           build the reduced basis on the training grid
    train-surrogates  fit the surrogates on the stored training data
    online            evaluate exact / reduced / learned models on test set
    full-run          the three stages above in order, in one process, each
                      reading what the one before it wrote
    svd-diag          singular values of the exact adjoints (damping sweep)

Every field of ``ExperimentConfig`` is a flag, ``experiment.FLAGS[name]``.
Flags override the config file (``--config``), which overrides the defaults
of the family the flags name, else of the one the file names, else heat's;
``experiment.load_config`` resolves them, and a value it rejects is named
by its flag or by its file, section and key.  The exit code is zero only if
all invariant checks of the run pass.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import experiment
from .experiment import FLAGS


def _add_config_flags(parser):
    """One flag per config field, collecting its text; ``load_config`` parses it."""
    parser.add_argument("--config", help="config file (INI)")
    for f in fields(experiment.ExperimentConfig):
        parser.add_argument(FLAGS[f.name], dest=f.name, help=f"config key {f.name}",
                            nargs="+" if isinstance(f.default, tuple) else None)


def _resolve_config(args):
    flags = {name: value for name in FLAGS if (value := getattr(args, name)) is not None}
    cfg = experiment.load_config(args.config, **flags)
    # svd-diag's damping sweep, checked before any solve
    experiment.damping_configs(cfg, getattr(args, "damping", None))
    return cfg


def _report(report):
    """Print the run's summary; the exit code is 1 on an invariant violation."""
    print(f"reduced basis size: {report.basis_size}")
    for size, step in enumerate(report.greedy_history):
        true_part = (
            f"  true@selected {step.true_error_at_selected:.3e}"
            if step.true_error_at_selected is not None
            else ""
        )
        print(f"  greedy size {size:3d}: est max {step.estimated_max_error:.3e}{true_part}")
    if len(report.parameters):
        exact_t = report.runtimes["exact"].mean()
        print(f"exact avg runtime: {exact_t:.4f}s over {len(report.parameters)} tests")
        for name, errors in report.errors.items():
            adjoint, control, runtime = errors[:, 0], errors[:, 2], report.runtimes[name].mean()
            print(
                f"  {name:8s} adjoint max/avg {adjoint.max():.3e}/{adjoint.mean():.3e}"
                f"  control max/avg {control.max():.3e}/{control.mean():.3e}"
                f"  runtime {runtime:.4f}s  speedup {exact_t / runtime:.1f}x"
            )
    for violation in report.invariant_violations:
        print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)
    return 0 if report.ok() else 1


def _cmd_offline(cfg, args):
    basis = experiment.offline_stage(cfg)
    print(f"basis of size {basis.size} written to {Path(cfg.output_dir) / experiment.BASIS_FILE}")
    return 0


def _cmd_train_surrogates(cfg, args):
    for kind in experiment.training_stage(cfg):
        print(f"fitted {kind} surrogate -> {experiment.surrogate_path(cfg.output_dir, kind)}")
    return 0


def _cmd_online(cfg, args):
    return _report(experiment.online_stage(cfg))


def _cmd_full_run(cfg, args):
    return _report(experiment.run_experiment(cfg))


def _cmd_svd_diag(cfg, args):
    spectra = experiment.run_svd_diagnostic(cfg, damping_list=args.damping)
    for key, sigma in spectra.items():
        label = experiment.damping_label(key)
        k = min(len(sigma), 8)
        print(f"{label}: {len(sigma)} singular values, sigma_1={sigma[0]:.3e}, "
              f"sigma_{k}/sigma_1={sigma[k - 1] / sigma[0]:.3e}")
    print(f"singular values written to {Path(cfg.output_dir) / experiment.SINGULAR_VALUES_FILE}")
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
            p.add_argument("--damping", type=float, nargs="+",
                           help="damping constants to sweep (wave family)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except (ValueError, FileNotFoundError) as exc:  # a config no stage accepts, or no file
        parser.error(str(exc))
    return args.func(cfg, args)


if __name__ == "__main__":
    sys.exit(main())
