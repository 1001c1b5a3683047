import re
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctrlrom
from ctrlrom import exact_solver, experiment, persist
from ctrlrom.cli import FLAGS, _report, _resolve_config, build_parser, main
from ctrlrom.errors import ConvergenceError, GreedyBudgetError
from ctrlrom.experiment import (
    ERROR_COLUMNS,
    ExperimentConfig,
    FAILURE_MARKER,
    RunReport,
    default_config,
    load_config,
    run_experiment,
    run_svd_diagnostic,
    save_config,
)
from ctrlrom.greedy_rom import TrainingData, load_basis
from ctrlrom.surrogates import KernelRegressor
from ctrlrom.system import build_heat_family


README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def tiny_heat_config(outdir, **overrides):
    base = dict(
        family="heat",
        n_y=8,
        T=0.1,
        steps_per_point=10,
        train_grid=(3, 3),
        tolerance=1e-4,
        max_basis=12,
        cg_tol=1e-12,
        surrogate_kinds=("kernel", "gpr", "mlp"),
        kernel_beta=0.1,
        gpr_restarts=3,
        mlp_restarts=2,
        test_count=4,
        test_seed=99,
        output_dir=str(outdir),
    )
    base.update(overrides)
    return ExperimentConfig(**base).validate()


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# one strategy per config field, drawing only configs that validate; tuples
# are non-empty, since a flag with nargs="+" cannot spell an empty one
FIELD_STRATEGIES = dict(
    family=st.sampled_from(["heat", "wave"]),
    n_y=st.integers(min_value=2),
    T=_POSITIVE,
    steps_per_point=st.integers(min_value=1),
    nu=st.floats(min_value=0.0, allow_infinity=False),
    train_grid=st.lists(st.integers(1, 64), min_size=1, max_size=2).map(tuple),
    tolerance=_POSITIVE,
    max_basis=st.integers(min_value=1),
    cg_tol=_POSITIVE,
    cg_max_iter=st.integers(min_value=0),
    surrogate_kinds=st.lists(st.sampled_from(["kernel", "gpr", "mlp"]),
                             min_size=1, max_size=3, unique=True).map(tuple),
    kernel_beta=_POSITIVE,
    gpr_restarts=st.integers(min_value=1),
    mlp_restarts=st.integers(min_value=1),
    surrogate_seed=st.integers(min_value=0),
    test_count=st.integers(min_value=0),
    test_seed=st.integers(min_value=0),
    # INI values lose surrounding whitespace, and argparse before Python
    # 3.13 drops a flag value that is exactly "--" (``--output-dir=--``)
    output_dir=st.text(alphabet="ab/_-.%;#=:[] é", max_size=12).filter(
        lambda s: s == s.strip() and s != "--"),
)
# the training grid needs one count per parameter axis of the family
VALID_CONFIGS = st.builds(ExperimentConfig, **FIELD_STRATEGIES).filter(
    lambda c: len(c.train_grid) == {"heat": 2, "wave": 1}[c.family])


def config_flags(setting):
    """Command-line flags setting each config field that ``setting`` names."""
    argv = []
    for name, value in setting.items():
        if isinstance(value, tuple):
            argv += [FLAGS[name], *map(str, value)]
        else:
            argv.append(f"{FLAGS[name]}={value}")
    return argv


class TestConfigFile:
    def test_round_trip_draws_every_field(self):
        assert set(FIELD_STRATEGIES) == {f.name for f in fields(ExperimentConfig)}

    @given(cfg=VALID_CONFIGS)
    @example(cfg=tiny_heat_config("out", tolerance=3.7e-5, kernel_beta=0.123456789012345))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_lossless(self, cfg, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "round_trip.ini"
        save_config(cfg, path)
        assert load_config(path) == cfg
        args = build_parser().parse_args(["offline", *config_flags(asdict(cfg))])
        assert _resolve_config(args) == cfg

    def test_flag_spellings(self):
        args = build_parser().parse_args([
            "online", "--final-time", "0.5", "--surrogates", "gpr", "kernel",
        ])
        cfg = _resolve_config(args)
        assert cfg.T == 0.5
        assert cfg.surrogate_kinds == ("gpr", "kernel")

    def test_readme_sample_is_the_heat_default(self, tmp_path):
        path = tmp_path / "readme.ini"
        path.write_text(re.search(r"```ini\n(.*?)```", README, re.S).group(1), encoding="utf-8")
        assert load_config(path) == default_config("heat")

    @pytest.mark.parametrize("setting", [
        dict(kernel_beta=0.0),
        dict(gpr_restarts=0),
        dict(mlp_restarts=0),
        dict(test_seed=-1),
        dict(surrogate_seed=-1),
        dict(kernel_beta=float("nan")),
        dict(kernel_beta=float("inf")),
        dict(surrogate_kinds=("kernel", "kernel")),
        dict(surrogate_kinds=("gpr", "mlp", "gpr")),
    ])
    def test_bad_surrogate_setting_rejected_before_any_stage(self, tmp_path, setting):
        with pytest.raises(ValueError):
            tiny_heat_config(tmp_path, **setting)
        outdir = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_:
            main(["full-run", "--n-y", "6", "--output-dir", str(outdir),
                  *config_flags(setting)])
        assert exit_.value.code == 2
        assert not outdir.exists()

    @pytest.mark.parametrize("setting, flags, message", [
        (dict(train_grid=(8,)), ["--train-grid", "8"], "one count per parameter axis"),
        (dict(cg_max_iter=-1), ["--cg-max-iter=-1"], "cg_max_iter"),
        (dict(tolerance=float("inf")), ["--tolerance=inf"], "tolerance"),
        (dict(T=float("inf")), ["--final-time=inf"], "T must be"),
        (dict(family="wave", train_grid=(4,), nu=float("nan")),
         ["--family", "wave", "--train-grid", "4", "--nu=nan"], "damping constant"),
        (dict(family="wave", train_grid=(4,), nu=float("inf")),
         ["--family", "wave", "--train-grid", "4", "--nu=inf"], "nu must be finite"),
    ])
    def test_bad_greedy_setting_rejected_before_any_stage(self, tmp_path, setting, flags,
                                                          message):
        with pytest.raises(ValueError, match=message):
            tiny_heat_config(tmp_path, **setting)
        outdir = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_:
            main(["offline", "--family", "heat", "--n-y", "6", "--output-dir", str(outdir),
                  *flags])
        assert exit_.value.code == 2
        assert not outdir.exists()

    @pytest.mark.parametrize("setting", [dict(output_dir=()), dict(family=1)])
    def test_non_string_in_string_field_rejected(self, tmp_path, setting):
        with pytest.raises(ValueError, match="must be a string"):
            tiny_heat_config(tmp_path, **setting)

    def test_flag_value_dropped_by_argparse_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        if build_parser().parse_args(["offline", "--output-dir=--"]).output_dir == "--":
            pytest.skip("this argparse keeps a flag value of '--'")
        # older argparse drops the value and leaves an empty list
        with pytest.raises(SystemExit) as exit_:
            main(["offline", "--n-y", "6", "--output-dir=--"])
        assert exit_.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["n_y", "family"])
    def test_dropped_value_of_a_number_or_family_flag_named(self, tmp_path, monkeypatch,
                                                            capsys, name):
        monkeypatch.chdir(tmp_path)
        argv = ["offline", f"{FLAGS[name]}=--"]
        if getattr(build_parser().parse_args(argv), name) == "--":
            pytest.skip("this argparse keeps a flag value of '--'")
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"error: flag {FLAGS[name]}: " in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_empty_token_list_of_a_tuple_flag_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        if build_parser().parse_args(["offline", "--surrogates=--"]).surrogate_kinds != []:
            pytest.skip("this argparse keeps a flag value of '--'")
        # older argparse leaves an empty list, which would run no surrogate
        with pytest.raises(SystemExit) as exit_:
            main(["offline", "--surrogates=--", "--output-dir", str(out)])
        assert exit_.value.code == 2
        assert "error: flag --surrogates: " in capsys.readouterr().err
        assert not out.exists()
        # a file's empty list keeps its meaning
        path = tmp_path / "none.ini"
        path.write_text("[surrogates]\nsurrogate_kinds =\n", encoding="utf-8")
        assert load_config(path).surrogate_kinds == ()

    def test_defaults_per_family(self):
        heat = default_config("heat")
        wave = default_config("wave")
        assert heat.train_grid == (8, 8)
        assert heat.tolerance == 1e-6
        assert wave.train_grid == (50,)
        # benchmark stopping point 1e-2 expressed in the weighted norm
        assert wave.tolerance == pytest.approx(1e-2 / (1.0 / 61.0) ** 0.5, rel=1e-3)
        assert wave.kernel_beta == 1.0

    def test_partial_file_keeps_family_defaults(self, tmp_path):
        path = tmp_path / "partial.ini"
        path.write_text("[family]\nfamily = wave\n\n[test]\ntest_count = 7\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.family == "wave"
        assert cfg.test_count == 7
        assert cfg.tolerance == default_config("wave").tolerance

    @pytest.mark.parametrize("text", [
        "[test]\ntest_count = 7\n",
        "[family]\nfamily = heat\n\n[test]\ntest_count = 7\n",
    ], ids=["no-family", "family-heat"])
    def test_partial_file_takes_the_defaults_of_the_family_flag(self, tmp_path, text):
        path = tmp_path / "partial.ini"
        path.write_text(text, encoding="utf-8")
        expected = replace(default_config("wave"), test_count=7)
        assert load_config(path, family="wave") == expected
        args = build_parser().parse_args(["offline", "--config", str(path), "--family", "wave"])
        assert _resolve_config(args) == expected

    @pytest.mark.parametrize("text, message", [
        ("1", "flag --n-y: n_y >= 2 and steps_per_point >= 1 required"),
        ("1.5", "flag --n-y: cannot parse '1.5'"),
    ], ids=["invalid", "unparsable"])
    @pytest.mark.parametrize("with_file", [False, True], ids=["flags", "file-and-flags"])
    def test_bad_flag_named(self, tmp_path, capsys, text, message, with_file):
        path = tmp_path / "valid.ini"
        path.write_text("[test]\ntest_count = 7\n", encoding="utf-8")
        outdir = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_:
            main(["offline", *(["--config", str(path)] if with_file else []),
                  "--n-y", text, "--output-dir", str(outdir)])
        assert exit_.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err  # the flag, not the file
        assert not outdir.exists()

    @pytest.mark.parametrize("text", [
        "[greedy]\ntolerence = 1e-3\n",
        "[bogus]\ntolerance = 1e-3\n",
        "[test]\ntolerance = 1e-3\n",
        "[output]\ncertify = true\n",
        "[greedy]\ntrack_true_errors = false\n",
        "[test]\nworkers = 2\n",
    ])
    def test_unknown_section_or_key_rejected(self, tmp_path, text):
        path = tmp_path / "typo.ini"
        path.write_text("[family]\nfamily = heat\n\n" + text, encoding="utf-8")
        section, key = re.match(r"\[(\w+)\]\n(\w+)", text).groups()
        with pytest.raises(ValueError, match=rf"'{key}' in section \[{section}\]"):
            load_config(path)

    @pytest.mark.parametrize("text", [
        "[family]\nfamily = heat\nfamily = wave\n",
        "[family]\nfamily = heat\n\n[family]\nn_y = 6\n",
        "family = heat\n",
        None,
    ], ids=["duplicate-key", "duplicate-section", "no-section-header", "missing-file"])
    def test_malformed_or_missing_config_file_rejected_before_any_stage(self, tmp_path,
                                                                       text):
        path = tmp_path / "bad.ini"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        outdir = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_:
            main(["full-run", "--config", str(path), "--output-dir", str(outdir)])
        assert exit_.value.code == 2
        assert not outdir.exists()

    @pytest.mark.parametrize("section, key, text", [
        ("family", "n_y", "1.5"),
        ("greedy", "tolerance", "abc"),
        ("training", "train_grid", "3 x"),
    ])
    def test_unparsable_value_names_file_section_and_key(self, tmp_path, section, key, text):
        path = tmp_path / "bad_value.ini"
        path.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: key '{key}' in section [{section}]: cannot parse '{text}'")):
            load_config(path)
        outdir = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_:
            main(["full-run", "--config", str(path), "--output-dir", str(outdir)])
        assert exit_.value.code == 2
        assert not outdir.exists()

    @pytest.mark.parametrize("text, located, message", [
        ("[family]\nfamily = advection\n", "key 'family' in section [family]: ",
         "unknown family 'advection'"),
        ("[family]\nn_y = 1\n", "key 'n_y' in section [family]: ",
         "n_y >= 2 and steps_per_point >= 1 required"),
        # two values at fault on their own: the file alone is named
        ("[family]\nn_y = 1\nsteps_per_point = 0\n", "",
         "n_y >= 2 and steps_per_point >= 1 required"),
    ], ids=["family", "n_y", "two-keys"])
    def test_invalid_value_names_file_section_and_key(self, tmp_path, text, located, message):
        path = tmp_path / "bad_value.ini"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {located}{message}')}$"):
            load_config(path)
        outdir = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_:
            main(["full-run", "--config", str(path), "--output-dir", str(outdir)])
        assert exit_.value.code == 2
        assert not outdir.exists()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(family="advection").validate()


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("run")
    cfg = tiny_heat_config(outdir)
    report = run_experiment(cfg)
    return cfg, Path(outdir), report


class TestRunExperiment:
    def test_artifacts_written(self, completed_run):
        _, outdir, _ = completed_run
        for name in (
            "greedy_results.csv",
            "analysis_results_errors.csv",
            "timings.csv",
            "basis.crb",
            "training_data.bin",
            "surrogate_kernel.bin",
            "surrogate_gpr.bin",
            "surrogate_mlp.bin",
        ):
            assert (outdir / name).exists(), name

    def test_row_count_matches_test_count(self, completed_run):
        cfg, outdir, report = completed_run
        lines = (outdir / "analysis_results_errors.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + cfg.test_count
        assert report.parameters.shape == (cfg.test_count, 2)
        assert list(report.errors) == ["g-rom", *cfg.surrogate_kinds]
        assert list(report.runtimes) == ["exact", "g-rom", *cfg.surrogate_kinds]
        for name, errors in report.errors.items():
            assert errors.shape == (cfg.test_count, len(ERROR_COLUMNS))
            assert report.runtimes[name].shape == (cfg.test_count,)

    def test_reliability_on_emitted_rows(self, completed_run):
        _, _, report = completed_run
        assert report.ok()
        for errors in report.errors.values():
            assert np.all(errors[:, 0] <= errors[:, 1] * (1 + 1e-6))

    def test_error_csv_holds_the_arrays(self, completed_run):
        _, outdir, report = completed_run
        table = np.loadtxt(outdir / "analysis_results_errors.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 0], np.arange(len(report.parameters)))
        np.testing.assert_array_equal(
            table[:, 1:], np.hstack([report.parameters, *report.errors.values()]))

    def test_timings_and_summary_are_means_and_maxima_of_the_arrays(self, completed_run,
                                                                    capsys):
        _, outdir, report = completed_run
        lines = (outdir / "timings.csv").read_text().splitlines()
        timings = {name: cells for name, *cells in (line.split(",") for line in lines[1:])}
        assert list(timings) == list(report.runtimes)
        exact_t = float(np.mean(report.runtimes["exact"]))
        assert timings.pop("exact") == [repr(exact_t), ""]
        for name, (runtime, speedup) in timings.items():
            mean = float(np.mean(report.runtimes[name]))
            assert float(runtime) == pytest.approx(mean, rel=1e-12)
            assert float(speedup) == pytest.approx(exact_t / mean, rel=1e-12)
        assert _report(report) == 0
        out = capsys.readouterr().out
        assert f"exact avg runtime: {exact_t:.4f}s over {len(report.parameters)} tests" in out
        for name, errors in report.errors.items():
            adjoint, control = list(errors[:, 0]), list(errors[:, 2])
            assert (f"  {name:8s} adjoint max/avg {max(adjoint):.3e}/{np.mean(adjoint):.3e}"
                    f"  control max/avg {max(control):.3e}/{np.mean(control):.3e}") in out

    def test_rerun_reproduces_error_csv_bytes(self, completed_run, tmp_path):
        cfg, outdir, _ = completed_run
        rerun_dir = tmp_path / "rerun"
        run_experiment(replace(cfg, output_dir=str(rerun_dir)))
        first = (outdir / "analysis_results_errors.csv").read_bytes()
        second = (rerun_dir / "analysis_results_errors.csv").read_bytes()
        assert first == second
        for name in ("basis.crb", "training_data.bin", "surrogate_kernel.bin",
                     "surrogate_gpr.bin", "surrogate_mlp.bin"):
            assert (outdir / name).read_bytes() == (rerun_dir / name).read_bytes(), name

    def test_online_exact_solves_sketch_their_preconditioner(self, tmp_path, monkeypatch):
        # criterion 8 times the exact tier as the paper's matrix-free
        # baseline: each online exact solve builds its own Nystrom sketch,
        # one per test parameter, and none takes an assembled operator (the
        # greedy's snapshots sketch nothing)
        sketched, sketch = [], exact_solver.nystrom_preconditioner

        def counted_sketch(inst):
            sketched.append(inst.parameter)
            return sketch(inst)

        monkeypatch.setattr(exact_solver, "nystrom_preconditioner", counted_sketch)
        report = run_experiment(tiny_heat_config(tmp_path))
        assert len(report.parameters) == 4
        np.testing.assert_array_equal(sketched, report.parameters)

    def test_zero_test_count_gives_history_only(self, tmp_path):
        cfg = tiny_heat_config(tmp_path, test_count=0)
        report = run_experiment(cfg)
        assert report.parameters.shape == (0, 2)
        lines = (tmp_path / "analysis_results_errors.csv").read_text().strip().splitlines()
        # headers only, naming the parameter columns as a run with tests does
        assert lines == [",".join(["test_index", "mu_0", "mu_1", *(
            f"{name}_{column}" for name in ("g-rom", "kernel", "gpr", "mlp")
            for column in ("true_adjoint_error", "estimated_error", "control_error"))])]
        timings = (tmp_path / "timings.csv").read_text().splitlines()
        assert timings == ["model,avg_runtime_seconds,avg_speedup_vs_exact", "exact,nan,",
                           "g-rom,nan,nan", "kernel,nan,nan", "gpr,nan,nan", "mlp,nan,nan"]
        greedy_lines = (tmp_path / "greedy_results.csv").read_text().strip().splitlines()
        assert len(greedy_lines) == 1 + len(report.greedy_history)
        # every selection row carries the true error; the stopping row has none
        true_errors = [line.split(",")[3] for line in greedy_lines[1:]]
        assert len(true_errors) > 1
        assert all(true_errors[:-1]) and true_errors[-1] == ""

    def test_grid_too_small_for_a_surrogate_rejected_before_the_greedy(self, tmp_path):
        argv = ["full-run", "--family", "heat", "--n-y", "6", "--train-grid", "2", "2",
                "--test-count", "1", "--output-dir", str(tmp_path / "run")]
        with pytest.raises(ValueError, match="the mlp surrogate needs at least 5 training "
                                             "pairs, train_grid 2 2 has 4"):
            main(argv)
        assert not (tmp_path / "run" / "basis.crb").exists()
        assert main([*argv, "--surrogates", "kernel", "gpr"]) == 0
        assert (tmp_path / "run" / "surrogate_gpr.bin").exists()

    def test_failure_leaves_marker(self, tmp_path):
        cfg = tiny_heat_config(tmp_path, max_basis=1, tolerance=1e-14)
        with pytest.raises(GreedyBudgetError):
            run_experiment(cfg)
        marker = tmp_path / FAILURE_MARKER
        assert marker.exists()
        assert "offline-greedy" in marker.read_text()

    def test_successful_rerun_clears_stale_marker(self, tmp_path):
        cfg = tiny_heat_config(tmp_path, max_basis=1, tolerance=1e-14)
        with pytest.raises(GreedyBudgetError):
            run_experiment(cfg)
        assert (tmp_path / FAILURE_MARKER).exists()
        run_experiment(tiny_heat_config(tmp_path, test_count=2))
        assert not (tmp_path / FAILURE_MARKER).exists()


def hand_made_report(n_y, errors, runtimes):
    """A ``RunReport`` of two test parameters from hand-made arrays."""
    return RunReport(config=ExperimentConfig(n_y=n_y), greedy_history=[], basis_size=3,
                     parameters=np.array([[1.0, 0.5], [1.5, 1.0]]),
                     errors={name: np.array(e, dtype=float) for name, e in errors.items()},
                     runtimes={name: np.array(t, dtype=float) for name, t in runtimes.items()})


ERRORS = {"g-rom": [[1e-6, 2e-6, 3e-6], [1e-6 * (1 + 1e-7), 1e-6, 3e-6]],
             "kernel": [[1e-5, 2e-5, 3e-5], [3e-5, 2e-5, 1e-4]]}
ORDERED = {"exact": [1.0, 1.0], "g-rom": [0.1, 0.1], "kernel": [0.01, 0.01]}


class TestInvariants:
    def test_understated_estimate_flagged_with_row_and_model(self):
        # g-rom's second row sits inside the relative slack of 1e-6
        report = hand_made_report(8, ERRORS, ORDERED)
        experiment._check_invariants(report)
        assert report.invariant_violations == [
            "row 1 model kernel: true error 3.000e-05 exceeds estimate 2.000e-05"]
        assert not report.ok()

    @pytest.mark.parametrize("n_y, flagged", [(49, False), (50, True), (100, True)])
    def test_runtime_ordering_applies_at_benchmark_scale(self, n_y, flagged):
        errors = {name: [[1e-6, 2e-6, 3e-6]] * 2 for name in ("g-rom", "kernel")}
        report = hand_made_report(n_y, errors,
                                  {"exact": [1.0, 1.0], "g-rom": [1.0, 3.0], "kernel": [3.0, 2.0]})
        experiment._check_invariants(report)
        assert report.invariant_violations == ([
            "reduced model (2.0000s) not faster than exact (1.0000s)",
            "surrogate kernel (2.5000s) not faster than the reduced model (2.0000s)",
        ] if flagged else [])
        ordered = hand_made_report(n_y, errors, ORDERED)
        experiment._check_invariants(ordered)
        assert ordered.ok()

    def test_report_exits_1_on_a_violation(self, capsys):
        report = hand_made_report(8, ERRORS, ORDERED)
        experiment._check_invariants(report)
        assert _report(report) == 1
        err = capsys.readouterr().err
        assert "INVARIANT VIOLATION: row 1 model kernel: true error 3.000e-05" in err


class TestSvdDiagnostic:
    def test_heat_spectrum(self, tmp_path):
        cfg = tiny_heat_config(tmp_path, train_grid=(3, 3))
        spectra = run_svd_diagnostic(cfg)
        sigma = spectra[None]
        assert len(sigma) == min(9, cfg.n_y)  # min(snapshots, state dimension)
        assert np.all(np.diff(sigma) <= 1e-12)  # descending
        assert (tmp_path / "singular_values.csv").exists()

    def test_wave_damping_sweep(self, tmp_path):
        cfg = ExperimentConfig(
            family="wave", n_y=6, T=0.5, steps_per_point=4, train_grid=(4,),
            tolerance=1e-2, cg_tol=1e-10, test_count=0, output_dir=str(tmp_path),
        ).validate()
        spectra = run_svd_diagnostic(cfg, damping_list=[0.0, 20.0])
        assert set(spectra) == {0.0, 20.0}
        header = (tmp_path / "singular_values.csv").read_text().splitlines()[0]
        assert "nu=0" in header and "nu=20" in header

    def test_bad_damping_rejected_before_any_solve(self, tmp_path, monkeypatch):
        solves = []
        monkeypatch.setattr(experiment, "solve_exact", lambda *a, **k: solves.append(a))
        cfg = ExperimentConfig(family="wave", n_y=6, T=0.5, steps_per_point=4,
                               train_grid=(4,), output_dir=str(tmp_path / "svd")).validate()
        with pytest.raises(ValueError, match="damping constant must be non-negative, got -1"):
            run_svd_diagnostic(cfg, damping_list=[0.0, 10.0, -1.0])
        with pytest.raises(ValueError, match=r"names a value twice: \[5\.0, 0\.0, 5\.0\]"):
            run_svd_diagnostic(cfg, damping_list=[5, 0.0, 5.0])
        # two values that the CSV header would both name sigma[nu=10]
        with pytest.raises(ValueError, match=r"share a label: \[10\.0, 10\.0000001\] read "
                                             r"\['nu=10', 'nu=10'\]"):
            run_svd_diagnostic(cfg, damping_list=[10, 10.0000001])
        heat = tiny_heat_config(tmp_path / "svd")
        with pytest.raises(ValueError, match="family heat has none"):
            run_svd_diagnostic(heat, damping_list=[0.0, 10.0])
        assert solves == []
        assert not (tmp_path / "svd").exists()


class TestCli:
    def test_full_run_exit_code_and_files(self, tmp_path):
        cfg = tiny_heat_config(tmp_path / "out")
        cfg_path = tmp_path / "cfg.ini"
        save_config(cfg, cfg_path)
        assert main(["full-run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "analysis_results_errors.csv").exists()

    def test_staged_pipeline(self, tmp_path):
        outdir = tmp_path / "staged"
        cfg = tiny_heat_config(outdir, test_count=3)
        cfg_path = tmp_path / "cfg.ini"
        save_config(cfg, cfg_path)
        assert main(["offline", "--config", str(cfg_path)]) == 0
        assert (outdir / "basis.crb").exists()
        history = (outdir / "greedy_results.csv").read_bytes()
        assert main(["train-surrogates", "--config", str(cfg_path)]) == 0
        assert (outdir / "surrogate_gpr.bin").exists()
        assert main(["online", "--config", str(cfg_path)]) == 0
        assert (outdir / "timings.csv").exists()
        # the online stage has no greedy history to write and keeps the
        # offline stage's file
        assert (outdir / "greedy_results.csv").read_bytes() == history

    def test_train_surrogates_rejects_too_few_pairs_before_any_fit(self, tmp_path):
        flags = ["--family", "heat", "--n-y", "6", "--train-grid", "2", "2",
                 "--output-dir", str(tmp_path)]
        assert main(["offline", *flags]) == 0
        with pytest.raises(ValueError, match="^the mlp surrogate needs at least 5 training "
                                             "pairs, training_data.bin holds 4$"):
            main(["train-surrogates", *flags])
        assert not list(tmp_path.glob("surrogate_*.bin"))
        assert main(["train-surrogates", *flags, "--surrogates", "kernel", "gpr"]) == 0
        assert (tmp_path / "surrogate_gpr.bin").exists()

    def test_online_rejects_missing_surrogate_file(self, tmp_path):
        outdir = tmp_path / "staged"
        cfg_path = tmp_path / "cfg.ini"
        save_config(tiny_heat_config(outdir, test_count=1), cfg_path)
        assert main(["offline", "--config", str(cfg_path)]) == 0
        assert main(["train-surrogates", "--config", str(cfg_path)]) == 0
        (outdir / "surrogate_gpr.bin").unlink()
        with pytest.raises(FileNotFoundError, match="surrogate_gpr.bin"):
            main(["online", "--config", str(cfg_path)])

    def test_online_rejects_model_of_another_basis_size_before_any_solve(self, tmp_path,
                                                                          monkeypatch):
        outdir = tmp_path / "staged"
        cfg_path = tmp_path / "cfg.ini"
        save_config(tiny_heat_config(outdir, test_count=2), cfg_path)
        assert main(["full-run", "--config", str(cfg_path)]) == 0
        reports = {name: (outdir / name).read_bytes()
                   for name in ("analysis_results_errors.csv", "timings.csv")}
        # a looser tolerance leaves a smaller basis than the surrogates were fitted to
        assert main(["offline", "--config", str(cfg_path), "--tolerance", "1e-2"]) == 0
        solves = []
        monkeypatch.setattr(experiment, "solve_exact", lambda *a, **k: solves.append(a))
        with pytest.raises(ValueError, match=r"kernel model predicts \d+ coefficients but "
                                             r"basis has size \d+"):
            main(["online", "--config", str(cfg_path)])
        assert solves == []
        for name, content in reports.items():
            assert (outdir / name).read_bytes() == content, name

    def test_online_rejects_model_of_another_parameter_length_before_any_solve(self, tmp_path,
                                                                                monkeypatch):
        outdir = tmp_path / "staged"
        cfg_path = tmp_path / "cfg.ini"
        save_config(tiny_heat_config(outdir, surrogate_kinds=("kernel",)), cfg_path)
        assert main(["offline", "--config", str(cfg_path)]) == 0
        # a wave model fitted to as many coefficients as the heat basis has
        size = load_basis(outdir / "basis.crb").size
        rng = np.random.default_rng(0)
        wave_pairs = TrainingData(rng.uniform(3.0, 10.0, (9, 1)), rng.standard_normal((9, size)))
        KernelRegressor().fit(wave_pairs).save(experiment.surrogate_path(outdir, "kernel"))
        solves = []
        monkeypatch.setattr(experiment, "solve_exact", lambda *a, **k: solves.append(a))
        with pytest.raises(ValueError, match="^kernel model takes a parameter of length 1 but "
                                             "heat has parameters of length 2$"):
            main(["online", "--config", str(cfg_path)])
        assert solves == []

    # wave at n_y=6 shares the state dimension 12 of the heat basis
    @pytest.mark.parametrize("flags, message", [
        (["--family", "wave", "--n-y", "6", "--train-grid", "4"], "config is wave"),
        (["--n-y", "10"], "config is heat with weight 0.0909"),
    ])
    def test_online_rejects_basis_of_another_family_or_resolution(self, tmp_path, flags,
                                                                   message):
        outdir = tmp_path / "staged"
        cfg_path = tmp_path / "cfg.ini"
        save_config(tiny_heat_config(outdir, n_y=12, surrogate_kinds=("kernel",)), cfg_path)
        assert main(["offline", "--config", str(cfg_path)]) == 0
        assert main(["train-surrogates", "--config", str(cfg_path)]) == 0
        with pytest.raises(ValueError, match=f"basis built for heat with .*, {message}"):
            main(["online", "--config", str(cfg_path), "--test-count", "2", *flags])
        assert not (outdir / "analysis_results_errors.csv").exists()

    @pytest.mark.parametrize("tolerance", [1e-4, 1e3])  # 1e3: empty basis
    def test_staged_commands_write_what_full_run_writes(self, tmp_path, tolerance):
        files = {}
        for name, commands in (("staged", ("offline", "train-surrogates", "online")),
                               ("full", ("full-run",))):
            cfg_path = tmp_path / f"{name}.ini"
            save_config(tiny_heat_config(tmp_path / name, test_count=2), cfg_path)
            for command in commands:
                assert main([command, "--config", str(cfg_path),
                             "--tolerance", str(tolerance)]) == 0
            files[name] = sorted(p.name for p in (tmp_path / name).iterdir())
        assert files["staged"] == files["full"]
        assert ("surrogate_mlp.bin" in files["full"]) == (tolerance < 1)
        for name in set(files["full"]) - {"config.ini", "timings.csv"}:
            assert (tmp_path / "staged" / name).read_bytes() == \
                (tmp_path / "full" / name).read_bytes(), name

    def test_staged_online_prints_the_greedy_history_full_run_prints(self, tmp_path, capsys):
        printed = {}
        for name, commands in (("staged", ("offline", "train-surrogates", "online")),
                               ("full", ("full-run",))):
            cfg_path = tmp_path / f"{name}.ini"
            save_config(tiny_heat_config(tmp_path / name, test_count=1), cfg_path)
            capsys.readouterr()
            for command in commands:
                assert main([command, "--config", str(cfg_path)]) == 0
            printed[name] = [line for line in capsys.readouterr().out.splitlines()
                             if "greedy size" in line]
        assert len(printed["full"]) > 1
        assert printed["staged"] == printed["full"]

    def test_online_runs_on_a_basis_file_without_history(self, tmp_path, capsys):
        # the basis layout written before the greedy history joined the file
        outdir = tmp_path / "staged"
        cfg_path = tmp_path / "cfg.ini"
        save_config(tiny_heat_config(outdir, test_count=2), cfg_path)
        assert main(["offline", "--config", str(cfg_path)]) == 0
        assert main(["train-surrogates", "--config", str(cfg_path)]) == 0
        path = outdir / "basis.crb"
        _, meta, arrays = persist.read(path, "basis")
        persist.write(path, "basis", meta, {name: arrays[name]
                                            for name in ("vectors", "selected_params")})
        capsys.readouterr()
        assert main(["online", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "greedy size" not in out
        assert f"reduced basis size: {len(arrays['vectors'])}" in out
        lines = (outdir / "analysis_results_errors.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2

    def test_flag_overrides(self, tmp_path):
        outdir = tmp_path / "flags"
        assert main([
            "offline", "--family", "heat", "--n-y", "6", "--final-time", "0.1",
            "--steps-per-point", "8", "--train-grid", "2", "2",
            "--tolerance", "1e-3", "--output-dir", str(outdir),
        ]) == 0
        assert (outdir / "basis.crb").exists()

    def test_offline_honours_cg_max_iter(self, tmp_path):
        # as full-run does, the offline stage stops at the CG iteration cap;
        # the greedy's snapshots take one step preconditioned by the
        # assembled operator, which leaves a residual near 1e-12 on wave
        # n_y=8, so a cg_tol of 1e-14 needs more than the 1 step the cap allows
        with pytest.raises(ConvergenceError) as err:
            main(["offline", "--family", "wave", "--n-y", "8", "--train-grid", "4",
                  "--cg-tol", "1e-14", "--cg-max-iter", "1", "--output-dir", str(tmp_path)])
        assert err.value.iterations == 1

    def test_svd_diag_command(self, tmp_path):
        outdir = tmp_path / "svd"
        assert main([
            "svd-diag", "--family", "heat", "--n-y", "6", "--final-time", "0.1",
            "--steps-per-point", "8", "--train-grid", "3", "3",
            "--output-dir", str(outdir),
        ]) == 0
        assert (outdir / "singular_values.csv").exists()

    def test_svd_diag_labels_decay_by_the_index_it_uses(self, tmp_path, capsys):
        assert main(["svd-diag", "--family", "heat", "--n-y", "6", "--train-grid", "2", "2",
                     "--output-dir", str(tmp_path / "svd")]) == 0
        out = capsys.readouterr().out
        assert "heat: 4 singular values" in out  # 2 x 2 snapshots
        assert "sigma_4/sigma_1=" in out and "sigma_8" not in out

    def test_svd_diag_rejects_damping_for_heat(self, tmp_path, monkeypatch):
        solves = []
        monkeypatch.setattr(experiment, "solve_exact", lambda *a, **k: solves.append(a))
        outdir = tmp_path / "svd"
        with pytest.raises(SystemExit) as exit_:
            main(["svd-diag", "--family", "heat", "--n-y", "6", "--train-grid", "2", "2",
                  "--damping", "-1", "--output-dir", str(outdir)])
        assert exit_.value.code == 2
        assert solves == []
        assert not outdir.exists()

    def test_svd_diag_rejects_bad_damping_before_any_solve(self, tmp_path, monkeypatch):
        solves = []
        monkeypatch.setattr(experiment, "solve_exact", lambda *a, **k: solves.append(a))
        outdir = tmp_path / "svd"
        with pytest.raises(SystemExit) as exit_:
            main(["svd-diag", "--family", "wave", "--n-y", "6", "--train-grid", "4",
                  "--damping", "0", "10", "-1", "--output-dir", str(outdir)])
        assert exit_.value.code == 2
        assert solves == []
        assert not outdir.exists()

    def test_svd_diag_rejects_damping_named_twice_before_any_solve(self, tmp_path,
                                                                    monkeypatch, capsys):
        # one solve would otherwise write a single sigma[nu=5] column
        solves = []
        monkeypatch.setattr(experiment, "solve_exact", lambda *a, **k: solves.append(a))
        outdir = tmp_path / "svd"
        with pytest.raises(SystemExit) as exit_:
            main(["svd-diag", "--family", "wave", "--n-y", "6", "--train-grid", "4",
                  "--damping", "5", "5", "--output-dir", str(outdir)])
        assert exit_.value.code == 2
        assert "names a value twice" in capsys.readouterr().err
        assert solves == []
        assert not outdir.exists()


def test_readme_library_sketch_runs_as_documented(monkeypatch):
    # the README's sketch on a small heat family, checked against the claims
    # the README makes next to it
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", README, re.S).group(1)
    monkeypatch.setattr(ctrlrom, "build_heat_family", lambda: build_heat_family(n_y=12))
    scope = {}
    exec(sketch, scope)
    inst, basis, fast, rom, exact = (scope[name]
                                     for name in ("inst", "basis", "fast", "rom", "exact"))
    nodes = inst.grid.nodes()
    assert len(nodes) == inst.grid.n_t + 1 and nodes[0] == 0.0 and nodes[-1] == inst.grid.T
    for sol in (fast, rom, exact):
        assert sol.control.shape == (len(nodes), inst.m)
    assert basis.size >= 2 and basis.vectors.shape == (basis.size, inst.n)
    assert (basis.matrix() @ rom.coeffs).tobytes() == rom.phiT_approx.tobytes()
    # the reference is itself a CG answer, at most its verified residual
    # from the optimum
    for sol in (fast, rom):
        true_err = inst.ip.norm(exact.phiT - sol.phiT_approx)
        assert true_err <= sol.estimated_error + exact.residual_norm
