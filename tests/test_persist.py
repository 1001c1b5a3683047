import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlrom import persist
from ctrlrom.experiment import surrogate_path
from ctrlrom.greedy_rom import (
    greedy_offline,
    load_basis,
    load_training_data,
    save_basis,
    save_training_data,
)
from ctrlrom.surrogates import GPRegressor, KernelRegressor, MLPRegressor, load_model
from ctrlrom.system import build_heat_family, sample_grid

from conftest import corrupted_copy

LOADERS = {
    "basis": load_basis,
    "training_data": lambda path: load_training_data(path, n_params=2),
    "kernel": load_model,
    "gpr": load_model,
    "mlp": load_model,
}


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """One file of each of the five kinds the pipeline reads back."""
    outdir = tmp_path_factory.mktemp("persisted")
    fam = build_heat_family(n_y=6, T=0.1, steps_per_point=8)
    basis, data = greedy_offline(fam, sample_grid(fam.domain, [3, 2]), tol=1e-4, cg_tol=1e-13)
    paths = {"basis": outdir / "basis.crb", "training_data": outdir / "training_data.bin"}
    save_basis(basis, paths["basis"])
    save_training_data(data, paths["training_data"])
    for model in (KernelRegressor(beta=0.5), GPRegressor(restarts=1),
                  MLPRegressor(restarts=1, max_steps=50)):
        paths[model.kind] = surrogate_path(outdir, model.kind)
        model.fit(data).save(paths[model.kind])
    return paths


class TestCorruptFiles:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(LOADERS)), data=st.data())
    def test_any_cut_or_extension_rejected(self, saved_files, kind, data):
        path = saved_files[kind]
        size = path.stat().st_size
        change = data.draw(st.one_of(
            st.integers(0, size - 1).map(lambda cut: cut - size),
            st.binary(min_size=1, max_size=16),
        ))
        bad = corrupted_copy(path, change)
        with pytest.raises(ValueError, match=re.escape(bad.name)):
            LOADERS[kind](bad)

    def test_intact_files_load(self, saved_files):
        # the property above is vacuous unless the uncorrupted files load
        for kind, path in saved_files.items():
            LOADERS[kind](path)


class TestHeaderTypes:
    @pytest.mark.parametrize("kind, change", [
        ("basis", {"family": 3}),
        ("basis", {"ip_weight": "0.1"}),
        ("basis", {"ip_weight": float("nan")}),
        ("basis", {"ip_weight": float("inf")}),
        ("basis", {"tolerance": "x"}),
        ("basis", {"tolerance": float("inf")}),
        ("basis", {"tolerance": -1.0}),  # the greedy requires a positive tolerance
        ("kernel", {"n_outputs": "6"}),
        ("kernel", {"n_outputs": True}),
        ("kernel", {"beta": "0.5"}),
        ("kernel", {"beta": float("inf")}),
        ("kernel", {"beta": -1.0}),  # no fit or constructor gives a hyper-parameter <= 0
        ("kernel", {"beta": 0}),
        ("gpr", {"length": None}),
        ("gpr", {"c": float("nan")}),
        ("gpr", {"c": -2.0}),
        ("gpr", {"length": 0.0}),
        ("mlp", {"n_outputs": 6.0}),
    ], ids=["family-int", "ip_weight-str", "ip_weight-nan", "ip_weight-inf", "tolerance-str",
            "tolerance-inf", "tolerance-negative", "n_outputs-str", "n_outputs-bool", "beta-str",
            "beta-inf", "beta-negative", "beta-zero", "length-null", "c-nan", "c-negative",
            "length-zero", "n_outputs-float"])
    def test_wrong_type_rejected(self, saved_files, tmp_path, kind, change):
        _, meta, arrays = persist.read(saved_files[kind], kind)
        bad = tmp_path / f"bad_{kind}.bin"
        persist.write(bad, kind, {**meta, **change}, arrays)
        with pytest.raises(ValueError, match=re.escape(bad.name)):
            LOADERS[kind](bad)


class TestReadOnce:
    @pytest.mark.parametrize("kind", ["kernel", "gpr", "mlp"])
    def test_load_model_reads_the_file_once(self, saved_files, monkeypatch, kind):
        reads, read = [], persist.read

        def counting_read(path, *kinds):
            reads.append(path)
            return read(path, *kinds)

        monkeypatch.setattr(persist, "read", counting_read)
        load_model(saved_files[kind])
        assert reads == [saved_files[kind]]


class TestContainer:
    def test_round_trip_keeps_order_shapes_and_bits(self, tmp_path, rng):
        arrays = {"b": rng.standard_normal((3, 2)), "a": np.zeros((0, 4)), "c": np.array(1.5)}
        path = tmp_path / "x.bin"
        persist.write(path, "thing", {"n": 3, "w": 0.1}, arrays)
        kind, meta, loaded = persist.read(path, "thing")
        assert kind == "thing" and meta == {"n": 3, "w": 0.1}
        assert list(loaded) == ["b", "a", "c"]
        for name, a in arrays.items():
            assert loaded[name].shape == a.shape
            np.testing.assert_array_equal(loaded[name], a)

    def test_other_kind_rejected(self, saved_files):
        with pytest.raises(ValueError, match="'training_data' record, expected basis"):
            load_basis(saved_files["training_data"])
        with pytest.raises(ValueError, match="'basis' record"):
            load_model(saved_files["basis"])
        with pytest.raises(ValueError, match="'gpr' record, expected kernel"):
            persist.read(saved_files["gpr"], "kernel")

    @pytest.mark.parametrize("shape", [["2", 3], "23", [2.0, 3], [True, 3]],
                             ids=["str-entry", "str", "float-entry", "bool-entry"])
    def test_shape_must_be_a_list_of_integers(self, tmp_path, shape):
        # a payload of 6 numbers, as a (2, 3) array would have it
        path = tmp_path / "x.bin"
        persist.write(path, "thing", {}, {"a": np.ones((2, 3))})
        data, start = path.read_bytes(), len(persist.MAGIC) + persist._LENGTH.size
        (size,) = persist._LENGTH.unpack_from(data, len(persist.MAGIC))
        header = json.loads(data[start:start + size])
        header["arrays"] = [["a", shape]]
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(persist.MAGIC + persist._LENGTH.pack(len(blob)) + blob
                         + data[start + size:])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed header"):
            persist.read(path, "thing")

    def test_rows_must_pair_up(self, tmp_path):
        basis_meta = {"family": "heat", "tolerance": 1e-4, "ip_weight": 0.1}
        records = [
            ("training_data", {}, {"parameters": np.zeros((4, 2)),
                                   "coefficients": np.zeros((3, 5))}),
            ("basis", basis_meta, {"vectors": np.zeros(5), "selected_params": np.zeros((5, 2))}),
            ("basis", basis_meta, {"vectors": np.zeros((5, 6)), "selected_params": np.zeros(5)}),
            ("basis", basis_meta, {"vectors": np.zeros((4, 6)),
                                   "selected_params": np.zeros((3, 2))}),
        ]
        # a greedy history of one selection has 2 estimates and 1 true error
        selection = {"vectors": np.eye(1, 6), "selected_params": np.zeros((1, 2))}
        for estimates, true_errors in (((3,), (1,)), ((1,), (1,)), ((2,), (2,)),
                                       ((2, 1), (1,)), ((2,), (1, 1))):
            records.append(("basis", basis_meta, {**selection, "estimates": np.ones(estimates),
                                                  "true_errors": np.ones(true_errors)}))
        for i, (kind, meta, arrays) in enumerate(records):
            path = tmp_path / f"{kind}_{i}.bin"
            persist.write(path, kind, meta, arrays)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*do not pair up"):
                LOADERS[kind](path)


class TestArrayShapes:
    @pytest.mark.parametrize("kind, name", [
        ("kernel", "coefficients"),
        ("gpr", "alpha"),
        ("mlp", "param_7"),  # the output layer's bias
    ])
    def test_extra_output_column_rejected(self, saved_files, tmp_path, kind, name):
        # one more coefficient column than the record's n_outputs
        _, meta, arrays = persist.read(saved_files[kind], kind)
        widened = np.concatenate([arrays[name], arrays[name][..., :1]], axis=-1)
        bad = tmp_path / f"bad_{kind}.bin"
        persist.write(bad, kind, meta, {**arrays, name: widened})
        with pytest.raises(ValueError, match=re.escape(bad.name)):
            LOADERS[kind](bad)


class TestNonFiniteArrays:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_every_array_checked_and_file_named(self, saved_files, tmp_path, kind, bad):
        # one entry of one array spoiled at a time; the file stays well formed
        _, meta, arrays = persist.read(saved_files[kind], kind)
        for name, array in arrays.items():
            spoiled = array.copy()
            spoiled.flat[-1] = bad
            path = tmp_path / f"{kind}_{name}.bin"
            persist.write(path, kind, meta, {**arrays, name: spoiled})
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{name} holds a NaN "
                                                 f"or an infinity"):
                LOADERS[kind](path)


class TestBasisHistory:
    def test_file_without_history_loads_with_empty_history(self, saved_files, tmp_path):
        # the layout written before the history joined the file
        _, meta, arrays = persist.read(saved_files["basis"], "basis")
        path = tmp_path / "basis.crb"
        persist.write(path, "basis", meta, {name: arrays[name]
                                            for name in ("vectors", "selected_params")})
        loaded = load_basis(path)
        assert loaded.history == []
        np.testing.assert_array_equal(loaded.vectors, arrays["vectors"])

    @pytest.mark.parametrize("present", ["estimates", "true_errors"])
    def test_history_needs_both_arrays(self, tmp_path, present):
        path = tmp_path / "basis.crb"
        persist.write(path, "basis", {"family": "heat", "tolerance": 1e-4, "ip_weight": 0.1}, {
            "vectors": np.eye(1, 6), "selected_params": np.ones((1, 2)), present: np.ones(1)})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: basis record lacks"):
            load_basis(path)


README = Path(__file__).parents[1] / "README.md"


def test_readme_persistence_table_lists_every_array(saved_files):
    """Each array a saved file's header names appears in its kind's row of
    the README's persistence table; the mlp's ``param_<i>`` is the row's
    ``param_0``, ``param_1``, ..."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[1].startswith("`"):
            rows[cells[1].strip("`")] = cells[3]
    assert set(rows) == set(saved_files)
    for kind, path in saved_files.items():
        _, _, arrays = persist.read(path, kind)
        for name in arrays:
            listed = "`param_0`, `param_1`" if re.fullmatch(r"param_\d+", name) else f"`{name}`"
            assert listed in rows[kind], (kind, name)
