import gc
import logging
import re
import weakref
from dataclasses import fields

import numpy as np
import pytest

from ctrlrom import dynamics, exact_solver, greedy_rom, numerics
from ctrlrom.dynamics import apply_system_operator, operator_key, rhs_vector
from ctrlrom.errors import GramMatrixError, GreedyBudgetError
from ctrlrom.exact_solver import error_estimator, solve_exact
from ctrlrom.greedy_rom import (
    ReducedBasis,
    TrainingData,
    _project,
    greedy_offline,
    load_basis,
    load_training_data,
    project_coefficients,
    rom_online,
    save_basis,
    save_training_data,
)
from ctrlrom.numerics import InnerProduct, gram_schmidt_extend
from ctrlrom.system import (
    ParameterDomain,
    ProblemFamily,
    ProblemInstance,
    build_heat_family,
    build_wave_family,
    sample_grid,
)

from conftest import CORRUPTIONS, corrupted_copy, make_instance


def small_heat_family():
    return build_heat_family(n_y=8, T=0.1, steps_per_point=10)


def small_train_set(counts=(4, 4)):
    fam = small_heat_family()
    return fam, sample_grid(fam.domain, list(counts))


def images(inst, basis):
    """Perturbed states (I + M Gramian) phi_i as the columns of an array."""
    return np.column_stack([apply_system_operator(inst, phi) for phi in basis.vectors])


def initial_state_family():
    """Heat family on a 12-point grid with one system operator (conductivity
    1.5) whose initial state scales with mu_1 and target slope is mu_2."""
    heat = build_heat_family(n_y=12)

    def builder(mu):
        base = heat.builder(np.array([1.5, mu[1]]))
        return ProblemInstance(A=base.A, B=base.B, x0=mu[0] * base.x0, xT=base.xT, M=base.M,
                               R=base.R, ip=base.ip, grid=base.grid)

    return ProblemFamily(name="initial-state", domain=heat.domain, builder=builder)


def calls_outside_exact_solves(monkeypatch, name, counted=lambda *args, **kwargs: True):
    """Patch ``dynamics.<name>`` to record the parameter of every call that
    ``counted`` accepts, except those made inside the greedy's exact solves."""
    calls, solving = [], []
    fn, solve = getattr(dynamics, name), greedy_rom.solve_exact

    def recorded(inst, *args, **kwargs):
        if not solving and counted(*args, **kwargs):
            calls.append(inst.parameter)
        return fn(inst, *args, **kwargs)

    def recorded_solve(*args, **kwargs):
        solving.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(dynamics, name, recorded)
    monkeypatch.setattr(greedy_rom, "solve_exact", recorded_solve)
    return calls


def constant_family():
    """Family whose builder ignores the parameter entirely."""
    fam = small_heat_family()
    fixed = [1.5, 1.0]

    def builder(mu):
        return fam.builder(np.asarray(fixed))

    return ProblemFamily(name="constant", domain=fam.domain, builder=builder)


class TestProjectCoefficients:
    def test_snapshot_reproduction(self):
        fam = small_heat_family()
        inst = fam.build([1.5, 0.75])
        sol = solve_exact(inst, cg_tol=1e-13)
        vec = gram_schmidt_extend([], sol.phiT, inst.ip)
        basis = ReducedBasis(vectors=vec[None, :], selected_params=np.array([[1.5, 0.75]]),
                             ip=inst.ip, tolerance_used=0.0)
        coeffs, eta = project_coefficients(inst, basis)
        assert eta <= 1e-8
        assert inst.ip.norm(basis.matrix() @ coeffs - sol.phiT) <= 1e-8

    def test_identity_operator_reduces_to_orthogonal_expansion(self, rng):
        # M = 0 turns the system operator into the identity, so the
        # perturbed states equal the basis vectors, the Gram matrix is the
        # identity and each coefficient is a plain inner product
        inst = make_instance(-np.eye(6), np.ones((6, 1)), np.zeros(6), np.zeros(6),
                             np.zeros((6, 6)), [[1.0]], n_t=16)
        vectors = []
        for _ in range(3):
            vectors.append(gram_schmidt_extend(vectors, rng.standard_normal(6), inst.ip))
        basis = ReducedBasis(vectors=np.array(vectors), selected_params=np.zeros((3, 1)),
                             ip=inst.ip, tolerance_used=0.0)
        target = rng.standard_normal(6)
        coeffs, _ = _project(images(inst, basis), target, inst.ip)
        np.testing.assert_allclose(images(inst, basis), basis.matrix(), atol=1e-12)
        for i, phi in enumerate(vectors):
            assert coeffs[i] == pytest.approx(inst.ip.dot(phi, target), abs=1e-12)

    def test_matches_least_squares_oracle(self):
        # oracle: QR-based least squares on the sqrt(weight)-scaled columns
        fam, train = small_train_set((3, 3))
        basis, _ = greedy_offline(fam, train, tol=1e-4, cg_tol=1e-13)
        inst = fam.build([1.45, 0.85])
        coeffs, _ = project_coefficients(inst, basis)
        states, rhs = images(inst, basis), rhs_vector(inst)
        scale = np.sqrt(inst.ip.weight)
        expected, *_ = np.linalg.lstsq(scale * states, scale * rhs, rcond=None)
        assert np.max(np.abs(coeffs - expected)) <= 1e-9

    def test_residual_orthogonal_to_states(self):
        fam, train = small_train_set((3, 3))
        basis, _ = greedy_offline(fam, train, tol=1e-5, cg_tol=1e-13)
        inst = fam.build([1.31, 1.07])
        coeffs, eta = project_coefficients(inst, basis)
        states = images(inst, basis)
        residual = rhs_vector(inst) - states @ coeffs
        assert eta == pytest.approx(inst.ip.norm(residual), rel=1e-12)
        for i in range(states.shape[1]):
            bound = 1e-8 * inst.ip.norm(residual) * inst.ip.norm(states[:, i])
            assert abs(inst.ip.dot(residual, states[:, i])) <= max(bound, 1e-12)

    def test_empty_basis_rejected(self):
        fam = small_heat_family()
        basis = ReducedBasis(vectors=np.zeros((0, 8)), selected_params=np.zeros((0, 2)),
                             ip=InnerProduct(1.0), tolerance_used=0.0)
        for evaluate in (project_coefficients, rom_online):
            with pytest.raises(ValueError, match="empty"):
                evaluate(fam.build([1.0, 1.0]), basis)

    def test_equal_images_take_the_jittered_factorization(self, monkeypatch, rng):
        # two equal columns of ones: the Gram matrix [[4, 4], [4, 4]] has an
        # exactly zero Cholesky pivot, so only the jittered matrix factors
        factored, cho_factor = [], greedy_rom.cho_factor

        def counted(a, *args, **kwargs):
            factored.append(a)
            return cho_factor(a, *args, **kwargs)

        monkeypatch.setattr(greedy_rom, "cho_factor", counted)
        ip = InnerProduct(1.0)
        images, rhs = np.ones((4, 2)), rng.standard_normal(4)
        coeffs, residual = _project(images, rhs, ip)
        assert len(factored) == 2
        assert residual == ip.norm(rhs - images @ coeffs)
        assert residual == pytest.approx(np.linalg.norm(rhs - rhs.mean()), rel=1e-12)

    def test_zero_images_raise_gram_matrix_error(self):
        with pytest.raises(GramMatrixError, match="singular at basis size 2") as err:
            _project(np.zeros((4, 2)), np.ones(4), InnerProduct(1.0))
        assert err.value.basis_size == 2


class TestGreedyOffline:
    def test_constant_family_terminates_with_one_vector(self):
        fam = constant_family()
        train = sample_grid(fam.domain, [3, 3])
        basis, data = greedy_offline(fam, train, tol=1e-8, cg_tol=1e-13)
        assert basis.size == 1
        assert len(data.parameters) == 9
        assert data.coefficients.shape[1] == 1

    def test_estimator_drops_below_tolerance(self):
        fam, train = small_train_set()
        tol = 1e-5
        basis, _ = greedy_offline(fam, train, tol=tol, cg_tol=1e-13)
        assert basis.history[-1].estimated_max_error <= tol
        assert basis.size >= 2

    def test_selected_parameter_estimator_vanishes(self):
        # after a snapshot joins the basis, its own estimator collapses
        fam, train = small_train_set()
        basis, _ = greedy_offline(fam, train, tol=1e-5, cg_tol=1e-13)
        for mu in basis.selected_params:
            sol = rom_online(fam.build(mu), basis, certify=True)
            assert sol.estimated_error <= 1e-8

    def test_array_training_set_equals_list_bitwise(self):
        # the grid as a (P, p) array, and the training data's own parameters
        fam, train = small_train_set((3, 3))
        basis, data = greedy_offline(fam, train, tol=1e-5, cg_tol=1e-13)
        assert basis.size >= 2
        for array in (np.array(train), data.parameters):
            basis_a, data_a = greedy_offline(fam, array, tol=1e-5, cg_tol=1e-13)
            for got, expected in ((basis_a.vectors, basis.vectors),
                                  (basis_a.selected_params, basis.selected_params),
                                  (data_a.parameters, data.parameters),
                                  (data_a.coefficients, data.coefficients)):
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            assert basis_a.history == basis.history

    def test_determinism(self):
        fam, train = small_train_set()
        basis_a, data_a = greedy_offline(fam, train, tol=1e-5, cg_tol=1e-13)
        basis_b, data_b = greedy_offline(fam, train, tol=1e-5, cg_tol=1e-13)
        np.testing.assert_array_equal(basis_a.selected_params, basis_b.selected_params)
        np.testing.assert_array_equal(data_a.coefficients, data_b.coefficients)

    def test_history_monotone_enough(self):
        fam, train = small_train_set()
        basis, _ = greedy_offline(fam, train, tol=1e-6, cg_tol=1e-13)
        estimates = [s.estimated_max_error for s in basis.history]
        assert estimates[-1] <= estimates[0]
        assert len(basis.history) == basis.size + 1

    def test_max_basis_error_carries_partial_state(self):
        fam, train = small_train_set()
        with pytest.raises(GreedyBudgetError) as err:
            greedy_offline(fam, train, tol=1e-14, max_basis=2, cg_tol=1e-13)
        assert err.value.basis.size == 2
        assert err.value.training_data.coefficients.shape[1] == 2

    def test_true_error_tracking(self):
        fam, train = small_train_set((3, 3))
        basis, _ = greedy_offline(fam, train, tol=1e-4, cg_tol=1e-13)
        tracked = [s.true_error_at_selected for s in basis.history[:-1]]
        assert all(t is not None for t in tracked)
        # estimator reliability: estimated max dominates the true error there
        for step in basis.history[:-1]:
            assert step.true_error_at_selected <= step.estimated_max_error * (1 + 1e-6)

    @pytest.mark.parametrize("family, counts, tol, cg_tol", [
        (small_heat_family(), [4, 4], 1e-5, 1e-13),
        (build_wave_family(n_y=8), [9], 3e-2, 1e-9),
    ], ids=["heat", "wave"])
    def test_cached_estimate_equals_full_residual(self, family, counts, tol, cg_tol):
        # the greedy stops on its cached projection residual; the full
        # residual of each training parameter's expansion must read the same
        # maximum.  Both configs stop well above the rounding floor, where
        # the two routes still agree to many digits (gaps of 8.5e-12 and
        # 7.7e-14 relative)
        basis, data = greedy_offline(family, sample_grid(family.domain, counts), tol=tol,
                                     cg_tol=cg_tol)
        assert basis.size >= 2
        full = max(error_estimator(family.build(mu), basis.matrix() @ coeffs)[0]
                   for mu, coeffs in zip(data.parameters, data.coefficients))
        assert abs(basis.history[-1].estimated_max_error - full) <= 1e-8 * full

    def test_rejected_snapshots_are_skipped_with_warning(self, caplog, monkeypatch):
        fam, train = small_train_set((2, 2))
        monkeypatch.setattr(numerics, "DROP_TOL", 10.0)  # every snapshot counts as dependent
        with caplog.at_level(logging.WARNING, logger="ctrlrom.greedy_rom"):
            basis, _ = greedy_offline(fam, train, tol=1e-10, cg_tol=1e-13)
        assert basis.size == 0
        assert "linearly dependent" in caplog.text

    def test_immediate_termination_on_loose_tolerance(self):
        fam, train = small_train_set((2, 2))
        basis, data = greedy_offline(fam, train, tol=1e9, cg_tol=1e-13)
        assert basis.size == 0
        assert data.coefficients.shape[1] == 0
        assert len(basis.history) == 1

    def test_snapshots_are_preconditioned_exact_solves(self, monkeypatch):
        # each snapshot is the exact tier's solve, preconditioned by the
        # greedy's assembled operator: no Nystrom sketch, and CG whose
        # verified residual meets cg_tol within two steps
        sketches, solved, snapshots = [], [], []
        sketch = exact_solver.nystrom_preconditioner

        def counted_sketch(inst):
            sketches.append(inst.parameter)
            return sketch(inst)

        def recorded_solve(inst, *args, **kwargs):
            solved.append(inst.parameter)
            snapshots.append(solve_exact(inst, *args, **kwargs))
            return snapshots[-1]

        monkeypatch.setattr(exact_solver, "nystrom_preconditioner", counted_sketch)
        monkeypatch.setattr(greedy_rom, "solve_exact", recorded_solve)
        fam, train = small_train_set()
        cg_tol = 1e-13
        basis, _ = greedy_offline(fam, train, tol=1e-5, cg_tol=cg_tol)
        assert basis.size >= 2
        assert sketches == []
        assert len(snapshots) == basis.size
        np.testing.assert_array_equal(solved, basis.selected_params)
        for sol in snapshots:
            assert sol.sketch_rank == basis.vectors.shape[1]
            assert sol.residual_norm <= cg_tol
            assert sol.cg_iters <= 2

    def test_orthonormality_of_result(self):
        fam, train = small_train_set()
        basis, _ = greedy_offline(fam, train, tol=1e-6, cg_tol=1e-13)
        mat = basis.matrix()
        gram = basis.ip.weight * (mat.T @ mat)
        assert np.max(np.abs(gram - np.eye(basis.size))) <= 1e-10


class TestOperatorGroups:
    """Training parameters that share a system operator share its images."""

    def test_operator_key(self):
        heat, wave = build_heat_family(n_y=12), build_wave_family(n_y=8)

        def key(family, mu):
            return operator_key(family.build(mu))

        # mu_2 enters only the target state
        assert key(heat, [1.5, 0.5]) == key(heat, [1.5, 1.5])
        assert key(heat, [1.5, 0.5]) != key(heat, [1.25, 0.5])
        assert key(wave, [3.0]) != key(wave, [4.0])
        # equal keys assemble the same operator, bit for bit
        assert (exact_solver.assemble_dense_operator(heat.build([1.5, 0.5])).tobytes()
                == exact_solver.assemble_dense_operator(heat.build([1.5, 1.5])).tobytes())

    def test_one_image_per_distinct_operator(self, monkeypatch):
        # a 3 x 4 heat grid has 3 distinct operators: the greedy assembles
        # each once, not once per training parameter (12), and takes every
        # image as a product with it, applying no operator by sweeps
        fam = build_heat_family(n_y=12)
        train = sample_grid(fam.domain, [3, 4])
        assembled, assemble = [], greedy_rom.assemble_dense_operator

        def counted_assemble(inst):
            assembled.append(inst.parameter)
            return assemble(inst)

        monkeypatch.setattr(greedy_rom, "assemble_dense_operator", counted_assemble)
        # the exact solve's CG applies are not images
        images = calls_outside_exact_solves(monkeypatch, "apply_system_operator")
        basis, _ = greedy_offline(fam, train, tol=1e-5, cg_tol=1e-12)
        assert basis.size >= 2
        assert len(assembled) == 3
        assert len({mu[0] for mu in assembled}) == 3  # one per conductivity
        assert images == []

    @pytest.mark.parametrize("family, expected", [
        (build_heat_family(n_y=12), 3),  # 3 operators, one x0
        (initial_state_family(), 3),  # one operator, 3 initial states
    ], ids=["heat", "initial-state"])
    def test_one_free_sweep_per_operator_and_initial_state(self, monkeypatch, family, expected):
        # the right-hand sides of a 3 x 4 grid need the uncontrolled final
        # state once per operator and x0, not once per parameter (12)
        free = calls_outside_exact_solves(monkeypatch, "solve_state_forward",
                                          lambda x_init, u=None: u is None)
        basis, _ = greedy_offline(family, sample_grid(family.domain, [3, 4]), tol=1e-5,
                                  cg_tol=1e-12)
        assert basis.size >= 2
        assert len(free) == expected

    def test_live_instances_follow_distinct_operators(self, monkeypatch):
        # a 2 x 4 heat grid: 8 parameters, 2 operators; during an exact solve
        # the greedy holds the 2 operators assembled and only the instance it
        # solves
        heat = small_heat_family()
        built = []

        def builder(mu):
            inst = heat.builder(mu)
            built.append(weakref.ref(inst))
            return inst

        family = ProblemFamily(name=heat.name, domain=heat.domain, builder=builder)
        live, solve = [], greedy_rom.solve_exact

        def counted_solve(*args, **kwargs):
            gc.collect()
            live.append(sum(ref() is not None for ref in built))
            return solve(*args, **kwargs)

        monkeypatch.setattr(greedy_rom, "solve_exact", counted_solve)
        basis, _ = greedy_offline(family, sample_grid(family.domain, [2, 4]), tol=1e-6,
                                  cg_tol=1e-13)
        assert len(built) >= 8 and len(live) == basis.size >= 2
        assert max(live) == 1

    @pytest.mark.parametrize("family, counts, tol, cg_tol", [
        (build_heat_family(n_y=12), [3, 4], 1e-5, 1e-12),
        (build_wave_family(n_y=8), [5], 1e-2, 1e-9),
        (initial_state_family(), [3, 4], 1e-5, 1e-12),
    ], ids=["heat", "wave", "initial-state"])
    def test_training_coefficients_equal_projection_bitwise(self, family, counts, tol, cg_tol):
        # no longer bit for bit, despite the name kept for its test ids: the
        # greedy fits single-vector images, the projection a block's, and
        # the two round apart
        basis, data = greedy_offline(family, sample_grid(family.domain, counts),
                                     tol=tol, cg_tol=cg_tol)
        assert basis.size >= 2
        for mu, coeffs in zip(data.parameters, data.coefficients):
            expected, _ = project_coefficients(family.build(mu), basis)
            assert np.linalg.norm(coeffs - expected) <= 1e-12 * np.linalg.norm(expected)


class TestRomOnline:
    def test_cheap_estimator_equals_full(self):
        fam, train = small_train_set()
        basis, _ = greedy_offline(fam, train, tol=1e-5, cg_tol=1e-13)
        inst = fam.build([1.64, 0.58])
        sol = rom_online(inst, basis, certify=True)
        full, _, _ = error_estimator(inst, sol.phiT_approx)
        assert abs(sol.estimated_error - full) <= 1e-10 * max(full, 1e-30)

    def test_cached_estimator_at_zero_coefficients(self):
        # a right-hand side orthogonal to the images projects to zero
        # coefficients, where the cached estimate is its own norm
        fam = small_heat_family()
        inst = fam.build([1.2, 1.2])
        basis = ReducedBasis(vectors=np.eye(8)[:2] / np.sqrt(inst.ip.weight),
                             selected_params=np.zeros((2, 2)), ip=inst.ip,
                             tolerance_used=0.0)
        states = images(inst, basis)
        rhs = rhs_vector(inst)
        rhs = rhs - states @ np.linalg.lstsq(states, rhs, rcond=None)[0]
        coeffs, value = _project(states, rhs, inst.ip)
        assert np.max(np.abs(coeffs)) <= 1e-12 * np.linalg.norm(rhs)
        assert value == pytest.approx(inst.ip.norm(rhs), rel=1e-12)

    def test_true_error_below_estimate(self):
        fam, train = small_train_set()
        basis, _ = greedy_offline(fam, train, tol=1e-5, cg_tol=1e-13)
        rng = np.random.default_rng(5)
        for _ in range(5):
            mu = rng.uniform(fam.domain.lows, fam.domain.highs)
            inst = fam.build(mu)
            sol = rom_online(inst, basis, certify=True)
            exact = solve_exact(inst, cg_tol=1e-13)
            true_err = inst.ip.norm(exact.phiT - sol.phiT_approx)
            assert true_err <= sol.estimated_error * (1 + 1e-6)

    def test_certify_off(self):
        fam, train = small_train_set((2, 2))
        basis, _ = greedy_offline(fam, train, tol=1e-3, cg_tol=1e-13)
        sol = rom_online(fam.build([1.5, 1.0]), basis, certify=False)
        assert sol.estimated_error is None

    def test_reconstruction_consistency(self):
        fam, train = small_train_set((2, 2))
        basis, _ = greedy_offline(fam, train, tol=1e-3, cg_tol=1e-13)
        sol = rom_online(fam.build([1.5, 1.0]), basis, certify=False)
        np.testing.assert_array_equal(sol.phiT_approx, basis.matrix() @ sol.coeffs)


class TestTrainingData:
    @pytest.mark.parametrize("parameters, coefficients", [
        (np.zeros(3), np.zeros((3, 1))),
        (np.zeros((3, 2)), np.zeros(3)),
        (np.zeros((3, 2)), np.zeros((2, 1))),
    ], ids=["1-d parameters", "1-d coefficients", "row counts differ"])
    def test_rejected_at_construction(self, parameters, coefficients):
        with pytest.raises(ValueError, match="do not pair up"):
            TrainingData(parameters, coefficients)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("record, name", [
    (TrainingData, "parameters"),
    (TrainingData, "coefficients"),
    (ReducedBasis, "vectors"),
    (ReducedBasis, "selected_params"),
])
def test_record_rejects_non_finite_array(record, name, bad):
    shapes = {"parameters": (4, 2), "coefficients": (4, 3), "vectors": (3, 8),
              "selected_params": (3, 2)}
    extra = dict(ip=InnerProduct(1.0), tolerance_used=0.0) if record is ReducedBasis else {}
    arrays = {f.name: np.ones(shapes[f.name]) for f in fields(record) if f.name in shapes}
    record(**arrays, **extra)  # finite: accepted
    arrays[name][-1, 1] = bad
    with pytest.raises(ValueError, match=f"^{name} holds a NaN or an infinity"):
        record(**arrays, **extra)


class TestPersistence:
    @pytest.mark.parametrize("meta, message", [
        (dict(tolerance_used=0.0), "tolerance 0.0"),
        (dict(tolerance_used=float("nan")), "tolerance nan"),
    ], ids=["zero-tolerance", "nan-tolerance"])
    def test_save_rejects_meta_that_load_rejects(self, tmp_path, meta, message):
        valid = dict(vectors=np.eye(2, 8), selected_params=np.ones((2, 2)),
                     ip=InnerProduct(0.1), tolerance_used=1e-4, family_name="heat")
        save_basis(ReducedBasis(**valid), tmp_path / "valid.crb")
        assert load_basis(tmp_path / "valid.crb").tolerance_used == 1e-4
        path = tmp_path / "basis.crb"
        with pytest.raises(ValueError, match=f"^{message} is not a finite positive real number$"):
            save_basis(ReducedBasis(**{**valid, **meta}), path)
        assert not path.exists()

    def test_basis_round_trip(self, tmp_path):
        # tol = 1e9 stops the greedy at once: an empty basis of the n = 8
        # states and p = 2 parameter components
        fam, train = small_train_set((3, 3))
        for tol in (1e-4, 1e9):
            basis, _ = greedy_offline(fam, train, tol=tol, cg_tol=1e-13)
            path = tmp_path / "basis.crb"
            save_basis(basis, path)
            loaded = load_basis(path)
            assert loaded.size == basis.size
            assert loaded.family_name == basis.family_name
            assert loaded.tolerance_used == basis.tolerance_used
            assert loaded.ip.weight == basis.ip.weight
            assert loaded.vectors.shape == (basis.size, 8)
            assert loaded.selected_params.shape == (basis.size, 2)
            np.testing.assert_array_equal(loaded.vectors, basis.vectors)
            np.testing.assert_array_equal(loaded.selected_params, basis.selected_params)
            save_basis(loaded, tmp_path / "again.crb")
            assert (tmp_path / "again.crb").read_bytes() == path.read_bytes()
        assert basis.size == 0 and loaded.matrix().shape == (8, 0)

    def test_basis_round_trip_keeps_history(self, tmp_path):
        fam, train = small_train_set((3, 3))
        for tol in (1e-4, 1e9):
            basis, _ = greedy_offline(fam, train, tol=tol, cg_tol=1e-13)
            save_basis(basis, tmp_path / "basis.crb")
            loaded = load_basis(tmp_path / "basis.crb")
            assert loaded.history == basis.history
            assert len(loaded.history) == basis.size + 1  # row i has basis size i
            assert loaded.history[-1].true_error_at_selected is None

    def test_training_data_round_trip(self, tmp_path):
        fam, train = small_train_set((2, 2))
        _, data = greedy_offline(fam, train, tol=1e-3, cg_tol=1e-13)
        path = tmp_path / "training.bin"
        save_training_data(data, path)
        loaded = load_training_data(path, n_params=2)
        np.testing.assert_array_equal(loaded.parameters, data.parameters)
        np.testing.assert_array_equal(loaded.coefficients, data.coefficients)

    @pytest.mark.parametrize("change", CORRUPTIONS)
    def test_truncated_or_extended_files_rejected(self, tmp_path, change):
        fam, train = small_train_set((2, 2))
        basis, data = greedy_offline(fam, train, tol=1e-3, cg_tol=1e-13)
        save_basis(basis, tmp_path / "basis.crb")
        save_training_data(data, tmp_path / "training_data.bin")
        for name, load in (("basis.crb", load_basis),
                           ("training_data.bin", lambda p: load_training_data(p, n_params=2))):
            bad = corrupted_copy(tmp_path / name, change)
            with pytest.raises(ValueError, match=re.escape(bad.name)):
                load(bad)

    def test_training_data_parameter_count_checked(self, tmp_path):
        fam, train = small_train_set((2, 2))
        _, data = greedy_offline(fam, train, tol=1e-3, cg_tol=1e-13)
        path = tmp_path / "training.bin"
        save_training_data(data, path)
        with pytest.raises(ValueError, match="parameter columns"):
            load_training_data(path, n_params=1)

    def test_basis_magic_guard(self, tmp_path):
        path = tmp_path / "bogus.crb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_basis(path)
