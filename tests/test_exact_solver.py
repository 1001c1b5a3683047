import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctrlrom import dynamics, exact_solver
from ctrlrom.dynamics import (
    apply_system_operator,
    evaluate_cost,
    rhs_vector,
    solve_adjoint_backward,
    solve_state_forward,
)
from ctrlrom.errors import ConvergenceError
from ctrlrom.exact_solver import (
    assemble_dense_operator,
    error_estimator,
    solve_exact,
)
from ctrlrom.numerics import cg_solve
from ctrlrom.system import build_heat_family, build_wave_family

from conftest import make_instance, scalar_instance

SRC = str(Path(__file__).resolve().parents[1] / "src")


def plain_cg(inst, tol):
    """Unpreconditioned CG on the final-time adjoint system, the reference
    the Nystrom preconditioner is measured against: ``(phiT, iters, res)``."""
    return cg_solve(lambda p: apply_system_operator(inst, p), rhs_vector(inst), inst.ip, tol=tol)


class TestSolveExact:
    def test_zero_rhs_gives_zero_solution(self):
        inst = scalar_instance(a=0.0, x0=0.4, xT=0.4)
        sol = solve_exact(inst)
        assert sol.phiT[0] == pytest.approx(0.0, abs=1e-13)
        np.testing.assert_allclose(sol.control, 0.0, atol=1e-13)

    def test_scalar_closed_form(self):
        # (1 + T/r) phi = x0 - xT with T = r = 1 gives phi = 1/2 exactly
        inst = scalar_instance(a=0.0, b=1.0, m=1.0, r=1.0, x0=1.0, xT=0.0, T=1.0)
        sol = solve_exact(inst)
        assert sol.phiT[0] == pytest.approx(0.5, rel=1e-11)

    def test_tiny_heat_matches_dense_direct_solve(self):
        # oracle: densely assembled operator, factorized directly
        fam = build_heat_family(n_y=4, T=0.1, steps_per_point=30)
        inst = fam.build([1.3, 0.9])
        sol = solve_exact(inst, cg_tol=1e-12)
        dense = assemble_dense_operator(inst)
        expected = np.linalg.solve(dense, rhs_vector(inst))
        assert inst.ip.norm(sol.phiT - expected) <= 1e-9

    def test_residual_invariant(self):
        fam = build_heat_family(n_y=6, T=0.1, steps_per_point=10)
        sol = solve_exact(fam.build([1.8, 0.6]), cg_tol=1e-12)
        assert sol.residual_norm <= 1e-12

    def test_unverified_residual_raises(self, monkeypatch):
        # a CG result whose verified residual misses the tolerance must not
        # pass as an exact solution
        inst = build_heat_family(n_y=4, T=0.1, steps_per_point=10).build([1.5, 1.0])
        monkeypatch.setattr(exact_solver, "cg_solve",
                            lambda *args, **kwargs: (np.zeros(inst.n), 3, 1e-6))
        with pytest.raises(ConvergenceError) as err:
            solve_exact(inst, cg_tol=1e-12)
        assert err.value.residual_norm == 1e-6
        assert err.value.iterations == 3

    def test_sweeps_pair_up(self, monkeypatch):
        # the right-hand side is the one unpaired forward sweep, the control
        # of the solution the one unpaired backward sweep: an exact solve runs
        # no forward sweep from x0 that nothing reads
        counts = {"solve_adjoint_backward": 0, "solve_state_forward": 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(dynamics, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(dynamics, name, counted)
        inst = build_heat_family(n_y=6, T=0.1, steps_per_point=10).build([1.8, 0.6])
        sol = solve_exact(inst, cg_tol=1e-12)
        assert counts["solve_adjoint_backward"] == counts["solve_state_forward"]
        assert counts["solve_adjoint_backward"] >= sol.cg_iters + 2

    def test_first_order_optimality(self):
        # the exact discrete optimum minimizes the cost: J(u* + eps v) >= J(u*)
        # for random directions, with no slack
        fam = build_heat_family(n_y=5, T=0.1, steps_per_point=10)
        inst = fam.build([1.5, 1.0])
        sol = solve_exact(inst)
        j_star = evaluate_cost(inst, sol.control)
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.standard_normal(sol.control.shape)
            for eps in (1e-3, -1e-3):
                assert evaluate_cost(inst, sol.control + eps * v) >= j_star


class TestNystromPreconditioner:
    @pytest.mark.parametrize("mu", [3.0, 6.5, 10.0])
    def test_cuts_small_wave_iterations_fourfold(self, mu):
        inst = build_wave_family(n_y=20).build([mu])
        cg_tol = 1e-9
        _, plain_iters, _ = plain_cg(inst, cg_tol)
        sol = solve_exact(inst, cg_tol=cg_tol)
        assert 4 * sol.cg_iters <= plain_iters
        assert error_estimator(inst, sol.phiT)[0] <= cg_tol

    def test_records_sketch_rank(self):
        # the rank doubles from 8 while the sketch's smallest eigenvalue
        # exceeds the unit shift, up to the state dimension, and a scalar
        # state sketches its one column
        wave = build_wave_family(n_y=20).build([6.5])
        assert solve_exact(wave, cg_tol=1e-9).sketch_rank == 32
        heat = build_heat_family(n_y=40, T=0.1, steps_per_point=10).build([1.5, 1.0])
        assert solve_exact(heat).sketch_rank == 8
        assert solve_exact(scalar_instance()).sketch_rank == 1

    @pytest.mark.parametrize("family, mu, batches, rank", [
        (build_heat_family(n_y=40, T=0.1, steps_per_point=10), [1.5, 1.0], [16], 8),
        (build_wave_family(n_y=20), [6.5], [16, 16], 32),
    ], ids=["heat", "wave"])
    def test_sketch_applies_whole_batches(self, monkeypatch, family, mu, batches, rank):
        # the test columns go through the operator 16 at a time, and the
        # doubling rule reads only the first r of them, so the rank is the
        # one a column-by-column sketch would stop at
        inst = family.build(mu)
        applied = []

        def counted(inst, p):
            applied.append(np.shape(p)[1])
            return apply_system_operator(inst, p)

        monkeypatch.setattr(dynamics, "apply_system_operator", counted)
        assert exact_solver.nystrom_preconditioner(inst)[1] == rank
        assert applied == batches
        applied.clear()
        monkeypatch.setattr(exact_solver, "_SKETCH_BATCH", 1)
        assert exact_solver.nystrom_preconditioner(inst)[1] == rank
        assert applied == [1] * rank

    def test_rank_deficient_sketch_does_not_raise(self):
        # only the first state is controlled, so the Gramian has rank 1 and
        # the sketch's 8 x 8 core is singular up to rounding
        n = 20
        inst = make_instance(-np.diag(np.arange(1.0, n + 1)), np.eye(n, 1), np.ones(n),
                             np.zeros(n), 10.0 * np.eye(n), [[0.1]], n_t=32)
        sol = solve_exact(inst, cg_tol=1e-12)
        assert sol.sketch_rank == 8
        assert error_estimator(inst, sol.phiT)[0] <= 1e-12
        plain_phiT, _, _ = plain_cg(inst, 1e-12)
        assert inst.ip.norm(sol.phiT - plain_phiT) <= 2e-12

    def test_results_do_not_depend_on_blas_threads(self):
        # BLAS reads its thread count once, at load, so each count runs in
        # a fresh interpreter.  The g-rom queries step blocks of 9 and 26
        # columns, the largest block the configs run, on synthetic
        # orthonormal bases; a tiny heat and a tiny wave greedy check that
        # the snapshots, which read the sketch's block products, keep the
        # basis bits
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from ctrlrom.exact_solver import solve_exact\n"
            "from ctrlrom.greedy_rom import ReducedBasis, greedy_offline, rom_online\n"
            "from ctrlrom.system import build_heat_family, build_wave_family, sample_grid\n"
            "for inst, tol in ((build_wave_family(n_y=40).build([6.5]), 1e-9),\n"
            "                  (build_heat_family(n_y=100).build([1.5, 1.0]), 1e-12)):\n"
            "    print(hashlib.sha256(solve_exact(inst, cg_tol=tol).phiT.tobytes()).hexdigest())\n"
            "for inst, N in ((build_heat_family(n_y=100).build([1.5, 1.0]), 9),\n"
            "                (build_wave_family(n_y=60).build([6.5]), 26)):\n"
            "    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((inst.n, N)))[0]\n"
            "    basis = ReducedBasis(Q.T / inst.ip.weight ** 0.5, np.zeros((N, inst.parameter.size)),\n"
            "                         ip=inst.ip, tolerance_used=1.0)\n"
            "    sol = rom_online(inst, basis)\n"
            "    print(hashlib.sha256(sol.coeffs.tobytes() + sol.phiT_approx.tobytes()).hexdigest())\n"
            "for fam, counts, tol, cg_tol in (\n"
            "        (build_heat_family(n_y=8, T=0.1, steps_per_point=10), [4, 4], 1e-5, 1e-13),\n"
            "        (build_wave_family(n_y=20), [4], 1e-1, 1e-9)):\n"
            "    basis, _ = greedy_offline(fam, sample_grid(fam.domain, counts), tol=tol,\n"
            "                              cg_tol=cg_tol)\n"
            "    print(hashlib.sha256(basis.vectors.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("2", "1"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=300, check=True)
            digests.append(done.stdout.split())
        assert len(digests[0]) == 6
        assert digests[0] == digests[1]


class TestErrorEstimator:
    def test_near_zero_at_solution(self):
        fam = build_heat_family(n_y=5, T=0.1, steps_per_point=10)
        inst = fam.build([1.1, 1.3])
        cg_tol = 1e-12
        sol = solve_exact(inst, cg_tol=cg_tol)
        assert error_estimator(inst, sol.phiT)[0] <= max(cg_tol * 10, 1e-10)

    def test_at_zero_equals_rhs_norm(self):
        fam = build_heat_family(n_y=5, T=0.1, steps_per_point=10)
        inst = fam.build([1.9, 0.7])
        assert error_estimator(inst, np.zeros(5))[0] == pytest.approx(
            inst.ip.norm(rhs_vector(inst)), rel=1e-12
        )

    def test_reliability_lower_bound(self, rng):
        # estimator dominates the true perturbation distance
        fam = build_heat_family(n_y=6, T=0.1, steps_per_point=10)
        inst = fam.build([1.4, 0.9])
        sol = solve_exact(inst, cg_tol=1e-13)
        for _ in range(10):
            delta = rng.standard_normal(6)
            p = sol.phiT + delta
            assert error_estimator(inst, p)[0] >= inst.ip.norm(delta) * (1.0 - 1e-6)

    def test_reliability_for_adjoint_distance(self, rng):
        fam = build_heat_family(n_y=6, T=0.1, steps_per_point=10)
        inst = fam.build([1.0, 1.5])
        sol = solve_exact(inst, cg_tol=1e-13)
        for scale in (1e-3, 1.0, 10.0):
            p = sol.phiT + scale * rng.standard_normal(6)
            eta, _, _ = error_estimator(inst, p)
            assert inst.ip.norm(sol.phiT - p) <= eta * (1.0 + 1e-6)

    def test_efficiency_upper_bound_tiny(self, rng):
        # eta(p) <= |I + M Gramian|_op * |phi* - p| via the dense oracle
        fam = build_heat_family(n_y=4, T=0.1, steps_per_point=10)
        inst = fam.build([1.6, 1.2])
        sol = solve_exact(inst, cg_tol=1e-13)
        # a scalar weight makes the induced operator norm the Euclidean one
        bound = np.linalg.norm(assemble_dense_operator(inst), 2)
        for _ in range(10):
            p = sol.phiT + rng.standard_normal(4)
            eta, _, _ = error_estimator(inst, p)
            assert eta <= bound * inst.ip.norm(sol.phiT - p) * (1.0 + 1e-6)

    def test_returns_control_and_state_of_the_adjoint(self, rng):
        # the certificate's by-products are the control induced by p and
        # the final state that control drives from x0
        fam = build_heat_family(n_y=5, T=0.1, steps_per_point=10)
        inst = fam.build([1.2, 0.8])
        p = rng.standard_normal(5)
        _, control, final_state = error_estimator(inst, p)
        expected = solve_adjoint_backward(inst, p)
        np.testing.assert_array_equal(control, expected)
        np.testing.assert_array_equal(final_state, solve_state_forward(inst, inst.x0, expected))


# tiny instances: heat with n_y <= 8, wave with n_y <= 4 (state dimension 2 n_y)
_tiny_instances = st.one_of(
    st.builds(lambda n_y, mu: build_heat_family(n_y=n_y, T=0.1, steps_per_point=10).build(mu),
              st.integers(2, 8),
              st.tuples(st.floats(1.0, 2.0), st.floats(0.5, 1.5))),
    st.builds(lambda n_y, mu: build_wave_family(n_y=n_y, T=1.0, steps_per_point=10).build([mu]),
              st.integers(2, 4),
              st.floats(3.0, 10.0)),
)


class TestCertificateProperties:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(inst=_tiny_instances, seed=st.integers(0, 2**32 - 1))
    def test_equals_system_residual_and_bounds_true_error(self, inst, seed):
        p = np.random.default_rng(seed).standard_normal(inst.n)
        eta, _, _ = error_estimator(inst, p)
        residual = inst.ip.norm(rhs_vector(inst) - apply_system_operator(inst, p))
        assert eta == pytest.approx(residual, rel=1e-9)
        cg_tol = 1e-12
        exact = solve_exact(inst, cg_tol=cg_tol)
        # the CG solution is within cg_tol of the optimal adjoint
        assert inst.ip.norm(exact.phiT - p) <= eta * (1 + 1e-6) + cg_tol


class TestDenseOracle:
    def test_zero_weighting_gives_identity(self):
        inst = make_instance(-np.eye(3), np.ones((3, 1)), np.zeros(3), np.zeros(3),
                             np.zeros((3, 3)), [[1.0]])
        np.testing.assert_allclose(assemble_dense_operator(inst), np.eye(3), atol=1e-13)

    def test_scalar_value(self):
        inst = scalar_instance(a=0.0, b=1.0, r=2.0, T=1.0)
        dense = assemble_dense_operator(inst)
        assert dense[0, 0] == pytest.approx(1.0 + 1.0 / 2.0, rel=1e-12)

    def test_symmetry_of_weighted_part(self):
        fam = build_heat_family(n_y=5, T=0.1, steps_per_point=10)
        dense = assemble_dense_operator(fam.build([1.5, 1.0]))
        gram_part = dense - np.eye(5)
        assert np.max(np.abs(gram_part - gram_part.T)) <= 1e-8

    def test_assembles_past_the_old_size_limit(self):
        # no size guard: n = 140 assembles by doubling and matches the
        # operator applied by sweeps to the identity block
        inst = build_heat_family(n_y=140, T=0.1, steps_per_point=2).build([1.0, 1.0])
        dense = assemble_dense_operator(inst)
        by_sweeps = apply_system_operator(inst, np.eye(inst.n))
        assert dense.shape == (140, 140)
        assert np.max(np.abs(dense - by_sweeps)) <= 1e-12 * np.max(np.abs(by_sweeps))

    @pytest.mark.parametrize("family, mu", [
        (build_heat_family(), [1.3, 0.9]),
        (build_wave_family(n_y=60), [6.5]),
    ], ids=["heat", "wave"])
    def test_agrees_with_the_sweeps_at_paper_scale(self, family, mu):
        inst = family.build(mu)
        assert inst.n in (100, 120)
        dense = assemble_dense_operator(inst)
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.standard_normal(inst.n)
            image = apply_system_operator(inst, v)
            assert np.max(np.abs(dense @ v - image)) <= 1e-12 * np.max(np.abs(image))
