import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ctrlrom.dynamics import (
    _CHUNK,
    apply_gramian,
    apply_system_operator,
    control_norm_dt,
    evaluate_cost,
    rhs_vector,
    solve_adjoint_backward,
    solve_state_forward,
)
from ctrlrom.exact_solver import solve_exact
from ctrlrom.system import ProblemInstance, TimeGrid, build_heat_family, build_wave_family

from conftest import make_instance, scalar_instance


class TestAdjointBackward:
    def test_zero_generator_keeps_terminal_value(self, rng):
        # B = R = I with unit weight makes the control u = -phi, so the
        # control carries the adjoint itself
        inst = make_instance(np.zeros((3, 3)), np.eye(3), np.zeros(3), np.zeros(3),
                             np.eye(3), np.eye(3))
        pT = rng.standard_normal(3)
        u = solve_adjoint_backward(inst, pT)
        np.testing.assert_allclose(u, np.tile(-pT, (65, 1)), atol=1e-14)

    def test_zero_terminal_value(self):
        inst = scalar_instance(a=-2.0)
        u = solve_adjoint_backward(inst, np.array([0.0]))
        np.testing.assert_array_equal(u, np.zeros((65, 1)))

    def test_scalar_matches_exponential(self):
        # closed form: phi(t) = exp(a (T - t)) pT, so phi(0) = exp(-1) pT;
        # with b = r = 1 the control is u = -phi
        inst = scalar_instance(a=-1.0, T=1.0, n_t=2000)
        u = solve_adjoint_backward(inst, np.array([1.0]))
        assert u[0, 0] == pytest.approx(-np.exp(-1.0), abs=5e-8)

    def test_wrong_length_rejected(self):
        inst = scalar_instance()
        with pytest.raises(ValueError):
            solve_adjoint_backward(inst, np.zeros(2))


class TestControlFromAdjoint:
    def test_zero_adjoint_gives_zero_control(self):
        inst = scalar_instance(r=0.5)
        u = solve_adjoint_backward(inst, np.array([0.0]))
        np.testing.assert_array_equal(u, np.zeros((65, 1)))

    def test_scalar_formula(self):
        # u = -c / r for constant adjoint c when A = 0, B = 1, h = 1
        inst = scalar_instance(a=0.0, b=1.0, r=4.0)
        u = solve_adjoint_backward(inst, np.array([2.0]))
        np.testing.assert_allclose(u, -0.5 * np.ones((65, 1)), atol=1e-14)

    def test_heat_control_dimension(self):
        fam = build_heat_family(n_y=5, T=0.1, steps_per_point=4)
        inst = fam.build([1.0, 1.0])
        u = solve_adjoint_backward(inst, np.ones(5))
        assert u.shape == (inst.grid.n_t + 1, 2)
        block = solve_adjoint_backward(inst, np.ones((5, 3)))
        assert block.shape == (inst.grid.n_t + 1, 2, 3)

    def test_requires_adjoint_kind(self):
        # the sweep takes a terminal adjoint of shape (n,) or (n, k), not a
        # trajectory of node values
        inst = scalar_instance()
        with pytest.raises(ValueError):
            solve_adjoint_backward(inst, np.ones((65, 1)))
        with pytest.raises(ValueError):
            solve_adjoint_backward(inst, np.ones((1, 1, 1)))


class TestStateForward:
    def test_no_dynamics_no_control(self, rng):
        inst = make_instance(np.zeros((4, 4)), np.zeros((4, 1)), np.zeros(4), np.zeros(4),
                             np.eye(4), [[1.0]])
        x0 = rng.standard_normal(4)
        np.testing.assert_allclose(solve_state_forward(inst, x0), x0, atol=1e-14)

    def test_constant_control_integrates_exactly(self):
        # x' = u with u = 1 gives x(T) = T, exact under trapezoidal coupling
        inst = scalar_instance(a=0.0, b=1.0, T=1.0, n_t=16)
        u = np.ones((17, 1))
        assert solve_state_forward(inst, np.array([0.0]), u)[0] == pytest.approx(1.0, rel=1e-14)

    def test_scalar_exponential(self):
        inst = scalar_instance(a=-1.5, T=1.0, n_t=2000)
        assert solve_state_forward(inst, np.array([1.0]))[0] == pytest.approx(np.exp(-1.5),
                                                                              abs=1e-7)

    def test_second_order_convergence(self):
        # halving dt cuts the scalar endpoint error by about four
        errors = []
        for n_t in (64, 128):
            inst = scalar_instance(a=-1.0, T=1.0, n_t=n_t)
            errors.append(abs(solve_state_forward(inst, np.array([1.0]))[0] - np.exp(-1.0)))
        ratio = errors[0] / errors[1]
        assert 3.0 <= ratio <= 5.0


class TestFreeDynamics:
    def test_zero_initial_state(self):
        inst = scalar_instance(a=-3.0, x0=0.0)
        assert solve_state_forward(inst, inst.x0)[0] == 0.0

    def test_zero_generator(self, rng):
        x0 = rng.standard_normal(5)
        inst = make_instance(np.zeros((5, 5)), np.zeros((5, 1)), x0, np.zeros(5),
                             np.eye(5), [[1.0]])
        np.testing.assert_allclose(solve_state_forward(inst, inst.x0), x0, atol=1e-14)

    def test_tiny_heat_matches_matrix_exponential(self):
        # oracle: dense expm of the assembled generator
        fam = build_heat_family(n_y=4, T=0.1, steps_per_point=100)
        inst = fam.build([1.0, 1.0])
        expected = expm(0.1 * inst.A) @ inst.x0
        assert inst.ip.norm(solve_state_forward(inst, inst.x0) - expected) <= 1e-6


class TestGramian:
    def test_zero_vector(self):
        inst = scalar_instance(a=-1.0)
        assert apply_gramian(inst, np.array([0.0]))[0] == 0.0

    def test_no_control_authority(self, rng):
        inst = make_instance(-np.eye(3), np.zeros((3, 1)), np.zeros(3), np.zeros(3),
                             np.eye(3), [[1.0]])
        np.testing.assert_allclose(apply_gramian(inst, rng.standard_normal(3)), np.zeros(3),
                                   atol=1e-14)

    def test_scalar_closed_form(self):
        # A = 0, B = 1, weight 1: Gramian equals T / r, exactly under the
        # node-averaged control coupling
        inst = scalar_instance(a=0.0, b=1.0, r=2.0, T=1.5, n_t=48)
        out = apply_gramian(inst, np.array([3.0]))
        assert out[0] == pytest.approx(1.5 / 2.0 * 3.0, rel=1e-12)

    def test_self_adjoint_and_psd_tiny(self, rng):
        fam = build_heat_family(n_y=6, T=0.1, steps_per_point=10)
        inst = fam.build([1.7, 0.8])
        for _ in range(10):
            p, q = rng.standard_normal(6), rng.standard_normal(6)
            lp, lq = apply_gramian(inst, p), apply_gramian(inst, q)
            defect = abs(inst.ip.dot(lp, q) - inst.ip.dot(p, lq))
            assert defect <= 1e-8 * inst.ip.norm(p) * inst.ip.norm(q)
            assert inst.ip.dot(p, lp) >= -1e-10


class TestSystemOperator:
    def test_zero_weighting_is_identity(self, rng):
        inst = make_instance(-np.eye(4), np.ones((4, 1)), np.zeros(4), np.zeros(4),
                             np.zeros((4, 4)), [[1.0]])
        p = rng.standard_normal(4)
        np.testing.assert_allclose(apply_system_operator(inst, p), p, atol=1e-14)

    def test_zero_vector(self):
        inst = scalar_instance(a=-1.0)
        assert apply_system_operator(inst, np.array([0.0]))[0] == 0.0

    def test_linearity(self, rng):
        fam = build_heat_family(n_y=5, T=0.1, steps_per_point=10)
        inst = fam.build([1.2, 1.1])
        p, q = rng.standard_normal(5), rng.standard_normal(5)
        a, b = 0.7, -1.3
        lhs = apply_system_operator(inst, a * p + b * q)
        rhs = a * apply_system_operator(inst, p) + b * apply_system_operator(inst, q)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))

    def test_matches_columnwise_dense_assembly(self, rng):
        # oracle: dense matrix assembled by doubling over the time steps
        from ctrlrom.exact_solver import assemble_dense_operator

        fam = build_heat_family(n_y=6, T=0.1, steps_per_point=10)
        inst = fam.build([1.8, 0.9])
        dense = assemble_dense_operator(inst)
        for _ in range(5):
            p = rng.standard_normal(6)
            gap = np.max(np.abs(apply_system_operator(inst, p) - dense @ p))
            assert gap <= 1e-8


class TestRhsVector:
    def test_matched_target_is_zero(self):
        inst = scalar_instance(a=0.0, x0=0.7, xT=0.7)
        assert rhs_vector(inst)[0] == pytest.approx(0.0, abs=1e-14)

    def test_zero_weighting(self):
        inst = make_instance([[0.0]], [[1.0]], [1.0], [0.0], [[0.0]], [[1.0]])
        assert rhs_vector(inst)[0] == 0.0

    def test_identity_weighting_difference(self):
        inst = scalar_instance(a=0.0, x0=2.0, xT=0.5)
        assert rhs_vector(inst)[0] == pytest.approx(1.5, rel=1e-12)


class TestCost:
    def test_zero_cost_at_matched_target(self):
        inst = scalar_instance(a=0.0, x0=1.0, xT=1.0)
        assert evaluate_cost(inst, np.zeros((65, 1))) == pytest.approx(0.0, abs=1e-14)

    def test_pure_energy_term(self):
        inst = scalar_instance(a=0.0, b=0.0, x0=0.0, xT=0.0, r=1.0, T=1.0)
        assert evaluate_cost(inst, np.ones((65, 1))) == pytest.approx(0.5, rel=1e-14)

    def test_optimal_control_beats_zero_control(self):
        fam = build_heat_family(n_y=8, T=0.1, steps_per_point=10)
        inst = fam.build([1.4, 1.2])
        sol = solve_exact(inst, cg_tol=1e-12)
        zero = np.zeros((inst.grid.n_t + 1, 2))
        assert evaluate_cost(inst, sol.control) <= evaluate_cost(inst, zero)


class TestControlNorm:
    def test_zero(self):
        inst = scalar_instance()
        assert control_norm_dt(np.zeros((65, 1)), inst.grid.dt) == 0.0

    def test_constant_unit_control(self):
        inst = scalar_instance(T=1.0, n_t=50)
        assert control_norm_dt(np.ones((51, 1)), inst.grid.dt) == pytest.approx(1.0, rel=1e-14)

    def test_homogeneity(self, rng):
        inst = scalar_instance(T=2.0, n_t=32)
        u = rng.standard_normal((33, 1))
        dt = inst.grid.dt
        assert control_norm_dt(3.0 * u, dt) == pytest.approx(3.0 * control_norm_dt(u, dt),
                                                             rel=1e-12)


class TestNonFiniteInput:
    def test_forward_sweep_rejects_nan_control(self):
        inst = scalar_instance(a=0.0, b=1.0)
        u = np.ones((65, 1))
        u[7, 0] = np.nan
        with pytest.raises(FloatingPointError):
            solve_state_forward(inst, np.array([0.0]), u)

    def test_backward_sweep_rejects_nan_adjoint(self):
        inst = scalar_instance()
        with pytest.raises(ValueError):
            solve_adjoint_backward(inst, np.array([np.nan]))


def stepwise_controls(inst, pT):
    """The backward sweep's controls, one transposed step per pass, from the last node down."""
    phi = np.array(pT, dtype=float)
    u = np.empty((inst.grid.n_t + 1, inst.m) + phi.shape[1:])
    for j in range(inst.grid.n_t, -1, -1):
        u[j] = -np.linalg.solve(inst.R, inst.B_adj @ phi)
        phi = inst.step_propagator.T @ phi
    return u


def stepwise_final_state(inst, x, u=None):
    """The forward sweep's x(T), one step and its averaged input term per pass."""
    x = np.array(x, dtype=float)
    for j in range(inst.grid.n_t):
        x = inst.step_propagator @ x
        if u is not None:
            x = x + 0.5 * inst.grid.dt * (inst.step_input_map @ (u[j] + u[j + 1]))
    return x


def with_steps(inst, n_t):
    """The same instance on a grid of n_t steps over the same horizon."""
    return ProblemInstance(A=inst.A, B=inst.B, x0=inst.x0, xT=inst.xT, M=inst.M, R=inst.R,
                           ip=inst.ip, grid=TimeGrid(T=inst.grid.T, n_t=n_t))


# tiny instances: heat with n_y <= 8, wave with n_y <= 4 (state dimension 2 n_y)
_tiny_instances = st.one_of(
    st.builds(lambda n_y, mu: build_heat_family(n_y=n_y, T=0.1, steps_per_point=10).build(mu),
              st.integers(2, 8),
              st.tuples(st.floats(1.0, 2.0), st.floats(0.5, 1.5))),
    st.builds(lambda n_y, mu: build_wave_family(n_y=n_y, T=1.0, steps_per_point=10).build([mu]),
              st.integers(2, 4),
              st.floats(3.0, 10.0)),
)
# step counts below, equal to, a multiple of and not a multiple of the chunk
_step_counts = st.one_of(
    st.integers(1, _CHUNK - 1),
    st.sampled_from([_CHUNK, 2 * _CHUNK]),
    st.integers(_CHUNK + 1, 3 * _CHUNK).filter(lambda n_t: n_t % _CHUNK),
)


def relative_gap(block_column, column):
    return np.linalg.norm(block_column - column) / np.linalg.norm(column)


class TestChunkBoundaries:
    # step counts of one step, one short of, equal to and one past a chunk,
    # and one past two chunks
    @pytest.mark.parametrize("n_t", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "block"])
    def test_sweeps_match_a_stepwise_loop(self, n_t, shape, rng):
        inst = with_steps(build_heat_family(n_y=6).build([1.5, 1.0]), n_t)
        P = rng.standard_normal((inst.n, *shape))
        u = rng.standard_normal((n_t + 1, inst.m, *shape))
        assert relative_gap(solve_adjoint_backward(inst, P), stepwise_controls(inst, P)) <= 1e-13
        assert relative_gap(solve_state_forward(inst, P), stepwise_final_state(inst, P)) <= 1e-13
        assert relative_gap(solve_state_forward(inst, P, u),
                            stepwise_final_state(inst, P, u)) <= 1e-13


class TestBlockSweeps:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(inst=_tiny_instances, n_t=_step_counts, k=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_block_columns_match_vector_applies(self, inst, n_t, k, seed):
        inst = with_steps(inst, n_t)
        P = np.random.default_rng(seed).standard_normal((inst.n, k))
        images = apply_system_operator(inst, P)
        controls = solve_adjoint_backward(inst, P)
        assert images.shape == (inst.n, k)
        assert controls.shape == (n_t + 1, inst.m, k)
        for i in range(k):
            assert relative_gap(images[:, i], apply_system_operator(inst, P[:, i])) <= 1e-13
            column = solve_adjoint_backward(inst, P[:, i])
            assert relative_gap(controls[:, :, i], column) <= 1e-13

    @pytest.mark.parametrize(
        "family, offset",
        [(build_heat_family(), 0), (build_wave_family(n_y=60), 0),
         (build_heat_family(), 16), (build_wave_family(n_y=60), 16)],
        ids=["heat", "wave", "heat-offset16", "wave-offset16"])
    def test_block_columns_match_vector_sweeps(self, family, offset, rng):
        # a vector steps through np.dot, a block through one matrix product
        # per step, so at the benchmark sizes (n = 100 and 120) a block
        # column is its vector's sweep up to rounding.  The free forward
        # sweep is measured against its input, since heat's 3000 steps
        # shrink the output by orders of magnitude.  Step operands moved 16
        # bytes past their cache line step slower but must give the aligned
        # run's bits, for vectors and for blocks: alignment moves speed only
        inst = family.build(family.domain.highs)
        P = rng.standard_normal((inst.n, 3))

        def sweeps(x):
            controls = solve_adjoint_backward(inst, x)
            return controls, solve_state_forward(inst, x, controls), solve_state_forward(inst, x)

        inputs = [P, *P.T]
        runs = [sweeps(x) for x in inputs]
        if offset:
            def moved(a, order):
                raw = np.empty(a.nbytes + 64 + offset, dtype=np.uint8)
                start = -raw.ctypes.data % 64 + offset
                b = raw[start : start + a.nbytes].view(np.float64).reshape(a.shape, order=order)
                b[...] = a
                assert b.ctypes.data % 64 == offset
                return b

            # [S | G] and S in C order, the operands of a block's steps
            inst.step_operator = moved(inst.step_operator, "F")
            inst.step_propagator = inst.step_operator[:, :inst.n]
            inst.step_input_map = inst.step_operator[:, inst.n:]
            inst.block_propagator = moved(inst.block_propagator, "C")
            assert inst.step_propagator.flags.f_contiguous
            assert inst.block_propagator.flags.c_contiguous
            for x, aligned in zip(inputs, runs):
                for moved_run, aligned_run in zip(sweeps(x), aligned):
                    np.testing.assert_array_equal(moved_run, aligned_run)
        controls, states, free = runs[0]
        for i, (column, state, free_state) in enumerate(runs[1:]):
            assert relative_gap(controls[:, :, i], column) <= 1e-13
            assert relative_gap(states[:, i], state) <= 1e-13
            assert np.linalg.norm(free[:, i] - free_state) <= 1e-13 * np.linalg.norm(P[:, i])

    def test_block_apply_keeps_no_trajectory(self, rng):
        # a stored (n_t + 1) x n x k trajectory would need four times the
        # bound below
        inst = build_heat_family(n_y=40, T=0.1, steps_per_point=100).build([1.5, 1.0])
        k = 8
        P = rng.standard_normal((inst.n, k))
        tracemalloc.start()
        try:
            apply_system_operator(inst, P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (inst.grid.n_t + 1) * inst.n * k * 8 / 4
