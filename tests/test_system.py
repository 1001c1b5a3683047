import numpy as np
import pytest

from ctrlrom.system import (
    ParameterDomain,
    build_heat_family,
    build_wave_family,
    sample_grid,
    sample_random,
)


class TestHeatFamily:
    def test_matrix_formula_tiny(self):
        # n_y = 3 gives h = 1/4, so A = 16 * tridiag(1, -2, 1) at mu_1 = 1
        fam = build_heat_family(n_y=3, T=0.1, steps_per_point=30)
        inst = fam.build([1.0, 1.0])
        expected = 16.0 * np.array([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], dtype=float)
        np.testing.assert_allclose(inst.A, expected, rtol=1e-14)
        assert inst.ip.weight == pytest.approx(0.25)
        np.testing.assert_allclose(inst.B[:, 0], [16.0, 0.0, 0.0])
        np.testing.assert_allclose(inst.B[:, 1], [0.0, 0.0, 16.0])

    def test_target_state_slope(self):
        fam = build_heat_family(n_y=99, T=0.1, steps_per_point=2)
        inst = fam.build([1.5, 0.75])
        h = 1.0 / 100.0
        mid = 49  # y = 0.5
        assert inst.xT[mid] == pytest.approx(0.75 * 0.5)
        np.testing.assert_allclose(inst.xT, 0.75 * h * np.arange(1, 100))

    def test_initial_state_midpoint(self):
        fam = build_heat_family(n_y=5, T=0.1, steps_per_point=2)
        inst = fam.build([1.0, 1.0])
        assert inst.x0[2] == pytest.approx(1.0)  # sin(pi/2) at y = 0.5

    def test_weighting_matrices(self):
        fam = build_heat_family(n_y=4, T=0.1, steps_per_point=2)
        inst = fam.build([2.0, 0.5])
        np.testing.assert_allclose(inst.M, np.eye(4))
        np.testing.assert_allclose(inst.R, np.diag([0.125, 0.25]))

    def test_linearity_in_conductivity(self):
        fam = build_heat_family(n_y=6, T=0.1, steps_per_point=2)
        a1 = fam.build([1.0, 1.0]).A
        a2 = fam.build([2.0, 1.0]).A
        np.testing.assert_allclose(a2, 2.0 * a1, rtol=1e-14)

    def test_grid_default_scaling(self):
        fam = build_heat_family(n_y=10, T=0.1, steps_per_point=30)
        inst = fam.build([1.0, 1.0])
        assert inst.grid.n_t == 300
        assert inst.grid.dt == pytest.approx(0.1 / 300)

    def test_out_of_domain_rejected(self):
        fam = build_heat_family(n_y=4, T=0.1, steps_per_point=2)
        with pytest.raises(ValueError):
            fam.build([0.5, 1.0])

    def test_builder_deterministic(self):
        fam = build_heat_family(n_y=4, T=0.1, steps_per_point=2)
        a = fam.build([1.3, 0.7])
        b = fam.build([1.3, 0.7])
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.xT, b.xT)


class TestWaveFamily:
    def test_block_structure_tiny(self):
        fam = build_wave_family(n_y=2, T=1.0, steps_per_point=2, nu=10.0)
        inst = fam.build([4.0])
        assert inst.n == 4
        np.testing.assert_allclose(inst.A[:2, 2:], np.eye(2))
        np.testing.assert_allclose(inst.A[:2, :2], np.zeros((2, 2)))
        h = 1.0 / 3.0
        np.testing.assert_allclose(
            inst.A[2:, :2], (4.0 / h**2) * np.array([[-2.0, 1.0], [1.0, -2.0]])
        )
        np.testing.assert_allclose(inst.A[2:, 2:], -10.0 * np.eye(2))
        expected_b = np.zeros((4, 1))
        expected_b[3, 0] = 4.0 / h**2
        np.testing.assert_allclose(inst.B, expected_b)

    def test_zero_damping_block(self):
        fam = build_wave_family(n_y=3, T=1.0, steps_per_point=2, nu=0.0)
        inst = fam.build([5.0])
        np.testing.assert_allclose(inst.A[3:, 3:], np.zeros((3, 3)))

    def test_target_velocity_is_zero(self):
        fam = build_wave_family(n_y=7, T=1.0, steps_per_point=2)
        inst = fam.build([3.0])
        np.testing.assert_allclose(inst.xT[7:], np.zeros(7))
        h = 1.0 / 8.0
        np.testing.assert_allclose(inst.xT[:7], h * np.arange(1, 8))

    def test_weighting_matrices(self):
        fam = build_wave_family(n_y=3, T=1.0, steps_per_point=2)
        inst = fam.build([6.0])
        np.testing.assert_allclose(inst.M, 10.0 * np.eye(6))
        np.testing.assert_allclose(inst.R, [[0.1]])

    def test_linearity_in_speed(self):
        fam = build_wave_family(n_y=4, T=1.0, steps_per_point=2)
        a1 = fam.build([3.0]).A[4:, :4]
        a2 = fam.build([6.0]).A[4:, :4]
        np.testing.assert_allclose(a2, 2.0 * a1, rtol=1e-14)


class TestKalmanRank:
    @pytest.mark.parametrize("n_y", [2, 3, 4])
    def test_heat_controllable(self, n_y):
        inst = build_heat_family(n_y=n_y, T=0.1, steps_per_point=2).build([1.5, 1.0])
        blocks = [inst.B]
        for _ in range(inst.n - 1):
            blocks.append(inst.A @ blocks[-1])
        assert np.linalg.matrix_rank(np.hstack(blocks)) == inst.n

    @pytest.mark.parametrize("n_y", [2, 3, 4])
    def test_wave_controllable(self, n_y):
        inst = build_wave_family(n_y=n_y, T=1.0, steps_per_point=2).build([5.0])
        blocks = [inst.B]
        for _ in range(inst.n - 1):
            blocks.append(inst.A @ blocks[-1])
        assert np.linalg.matrix_rank(np.hstack(blocks)) == inst.n


class TestSampling:
    def test_grid_single_axis(self):
        dom = ParameterDomain(lows=[0.0], highs=[1.0])
        pts = sample_grid(dom, [3])
        np.testing.assert_allclose(np.array(pts).ravel(), [0.0, 0.5, 1.0])

    def test_grid_corners(self):
        dom = ParameterDomain(lows=[1.0, 0.5], highs=[2.0, 1.5])
        pts = sample_grid(dom, [2, 2])
        expected = [(1.0, 0.5), (1.0, 1.5), (2.0, 0.5), (2.0, 1.5)]
        np.testing.assert_allclose(np.array(pts), expected)

    def test_grid_heat_training_size(self):
        dom = ParameterDomain(lows=[1.0, 0.5], highs=[2.0, 1.5])
        assert len(sample_grid(dom, [8, 8])) == 64

    def test_random_empty(self):
        dom = ParameterDomain(lows=[3.0], highs=[10.0])
        assert sample_random(dom, 0, seed=1) == []

    def test_random_deterministic(self):
        dom = ParameterDomain(lows=[3.0], highs=[10.0])
        a = sample_random(dom, 10, seed=7)
        b = sample_random(dom, 10, seed=7)
        np.testing.assert_array_equal(np.array(a), np.array(b))

    def test_random_containment(self):
        dom = ParameterDomain(lows=[3.0], highs=[10.0])
        pts = np.array(sample_random(dom, 100, seed=3))
        assert np.all(pts >= 3.0) and np.all(pts <= 10.0)

    def test_random_respects_exclusions(self):
        dom = ParameterDomain(lows=[0.0], highs=[1.0])
        first = sample_random(dom, 5, seed=11)
        rest = sample_random(dom, 5, seed=11, exclude=first[:1])
        assert not any(np.array_equal(first[0], mu) for mu in rest)


class TestDomainValidation:
    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            ParameterDomain(lows=[1.0], highs=[1.0])

    def test_contains(self):
        dom = ParameterDomain(lows=[0.0, 0.0], highs=[1.0, 2.0])
        assert dom.contains([0.5, 1.0])
        assert not dom.contains([1.5, 1.0])


class TestPropagatorLayout:
    # the heap hands out 16-byte aligned blocks, so the start of an
    # unaligned propagator within a cache line changes from build to build
    @pytest.mark.parametrize("family", [build_heat_family(n_y=30), build_wave_family(n_y=20)],
                             ids=["heat", "wave"])
    def test_propagator_starts_on_a_cache_line(self, family):
        for mu in sample_random(family.domain, 8, seed=5):
            inst = family.build(mu)
            S, S_T = inst.step_propagator, inst.step_propagator.T
            assert S.ctypes.data % 64 == 0
            assert S.flags.f_contiguous and S.dtype == np.float64
            assert S_T.flags.c_contiguous and np.shares_memory(S, S_T)
            np.testing.assert_array_equal(S_T, S.T)

    @pytest.mark.parametrize("family", [build_heat_family(n_y=30), build_wave_family(n_y=20)],
                             ids=["heat", "wave"])
    def test_block_operands_start_on_a_cache_line(self, family):
        # a block steps with [S^T; G^T] forward and S in C order backward;
        # the propagator and the input map are column views of [S | G]
        for mu in sample_random(family.domain, 8, seed=5):
            inst = family.build(mu)
            n, m = inst.n, inst.m
            forward, backward = inst.step_operator.T, inst.block_propagator
            assert forward.shape == (n + m, n) and forward.flags.c_contiguous
            assert backward.shape == (n, n) and backward.flags.c_contiguous
            assert forward.ctypes.data % 64 == 0 and backward.ctypes.data % 64 == 0
            assert np.shares_memory(inst.step_operator, inst.step_propagator)
            assert np.shares_memory(inst.step_operator, inst.step_input_map)
            np.testing.assert_array_equal(inst.step_operator[:, :n], inst.step_propagator)
            np.testing.assert_array_equal(inst.step_operator[:, n:], inst.step_input_map)
            np.testing.assert_array_equal(backward, inst.step_propagator)
