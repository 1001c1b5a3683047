import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctrlrom.errors import ConvergenceError
from ctrlrom.numerics import (
    _TOL_MARGIN,
    InnerProduct,
    cg_solve,
    gram_schmidt_extend,
    svd_singular_values,
)


class TestInnerProduct:
    def test_orthogonal_vectors(self):
        ip = InnerProduct(weight=0.5)
        assert ip.dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_weighted_value(self):
        ip = InnerProduct(weight=0.5)
        assert ip.dot(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_unit_weight_matches_euclidean(self, rng):
        ip = InnerProduct(weight=1.0)
        x, y = rng.standard_normal(17), rng.standard_normal(17)
        assert ip.dot(x, y) == pytest.approx(float(x @ y), rel=1e-14)
        assert ip.norm(x) == pytest.approx(float(np.linalg.norm(x)), rel=1e-14)

    def test_dimension_mismatch(self):
        ip = InnerProduct(weight=1.0)
        with pytest.raises(ValueError):
            ip.dot(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("inf"), float("nan")],
                             ids=["zero", "negative", "inf", "nan"])
    def test_nonpositive_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="finite positive"):
            InnerProduct(weight=weight)


class TestCgSolve:
    def test_identity_operator_one_iteration(self, rng):
        ip = InnerProduct(weight=0.3)
        b = rng.standard_normal(8)
        x, iters, _ = cg_solve(lambda v: v, b, ip, tol=1e-12)
        assert iters == 1
        np.testing.assert_allclose(x, b, atol=1e-13)

    def test_diagonal_solve(self):
        ip = InnerProduct(weight=1.0)
        d = np.array([2.0, 4.0])
        x, _, _ = cg_solve(lambda v: d * v, np.array([2.0, 4.0]), ip, tol=1e-12)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_random_spd_matches_dense_solve(self, rng):
        # oracle: dense factorization of the same SPD matrix
        A = rng.standard_normal((6, 6))
        A = A @ A.T + 6 * np.eye(6)
        b = rng.standard_normal(6)
        expected = np.linalg.solve(A, b)
        ip = InnerProduct(weight=2.0)
        x, _, _ = cg_solve(lambda v: A @ v, b, ip, tol=1e-12)
        assert np.max(np.abs(x - expected)) < 1e-10

    def test_residual_criterion_in_weighted_norm(self, rng):
        A = rng.standard_normal((10, 10))
        A = A @ A.T + 10 * np.eye(10)
        b = rng.standard_normal(10)
        ip = InnerProduct(weight=0.01)
        tol = 1e-9
        x, _, _ = cg_solve(lambda v: A @ v, b, ip, tol=tol)
        assert ip.norm(b - A @ x) <= tol

    def test_stops_with_a_margin_below_tol(self, rng):
        # an iterate whose verified residual lies within 0.1 % below tol is
        # not returned: another evaluation of its residual could exceed tol.
        # The spectrum is clustered so that CG stops well before n steps.
        Q = rng.standard_normal((40, 40))
        A = np.eye(40) + 0.05 * (Q @ Q.T) / 40
        b = rng.standard_normal(40)
        ip = InnerProduct(weight=0.5)
        _, iters, res = cg_solve(lambda v: A @ v, b, ip, tol=1e-6)
        tol = res / (1 - 5e-4)
        _, close_iters, close_res = cg_solve(lambda v: A @ v, b, ip, tol=tol)
        assert close_res < res
        assert close_iters > iters

    def test_max_iter_error_carries_best_iterate(self, rng):
        A = rng.standard_normal((12, 12))
        A = A @ A.T + 0.1 * np.eye(12)
        b = rng.standard_normal(12)
        ip = InnerProduct(weight=1.0)
        with pytest.raises(ConvergenceError) as err:
            cg_solve(lambda v: A @ v, b, ip, tol=1e-15, max_iter=2)
        assert err.value.best_iterate.shape == (12,)
        assert err.value.residual_norm == pytest.approx(
            ip.norm(b - A @ err.value.best_iterate), rel=1e-6
        )


def reference_cg(apply, b, ip, tol=1e-12, max_iter=None):
    """``cg_solve`` as it was before it took a preconditioner, verbatim: the
    reference its ``precondition=None`` path must match bit for bit."""
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    target = tol * (1.0 - _TOL_MARGIN)
    x = np.zeros(n)
    best_x, best_res = x.copy(), np.inf
    iters = 0
    while True:
        r = b.copy() if iters == 0 else b - apply(x)
        res_norm = ip.norm(r)
        if res_norm < best_res:
            best_x, best_res = x.copy(), res_norm
        if res_norm <= target:
            return x, iters, res_norm
        if iters >= max_iter:
            raise ConvergenceError("max_iter", best_x, best_res, max_iter)
        p = r.copy()
        rs = ip.dot(r, r)
        while iters < max_iter:
            Ap = apply(p)
            iters += 1
            pAp = ip.dot(p, Ap)
            if pAp <= 0.0:
                raise ConvergenceError("p'Ap <= 0", best_x, best_res, iters)
            alpha = rs / pAp
            x = x + alpha * p
            r = r - alpha * Ap
            if ip.norm(r) <= target:
                break
            rs_new = ip.dot(r, r)
            p = r + (rs_new / rs) * p
            rs = rs_new


def outcome(solve, *args, **kwargs):
    """A solver's ``(x, iterations, residual)``, also when it raises
    ConvergenceError, with a flag telling which."""
    try:
        x, iters, res = solve(*args, **kwargs)
        return x, iters, res, False
    except ConvergenceError as err:
        return err.best_iterate, err.iterations, err.residual_norm, True


def spd_system(seed, n, log_cond):
    """A symmetric positive-definite matrix with condition number 10**log_cond
    and a right-hand side."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = (Q * np.logspace(0.0, log_cond, n)) @ Q.T
    return 0.5 * (A + A.T), rng.standard_normal(n)


def counting(A):
    """``v -> A v`` and the list its calls append to."""
    calls = []

    def apply(v):
        calls.append(1)
        return A @ v

    return apply, calls


class TestPreconditionedCg:
    @settings(max_examples=60, deadline=None)
    @example(seed=1, n=40, log_cond=6.0, weight=1.0, log_tol=-10.0)  # three restarts
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           log_cond=st.floats(0.0, 10.0), weight=st.floats(0.01, 10.0),
           log_tol=st.floats(-12.0, -4.0))
    def test_no_preconditioner_is_todays_cg_bitwise(self, seed, n, log_cond, weight, log_tol):
        # ill-conditioned systems at tight tolerances restart from the
        # recomputed residual; the apply counts compare those restarts too
        A, b = spd_system(seed, n, log_cond)
        ip, tol = InnerProduct(weight=weight), 10.0**log_tol
        apply, calls = counting(A)
        ref_apply, ref_calls = counting(A)
        x, iters, res, raised = outcome(cg_solve, apply, b, ip, tol=tol, precondition=None)
        ref_x, ref_iters, ref_res, ref_raised = outcome(reference_cg, ref_apply, b, ip, tol=tol)
        assert (raised, iters, res, len(calls)) == (ref_raised, ref_iters, ref_res, len(ref_calls))
        assert x.tobytes() == ref_x.tobytes()

    def test_reference_comparison_covers_restarts(self):
        # the property's explicit example converges after restarting
        A, b = spd_system(1, 40, 6.0)
        apply, calls = counting(A)
        _, iters, _ = cg_solve(apply, b, InnerProduct(weight=1.0), tol=1e-10)
        assert len(calls) - iters == 3

    def test_exact_inverse_converges_in_one_iteration(self):
        A, b = spd_system(3, 30, 8.0)
        ip = InnerProduct(weight=0.5)
        x, iters, res = cg_solve(lambda v: A @ v, b, ip, tol=1e-6,
                                 precondition=lambda r: np.linalg.solve(A, r))
        assert iters == 1
        assert res <= 1e-6
        assert ip.norm(b - A @ x) == res

    def test_indefinite_preconditioner_raises_with_best_iterate(self):
        # r'z <= 0 stops CG as p'Ap <= 0 does, with the best verified iterate
        A, b = spd_system(4, 12, 2.0)
        ip = InnerProduct(weight=2.0)
        calls = []

        def flips_sign(r):
            calls.append(1)
            return r if len(calls) < 3 else -r

        with pytest.raises(ConvergenceError) as err:
            cg_solve(lambda v: A @ v, b, ip, tol=1e-12, precondition=flips_sign)
        assert err.value.iterations == 2
        np.testing.assert_array_equal(err.value.best_iterate, np.zeros(12))
        assert err.value.residual_norm == ip.norm(b)


class TestGramSchmidt:
    def test_normalizes_first_vector(self):
        ip = InnerProduct(weight=1.0)
        v = gram_schmidt_extend([], np.array([3.0, 0.0]), ip)
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-14)

    def test_orthogonal_complement(self):
        ip = InnerProduct(weight=1.0)
        basis = [np.array([1.0, 0.0])]
        v = gram_schmidt_extend(basis, np.array([1.0, 1.0]), ip)
        np.testing.assert_allclose(v, [0.0, 1.0], atol=1e-14)

    def test_rejects_dependent_vector(self):
        ip = InnerProduct(weight=1.0)
        basis = [np.array([1.0, 0.0])]
        assert gram_schmidt_extend(basis, np.array([1.0, 1e-14]), ip) is None

    def test_orthonormality_property(self, rng):
        # repeated extension keeps all pairwise products within 1e-10 of delta_ij
        ip = InnerProduct(weight=0.05)
        basis = []
        for _ in range(12):
            v = gram_schmidt_extend(basis, rng.standard_normal(40), ip)
            assert v is not None
            basis.append(v)
        for i, phi in enumerate(basis):
            for j, psi in enumerate(basis):
                assert abs(ip.dot(phi, psi) - (1.0 if i == j else 0.0)) <= 1e-10


class TestSingularValues:
    def test_single_normalized_column(self):
        ip = InnerProduct(weight=0.25)
        v = np.array([2.0, 0.0, 0.0])  # ip.norm(v) = 1
        sigma = svd_singular_values([v], ip)
        np.testing.assert_allclose(sigma, [1.0], atol=1e-12)

    def test_orthonormal_pair(self, rng):
        ip = InnerProduct(weight=0.5)
        basis = []
        for _ in range(2):
            basis.append(gram_schmidt_extend(basis, rng.standard_normal(5), ip))
        sigma = svd_singular_values(basis, ip)
        np.testing.assert_allclose(sigma, [1.0, 1.0], atol=1e-10)

    def test_duplicated_column_is_rank_one(self, rng):
        ip = InnerProduct(weight=1.3)
        v = rng.standard_normal(6)
        sigma = svd_singular_values([v, v], ip)
        assert sigma[0] == pytest.approx(np.sqrt(2.0) * ip.norm(v), rel=1e-12)
        assert sigma[1] <= 1e-12

    def test_orthonormal_set_all_ones(self, rng):
        ip = InnerProduct(weight=0.01)
        basis = []
        for _ in range(8):
            basis.append(gram_schmidt_extend(basis, rng.standard_normal(30), ip))
        sigma = svd_singular_values(basis, ip)
        np.testing.assert_allclose(sigma, np.ones(8), atol=1e-10)
