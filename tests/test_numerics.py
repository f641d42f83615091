"""Numerical kernels: softmax/logsumexp stability, ridge repair, Newton ascent; the FD oracle."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotopics import numerics
from phenotopics.numerics import (
    NonFiniteError,
    _cholesky_solve,
    _log_normalize,
    _pd_inverse,
    maximize_concave,
    ridged_cholesky,
    softmax,
)

from .oracles import finite_difference_gradient


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), np.full(3, 1 / 3), atol=1e-15)

    def test_shifted_ratio(self):
        for c in (-500.0, 0.0, 3.7, 500.0):
            np.testing.assert_allclose(
                softmax([c, c + math.log(3)]), [0.25, 0.75], atol=1e-12
            )

    def test_extreme_values_do_not_overflow(self):
        out = softmax([1000.0, 0.0])
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)
        assert np.all(np.isfinite(out))

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(scale=50, size=rng.integers(1, 20))
            assert abs(softmax(v).sum() - 1.0) <= 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            softmax([np.nan, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=10),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, values, c):
        v = np.array(values)
        np.testing.assert_allclose(softmax(v + c), softmax(v), atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10))
    def test_argmax_preserved(self, values):
        # non-strict form: float underflow can merge near-ties, but the true
        # argmax entry always lands on the softmax maximum
        v = np.array(values)
        out = softmax(v)
        assert out[np.argmax(v)] == out.max()


def log_sum_exp(v) -> float:
    return float(_log_normalize(np.asarray(v, dtype=float))[1])


class TestLogSumExp:
    def test_pair_of_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-14)

    def test_single_element(self):
        assert log_sum_exp([-3.25]) == pytest.approx(-3.25, abs=0)

    def test_no_overflow(self):
        assert log_sum_exp([700.0, 700.0]) == pytest.approx(700 + math.log(2), abs=1e-12)

    def test_matches_naive_in_safe_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(size=5)
            assert log_sum_exp(v) == pytest.approx(np.log(np.exp(v).sum()), rel=1e-12)

    def test_matrix_normalizes_each_column(self):
        # a column far above the others would overflow a naive exp
        x = np.random.default_rng(3).normal(size=(7, 4))
        x[:, 2] += 800.0
        probs, lse = _log_normalize(x)
        assert probs.shape == x.shape and lse.shape == (4,)
        for j in range(4):
            np.testing.assert_allclose(probs[:, j], softmax(x[:, j]), rtol=1e-14)
            assert lse[j] == pytest.approx(log_sum_exp(x[:, j]), rel=1e-14)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, rtol=1e-14)


class TestFiniteDifferenceGradient:
    def test_quadratic(self):
        grad = finite_difference_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_logsumexp_gradient_is_softmax(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(size=6)
            grad = finite_difference_gradient(log_sum_exp, x, 1e-6)
            np.testing.assert_allclose(grad, _log_normalize(x)[0], atol=1e-6)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda x: 0.0, np.zeros(2), 0.0)


class TestRidgedCholesky:
    def test_pd_matrix_needs_no_ridge(self, rng):
        root = rng.normal(size=(5, 5))
        a = root @ root.T + np.eye(5)
        factor, ridge = ridged_cholesky(a)
        expected, _ = scipy.linalg.cho_factor(a, lower=True)
        assert ridge == 0.0
        np.testing.assert_array_equal(np.tril(factor), np.tril(expected))

    def test_indefinite_matrix_gets_smallest_ridge_on_the_ladder(self):
        a = np.diag([1.0, -0.5])
        factor, ridge = ridged_cholesky(a)
        # 0, 1e-8, ..., 0.1 all leave -0.5 + ridge <= 0; 1.0 is the first that works
        assert ridge == pytest.approx(1.0, rel=1e-12)
        factor = np.tril(factor)
        np.testing.assert_allclose(factor @ factor.T, a + ridge * np.eye(2), atol=1e-12)

    def test_factor_and_solve_match_scipy_bitwise_reading_only_the_lower_triangle(self, rng):
        # like a Newton Hessian, the matrix is not bitwise symmetric
        root = rng.normal(size=(6, 6))
        a = root @ root.T + np.eye(6)
        a[np.triu_indices(6, 1)] += rng.normal(scale=1e-3, size=15)
        b = rng.normal(size=6)
        factor, ridge = ridged_cholesky(a)
        expected = scipy.linalg.cho_factor(a, lower=True)
        assert ridge == 0.0
        np.testing.assert_array_equal(factor, expected[0])
        np.testing.assert_array_equal(_cholesky_solve(factor, b), scipy.linalg.cho_solve(expected, b))
        mirrored = np.tril(a) + np.tril(a, -1).T  # the lower triangle decides the factor
        np.testing.assert_array_equal(np.tril(factor), np.tril(ridged_cholesky(mirrored)[0]))

    def test_non_finite_entry_raises(self):
        with pytest.raises(NonFiniteError):
            ridged_cholesky(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @pytest.mark.parametrize("shape", [(0, 0), (3,), (2, 3), (2, 2, 2)])
    def test_non_square_or_empty_matrix_is_value_error(self, shape):
        with pytest.raises(ValueError, match="square"):
            ridged_cholesky(np.ones(shape))


class TestPdInverse:
    @pytest.mark.parametrize("k", [2, 6, 50])
    def test_matches_numpy_inverse_and_slogdet(self, rng, k):
        root = rng.normal(size=(k, k))
        a = root @ root.T / k + np.eye(k)
        inverse, logdet, ridge = _pd_inverse(a)
        assert ridge == 0.0
        np.testing.assert_array_equal(inverse, inverse.T)
        np.testing.assert_allclose(inverse, np.linalg.inv(a), rtol=1e-10, atol=1e-12)
        sign, expected_logdet = np.linalg.slogdet(a)
        assert sign == 1.0
        assert logdet == pytest.approx(expected_logdet, rel=1e-12, abs=1e-12)

    def test_reports_the_ridge_it_inverted_with(self):
        inverse, logdet, ridge = _pd_inverse(np.diag([1.0, -0.5]))
        assert ridge == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(inverse, np.diag([0.5, 2.0]), rtol=1e-12)
        assert logdet == pytest.approx(0.0, abs=1e-12)  # log det diag(2, 0.5)


def points(f, grad, hess):
    """``evaluate`` for :func:`maximize_concave` from value, gradient and Hessian functions."""
    return lambda x: SimpleNamespace(value=f(x), gradient=lambda: grad(x), hessian=lambda: hess(x))


class CountingObjective:
    """A fake objective that records, by position in ``points``, which of its
    evaluations the driver reads a gradient or Hessian from."""

    def __init__(self, f, grad, hess):
        self.f, self.grad, self.hess = f, grad, hess
        self.points, self.gradient_reads, self.hessian_reads = [], [], []

    def evaluate(self, x):
        x, index = np.array(x), len(self.points)

        def gradient():
            self.gradient_reads.append(index)
            return self.grad(x)

        def hessian():
            self.hessian_reads.append(index)
            return self.hess(x)

        point = SimpleNamespace(x=x, value=self.f(x), gradient=gradient, hessian=hessian)
        self.points.append(point)
        return point


class TestMaximizeConcave:
    def test_quadratic_one_step(self):
        a = np.array([2.0, -1.0, 0.5])
        result = maximize_concave(
            points(
                lambda x: -0.5 * float((x - a) @ (x - a)),
                lambda x: a - x,
                lambda x: -np.eye(3),
            ),
            np.zeros(3),
        )
        assert result.converged
        assert result.iterations == 1
        np.testing.assert_allclose(result.x, a, atol=1e-12)

    def test_random_concave_quadratics_recover_optimum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            root = rng.normal(size=(k, k))
            a = root @ root.T + np.eye(k)
            b = rng.normal(size=k)
            x_star = np.linalg.solve(a, b)
            result = maximize_concave(
                points(
                    lambda x: float(b @ x - 0.5 * x @ a @ x),
                    lambda x: b - a @ x,
                    lambda x: -a,
                ),
                rng.normal(size=k),
            )
            assert result.converged
            np.testing.assert_allclose(result.x, x_star, atol=1e-8)

    def test_gradient_norm_meets_tolerance(self, monkeypatch):
        monkeypatch.setattr(numerics, "NEWTON_GRAD_TOL", 1e-9)
        rng = np.random.default_rng(4)
        k = 5
        root = rng.normal(size=(k, k))
        a = root @ root.T + np.eye(k)
        b = rng.normal(size=k)
        result = maximize_concave(
            points(
                lambda x: float(b @ x - 0.5 * x @ a @ x),
                lambda x: b - a @ x,
                lambda x: -a,
            ),
            np.zeros(k),
        )
        assert np.abs(b - a @ result.x).max() <= 1e-9

    def test_non_concave_with_damping_still_ascends(self, monkeypatch):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 50)
        # cubic perturbations make the Hessian indefinite in places; every
        # accepted step must still increase the objective
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            a = rng.normal(size=k)
            c = rng.normal(size=k) * 1e-2

            def f(x):
                return float(-0.5 * (x - a) @ (x - a) + c @ x**3)

            def grad(x):
                return -(x - a) + 3 * c * x**2

            def hess(x):
                return -np.eye(k) + np.diag(6 * c * x)

            objective = CountingObjective(f, grad, hess)
            result = maximize_concave(objective.evaluate, np.zeros(k))
            # the driver reads the gradient at the start and at each accepted iterate
            trace = np.array([objective.points[i].value for i in objective.gradient_reads])
            assert np.all(np.diff(trace) > 0)
            assert result.status in ("converged", "max_iters", "line_search_failure")

    def test_reads_value_at_candidates_and_derivatives_at_iterates(self):
        # -x^2 / 2 with its curvature understated fourfold: the full step from
        # x = 1 lands on -3 and the half step on -1, neither higher, so the
        # quarter step reaches the optimum 0
        objective = CountingObjective(
            lambda x: -0.5 * float(x @ x), lambda x: -x, lambda x: -0.25 * np.eye(1)
        )
        result = maximize_concave(objective.evaluate, np.ones(1))
        assert result.status == "converged" and result.iterations == 1
        # one evaluate per point: the start and three candidates
        assert [float(p.x[0]) for p in objective.points] == [1.0, -3.0, -1.0, 0.0]
        assert objective.gradient_reads == [0, 3]  # the start and the accepted iterate
        assert objective.hessian_reads == [0]  # one per step taken
        assert result.point is objective.points[3]
        np.testing.assert_array_equal(result.point.x, result.x)

    def test_reads_one_more_hessian_at_max_iters(self, monkeypatch):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 3)
        monkeypatch.setattr(numerics, "NEWTON_GRAD_TOL", 1e-300)
        a = np.full(2, 10.0)
        objective = CountingObjective(
            lambda x: float(-np.sum(np.cosh(x - a))),
            lambda x: -np.sinh(x - a),
            lambda x: -np.diag(np.cosh(x - a)),
        )
        result = maximize_concave(objective.evaluate, np.zeros(2))
        assert result.status == "max_iters" and result.iterations == 3
        # every full step is accepted: the start and three iterates, no more
        assert len(objective.points) == 4
        assert objective.gradient_reads == [0, 1, 2, 3]
        assert objective.hessian_reads == [0, 1, 2, 3]  # three steps and the one left at x
        assert result.point is objective.points[3]
        np.testing.assert_array_equal(result.point.x, result.x)

    def test_converging_on_the_last_allowed_step_is_converged(self, monkeypatch):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 1)
        a = np.array([2.0, -1.0, 0.5])
        objective = CountingObjective(
            lambda x: -0.5 * float((x - a) @ (x - a)), lambda x: a - x, lambda x: -np.eye(3)
        )
        result = maximize_concave(objective.evaluate, np.zeros(3))
        assert result.status == "converged" and result.converged
        assert result.iterations == numerics.NEWTON_MAX_ITERS
        assert result.step_norm == 0.0
        assert objective.gradient_reads == [0, 1]
        assert objective.hessian_reads == [0]  # no step is computed at the optimum
        np.testing.assert_array_equal(result.x, a)

    def test_line_search_failure_counts_the_failed_attempt(self):
        # the gradient claims a rise to the right everywhere, so the step from
        # the maximizer x = 1 of -(x - 1)^2 finds no higher point at any length
        objective = CountingObjective(
            lambda x: -float((x[0] - 1.0) ** 2), lambda x: np.ones(1), lambda x: -np.eye(1)
        )
        result = maximize_concave(objective.evaluate, np.zeros(1))
        assert result.status == "line_search_failure" and not result.converged
        assert result.iterations == 2  # the accepted step and the failed attempt
        np.testing.assert_array_equal(result.x, [1.0])
        assert result.point is objective.points[1]
        assert result.step_norm == 1.0  # the step left at x
        assert objective.gradient_reads == [0, 1]
        assert objective.hessian_reads == [0, 1]

    def test_max_iters_returns_best_iterate_with_flag(self, monkeypatch):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 1)
        monkeypatch.setattr(numerics, "NEWTON_GRAD_TOL", 1e-300)
        a = np.full(3, 10.0)

        def f(x):
            return float(-np.sum(np.cosh(x - a)))

        def grad(x):
            return -np.sinh(x - a)

        def hess(x):
            return -np.diag(np.cosh(x - a))

        result = maximize_concave(points(f, grad, hess), np.zeros(3))
        assert not result.converged
        assert result.status == "max_iters"
        assert f(result.x) > f(np.zeros(3))
        # the step left at the returned iterate, -hess^-1 grad = tanh(a - x)
        assert result.step_norm == pytest.approx(np.abs(np.tanh(a - result.x)).max(), rel=1e-12)

    def test_non_finite_objective_raises(self):
        with pytest.raises(NonFiniteError):
            maximize_concave(
                points(lambda x: float("nan"), lambda x: -x, lambda x: -np.eye(2)),
                np.zeros(2),
            )
