"""Numerical kernels: softmax/logsumexp stability, Newton ascent; the FD oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotopics.numerics import (
    NewtonConfig,
    NonFiniteError,
    log_sum_exp,
    maximize_concave,
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


class TestFiniteDifferenceGradient:
    def test_quadratic(self):
        grad = finite_difference_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_logsumexp_gradient_is_softmax(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(size=6)
            grad = finite_difference_gradient(log_sum_exp, x, 1e-6)
            np.testing.assert_allclose(grad, softmax(x), atol=1e-6)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda x: 0.0, np.zeros(2), 0.0)


class TestNewtonConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(max_iters=0)
        with pytest.raises(ValueError):
            NewtonConfig(grad_tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(step_shrink=1.0)


class TestMaximizeConcave:
    def test_quadratic_one_step(self):
        a = np.array([2.0, -1.0, 0.5])
        result = maximize_concave(
            lambda x: -0.5 * float((x - a) @ (x - a)),
            lambda x: a - x,
            lambda x: -np.eye(3),
            np.zeros(3),
        )
        assert result.converged
        assert result.iterations == 1
        np.testing.assert_allclose(result.x, a, atol=1e-12)
        np.testing.assert_allclose(result.hessian, -np.eye(3), atol=0)

    def test_random_concave_quadratics_recover_optimum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            root = rng.normal(size=(k, k))
            a = root @ root.T + np.eye(k)
            b = rng.normal(size=k)
            x_star = np.linalg.solve(a, b)
            result = maximize_concave(
                lambda x: float(b @ x - 0.5 * x @ a @ x),
                lambda x: b - a @ x,
                lambda x: -a,
                rng.normal(size=k),
            )
            assert result.converged
            np.testing.assert_allclose(result.x, x_star, atol=1e-8)

    def test_gradient_norm_meets_tolerance(self):
        rng = np.random.default_rng(4)
        k = 5
        root = rng.normal(size=(k, k))
        a = root @ root.T + np.eye(k)
        b = rng.normal(size=k)
        cfg = NewtonConfig(grad_tol=1e-9)
        result = maximize_concave(
            lambda x: float(b @ x - 0.5 * x @ a @ x),
            lambda x: b - a @ x,
            lambda x: -a,
            np.zeros(k),
            cfg,
        )
        assert result.grad_norm <= 1e-9

    def test_non_concave_with_damping_still_ascends(self):
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

            result = maximize_concave(f, grad, hess, np.zeros(k), NewtonConfig(max_iters=50))
            trace = np.array(result.objective_trace)
            assert np.all(np.diff(trace) > 0)
            assert result.status in ("converged", "max_iters", "line_search_failure")

    def test_max_iters_returns_best_iterate_with_flag(self):
        a = np.full(3, 10.0)
        cfg = NewtonConfig(max_iters=1, grad_tol=1e-300)
        result = maximize_concave(
            lambda x: -0.5 * float((x - a) @ (x - a)),
            lambda x: a - x,
            lambda x: -np.eye(3),
            np.zeros(3),
            cfg,
        )
        # quadratic converges in one step anyway; force a harder case
        def f(x):
            return float(-np.sum(np.cosh(x - a)))

        def grad(x):
            return -np.sinh(x - a)

        def hess(x):
            return -np.diag(np.cosh(x - a))

        result = maximize_concave(f, grad, hess, np.zeros(3), cfg)
        assert not result.converged
        assert result.status == "max_iters"
        assert f(result.x) > f(np.zeros(3))
        # the step left at the returned iterate, -hess^-1 grad = tanh(a - x)
        assert result.step_norm == pytest.approx(np.abs(np.tanh(a - result.x)).max(), rel=1e-12)

    def test_non_finite_objective_raises(self):
        with pytest.raises(NonFiniteError):
            maximize_concave(
                lambda x: float("nan"),
                lambda x: -x,
                lambda x: -np.eye(2),
                np.zeros(2),
            )
