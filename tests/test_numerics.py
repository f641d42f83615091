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


class CountingObjective:
    """A fake block objective for :func:`maximize_concave` from value, gradient
    and Hessian functions of (row, x). It numbers every point it evaluates and
    records, by that number, the points whose gradient or Hessian the driver
    reads."""

    def __init__(self, f, grad, hess):
        self.f, self.grad, self.hess = f, grad, hess
        self.points, self.gradient_reads, self.hessian_reads = [], [], []

    def evaluate(self, rows, x):
        first = len(self.points)
        for row, xi in zip(np.asarray(rows).tolist(), np.array(x)):
            self.points.append(SimpleNamespace(row=row, x=xi, value=self.f(row, xi)))
        return Points(self, np.arange(first, len(self.points)))


class Points:
    """The evaluation :class:`CountingObjective` returns: some of its points, in order."""

    def __init__(self, objective, ids):
        self.objective, self.ids = objective, ids
        self.value = np.array([objective.points[i].value for i in ids], dtype=float)

    def _read(self, fn, log):
        log += self.ids.tolist()
        return np.array([fn(self.objective.points[i].row, self.objective.points[i].x)
                         for i in self.ids])

    def gradient(self):
        return self._read(self.objective.grad, self.objective.gradient_reads)

    def hessian(self):
        return self._read(self.objective.hess, self.objective.hessian_reads)

    def take(self, selection):
        return Points(self.objective, self.ids[selection])

    @classmethod
    def concat(cls, evaluations):
        return cls(evaluations[0].objective, np.concatenate([e.ids for e in evaluations]))


def points(f, grad, hess):
    """``evaluate`` for :func:`maximize_concave` from value, gradient and Hessian functions of x,
    the same for every row."""
    return CountingObjective(
        lambda row, x: f(x), lambda row, x: grad(x), lambda row, x: hess(x)
    ).evaluate


class TestMaximizeConcave:
    def test_quadratic_one_step(self):
        a = np.array([2.0, -1.0, 0.5])
        result = maximize_concave(
            points(
                lambda x: -0.5 * float((x - a) @ (x - a)),
                lambda x: a - x,
                lambda x: -np.eye(3),
            ),
            np.zeros((1, 3)),
        )
        assert result.converged.tolist() == [True]
        assert result.iterations.tolist() == [1]
        np.testing.assert_allclose(result.x[0], a, atol=1e-12)

    def test_random_concave_quadratics_recover_optimum(self):
        # every row of a block climbs to the optimum from its own start
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
                rng.normal(size=(3, k)),
            )
            assert result.converged.all()
            np.testing.assert_allclose(result.x, np.tile(x_star, (3, 1)), atol=1e-8)

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
            np.vstack([np.zeros(k), rng.normal(scale=10.0, size=(2, k))]),
        )
        assert np.abs(b - result.x @ a).max() <= 1e-9

    def test_non_concave_with_damping_still_ascends(self, monkeypatch):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 50)
        # cubic perturbations make the Hessian indefinite in places; every
        # accepted step of every row must still increase its objective
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            a = rng.normal(size=(3, k))
            c = rng.normal(size=(3, k)) * 1e-2

            def f(row, x):
                return float(-0.5 * (x - a[row]) @ (x - a[row]) + c[row] @ x**3)

            def grad(row, x):
                return -(x - a[row]) + 3 * c[row] * x**2

            def hess(row, x):
                return -np.eye(k) + np.diag(6 * c[row] * x)

            objective = CountingObjective(f, grad, hess)
            result = maximize_concave(objective.evaluate, np.zeros((3, k)))
            # the driver reads the gradient at the start and at each accepted iterate
            for row in range(3):
                trace = [objective.points[i].value for i in objective.gradient_reads
                         if objective.points[i].row == row]
                assert np.all(np.diff(trace) > 0)
            assert set(result.status) <= {"converged", "max_iters", "line_search_failure"}

    def test_reads_value_at_candidates_and_derivatives_at_iterates(self):
        # -x^2 / 2 from x = 1 in both rows. Row 0 sees its curvature
        # understated fourfold: the full step lands on -3 and the half step on
        # -1, neither higher, so the quarter step reaches the optimum 0. Row 1
        # sees the true curvature and takes the full step. Each row keeps its
        # own step size.
        objective = CountingObjective(
            lambda row, x: -0.5 * float(x @ x),
            lambda row, x: -x,
            lambda row, x: -(0.25 if row == 0 else 1.0) * np.eye(1),
        )
        result = maximize_concave(objective.evaluate, np.ones((2, 1)))
        assert result.status == ["converged", "converged"]
        assert result.iterations.tolist() == [1, 1]
        # one evaluate per point: two starts, then the candidates of each round
        assert [(p.row, float(p.x[0])) for p in objective.points] == [
            (0, 1.0), (1, 1.0), (0, -3.0), (1, 0.0), (0, -1.0), (0, 0.0)
        ]
        assert objective.gradient_reads == [0, 1, 3, 5]  # the starts and the accepted iterates
        assert objective.hessian_reads == [0, 1]  # one per step taken
        assert result.point.ids.tolist() == [5, 3]  # row for row
        np.testing.assert_array_equal(result.x, [[0.0], [0.0]])

    def test_reads_one_more_hessian_at_max_iters(self, monkeypatch):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 3)
        monkeypatch.setattr(numerics, "NEWTON_GRAD_TOL", 1e-300)
        a = np.full(2, 10.0)
        objective = CountingObjective(
            lambda row, x: float(-np.sum(np.cosh(x - a))),
            lambda row, x: -np.sinh(x - a),
            lambda row, x: -np.diag(np.cosh(x - a)),
        )
        result = maximize_concave(objective.evaluate, np.zeros((1, 2)))
        assert result.status == ["max_iters"] and result.iterations.tolist() == [3]
        # every full step is accepted: the start and three iterates, no more
        assert len(objective.points) == 4
        assert objective.gradient_reads == [0, 1, 2, 3]
        assert objective.hessian_reads == [0, 1, 2, 3]  # three steps and the one left at x
        assert result.point.ids.tolist() == [3]
        np.testing.assert_array_equal(objective.points[3].x, result.x[0])

    def test_converging_on_the_last_allowed_step_is_converged(self, monkeypatch):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 1)
        a = np.array([2.0, -1.0, 0.5])
        objective = CountingObjective(
            lambda row, x: -0.5 * float((x - a) @ (x - a)),
            lambda row, x: a - x,
            lambda row, x: -np.eye(3),
        )
        result = maximize_concave(objective.evaluate, np.zeros((1, 3)))
        assert result.status == ["converged"] and result.converged.tolist() == [True]
        assert result.iterations.tolist() == [numerics.NEWTON_MAX_ITERS]
        assert result.step_norm.tolist() == [0.0]
        assert objective.gradient_reads == [0, 1]
        assert objective.hessian_reads == [0]  # no step is computed at the optimum
        np.testing.assert_array_equal(result.x[0], a)

    def test_line_search_failure_counts_the_failed_attempt(self):
        # row 0's gradient claims a rise to the right everywhere, so the step
        # from the maximizer x = 1 of -(x - 1)^2 finds no higher point at any
        # length; row 1 is an honest -(x - 1)^2 / 2 and converges beside it
        objective = CountingObjective(
            lambda row, x: -float((x[0] - 1.0) ** 2) / (1 + row),
            lambda row, x: np.ones(1) if row == 0 else 1.0 - x,
            lambda row, x: -np.eye(1),
        )
        result = maximize_concave(objective.evaluate, np.zeros((2, 1)))
        assert result.status == ["line_search_failure", "converged"]
        assert result.converged.tolist() == [False, True]
        # row 0 counts the accepted step and the failed attempt
        assert result.iterations.tolist() == [2, 1]
        np.testing.assert_array_equal(result.x, [[1.0], [1.0]])
        assert result.point.ids.tolist() == [2, 3]
        assert result.step_norm.tolist() == [1.0, 0.0]  # the step left at x
        # row 0 reads at points 0 and 2; row 1 at 1 and 3, then leaves the block
        assert objective.gradient_reads == [0, 1, 2, 3]
        assert objective.hessian_reads == [0, 1, 2]

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

        result = maximize_concave(points(f, grad, hess), np.zeros((1, 3)))
        assert result.converged.tolist() == [False]
        assert result.status == ["max_iters"]
        assert f(result.x[0]) > f(np.zeros(3))
        # the step left at the returned iterate, -hess^-1 grad = tanh(a - x)
        left = np.abs(np.tanh(a - result.x[0])).max()
        assert result.step_norm[0] == pytest.approx(left, rel=1e-12)

    def test_non_finite_objective_raises(self):
        with pytest.raises(NonFiniteError):
            maximize_concave(
                points(lambda x: float("nan") if x[0] else 0.0, lambda x: -x, lambda x: -np.eye(2)),
                np.array([[0.0, 0.0], [1.0, 0.0]]),
            )
