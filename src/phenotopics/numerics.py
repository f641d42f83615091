"""Shared numerical kernels: stable softmax, damped Newton ascent, PD factor, repair and inverse."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs


class NonFiniteError(FloatingPointError):
    """An objective, gradient, or iterate stopped being finite."""


def _require_finite(v: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise NonFiniteError(f"non-finite {what}: {v!r}")
    return v


def _log_normalize(x):
    """Softmax and logsumexp along axis 0, from one max-shifted exponential.

    Returns ``(softmax(x), logsumexp(x))``; for a matrix both are per column.
    Never overflows. Private because the benchmark's tracer wraps every public
    function, which would add a span to each call on this hot path.
    """
    top = x.max(axis=0)
    e = np.exp(x - top)
    total = e.sum(axis=0)
    e /= total
    return e, top + np.log(total)


def softmax(v) -> np.ndarray:
    """Map a real vector onto the probability simplex via max-shifted exponentials.

    Invariant under adding a constant to every component; never overflows.
    """
    return _log_normalize(_require_finite(np.asarray(v, dtype=float), "softmax input"))[0]


# Damped Newton ascent in :func:`maximize_concave`: iteration budget, gradient
# sup-norm tolerance, and the backtracking line search's shrink factor and
# smallest step fraction.
NEWTON_MAX_ITERS = 100
NEWTON_GRAD_TOL = 1e-6
LINE_SEARCH_SHRINK = 0.5
LINE_SEARCH_MIN_STEP = 1e-12


@dataclass
class NewtonResult:
    x: np.ndarray
    point: object  # the objective's evaluation at x, as ``evaluate`` returned it
    iterations: int
    step_norm: float  # sup-norm of the Newton step left at x; 0 when converged
    status: str  # "converged" | "max_iters" | "line_search_failure"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def ridged_cholesky(matrix: np.ndarray):
    """Cholesky factor of ``matrix + ridge * I`` with the smallest ridge that works.

    The one positive-definite repair: tries ridge 0, then 1e-8, 1e-7, ...
    (times 10 per rung) up to 1e8 * max(1, max|matrix|), each rung one LAPACK
    ``potrf`` whose status code says whether it worked. Reads only the lower
    triangle of ``matrix`` and returns the lower factor (its upper triangle
    still holds the input's) and the ridge used.

    Raises
    ------
    NonFiniteError
        If ``matrix`` holds a non-finite entry or no ridge on the ladder helps.
    ValueError
        If ``matrix`` is not a non-empty square matrix.
    """
    matrix = _require_finite(np.asarray(matrix, dtype=float), "matrix to factor")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
        raise ValueError(f"expected a non-empty square matrix, got shape {matrix.shape}")
    # with the shape checked, a nonzero info can only mean "not positive definite"
    factor, info = dpotrf(matrix, lower=1, clean=0)
    if not info:
        return factor, 0.0
    limit = 1e8 * max(1.0, float(np.abs(matrix).max()))
    ridge = 1e-8
    while ridge <= limit:
        factor, info = dpotrf(matrix + ridge * np.eye(matrix.shape[0]), lower=1, clean=0)
        if not info:
            return factor, ridge
        ridge *= 10.0
    raise NonFiniteError("ridge repair diverged; the matrix is likely non-finite")


def _cholesky_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b from A's :func:`ridged_cholesky` factor (LAPACK potrs)."""
    x, info = dpotrs(factor, b, lower=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    return x


def _pd_inverse(matrix: np.ndarray):
    """Inverse and log determinant of ``matrix + ridge * I``, and the ridge.

    The one inverse with its log determinant, from one :func:`ridged_cholesky`
    factor; the inverse is made exactly symmetric. Private, as
    :func:`_log_normalize` is, so the tracer adds no span per record.
    """
    factor, ridge = ridged_cholesky(matrix)
    inverse = _cholesky_solve(factor, np.eye(factor.shape[0]))
    logdet = 2.0 * float(np.log(np.diag(factor)).sum())
    return 0.5 * (inverse + inverse.T), logdet, ridge


def maximize_concave(evaluate, x0) -> NewtonResult:
    """Damped Newton ascent with backtracking line search.

    ``evaluate(x)`` returns the objective's evaluation at ``x``: an object
    with a float ``value`` and methods ``gradient()`` and ``hessian()``. The
    driver calls it once per point, reads only ``value`` at a line-search
    candidate, ``gradient()`` at the start and at each accepted iterate, and
    ``hessian()`` only where it takes a step (or reports the step left), so
    an objective can defer what only an accepted iterate needs.

    The objective need not be concave: where the Hessian is not negative
    definite, the step solves the system ridged by :func:`ridged_cholesky`,
    which still gives an ascent direction. Each iterate reads its gradient
    once and makes three tests, in this order:

    1. a gradient sup-norm at most ``NEWTON_GRAD_TOL`` stops with status
       ``converged``;
    2. otherwise the Newton step is computed, and after ``NEWTON_MAX_ITERS``
       iterations the driver stops with status ``max_iters``;
    3. otherwise the iteration counts and the line search halves the step
       (``LINE_SEARCH_SHRINK``) down to ``LINE_SEARCH_MIN_STEP``. Every
       accepted step strictly increases the value; where none does in
       floating point, the driver stops with status ``line_search_failure``,
       and the failed attempt counts in ``iterations``.

    The result holds the last accepted iterate and its evaluation as
    ``point``. ``step_norm`` is the sup-norm of the Newton step left at that
    iterate (0 when converged), an estimate of its distance to a stationary
    point.

    Raises
    ------
    NonFiniteError
        If the objective or gradient is non-finite at an accepted iterate.
    """
    x = np.array(x0, dtype=float)
    point = evaluate(x)
    fx = float(point.value)
    if not np.isfinite(fx):
        raise NonFiniteError(f"non-finite objective at start: f({x!r}) = {fx!r}")
    iterations = 0
    while True:
        g = np.asarray(point.gradient(), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient at iterate {x!r}")
        if float(np.abs(g).max()) <= NEWTON_GRAD_TOL:
            status = "converged"
            break
        factor, _ = ridged_cholesky(-np.asarray(point.hessian(), dtype=float))
        step = _cholesky_solve(factor, g)
        if iterations >= NEWTON_MAX_ITERS:
            status = "max_iters"
            break
        iterations += 1
        t = 1.0
        while t >= LINE_SEARCH_MIN_STEP:
            x_new = x + t * step
            candidate = evaluate(x_new)
            f_new = float(candidate.value)
            if np.isfinite(f_new) and f_new > fx:
                break
            t *= LINE_SEARCH_SHRINK
        else:
            status = "line_search_failure"
            break
        x, fx, point = x_new, f_new, candidate
    step_norm = 0.0 if status == "converged" else float(np.abs(step).max())
    return NewtonResult(x=x, point=point, iterations=iterations, step_norm=step_norm, status=status)
