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
    converged: bool
    iterations: int
    step_norm: float  # sup-norm of the Newton step left at x; 0 when converged
    status: str  # "converged" | "max_iters" | "line_search_failure"


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
    which still gives an ascent direction. Stops when the sup-norm of the
    gradient drops to ``NEWTON_GRAD_TOL`` or after ``NEWTON_MAX_ITERS``
    iterations; the line search halves the step (``LINE_SEARCH_SHRINK``)
    down to ``LINE_SEARCH_MIN_STEP``. Every accepted step strictly increases
    the value, so the method also terminates (status ``line_search_failure``)
    where it can no longer improve it in floating point, returning the best
    iterate seen and its evaluation as ``point``. ``step_norm`` is the
    sup-norm of the (damped) Newton step left at that iterate, an estimate of
    its distance to a stationary point.

    Raises
    ------
    NonFiniteError
        If the objective or gradient is non-finite at an accepted iterate.
    """

    def finite_gradient(point, x):
        g = np.asarray(point.gradient(), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient at iterate {x!r}")
        return g

    def newton_step(point, g):
        factor, _ = ridged_cholesky(-np.asarray(point.hessian(), dtype=float))
        return _cholesky_solve(factor, g)

    x = np.array(x0, dtype=float)
    point = evaluate(x)
    fx = float(point.value)
    if not np.isfinite(fx):
        raise NonFiniteError(f"non-finite objective at start: f({x!r}) = {fx!r}")
    converged = False
    status = "max_iters"
    iterations = 0
    g = finite_gradient(point, x)

    for iterations in range(1, NEWTON_MAX_ITERS + 1):
        gnorm = float(np.abs(g).max())
        if gnorm <= NEWTON_GRAD_TOL:
            converged = True
            status = "converged"
            iterations -= 1
            break
        step = newton_step(point, g)

        t = 1.0
        accepted = False
        while t >= LINE_SEARCH_MIN_STEP:
            x_new = x + t * step
            candidate = evaluate(x_new)
            f_new = float(candidate.value)
            if np.isfinite(f_new) and f_new > fx:
                accepted = True
                break
            t *= LINE_SEARCH_SHRINK
        if not accepted:
            status = "line_search_failure"
            break

        x, fx, point = x_new, f_new, candidate
        g = finite_gradient(point, x)

    gnorm = float(np.abs(g).max())
    if gnorm <= NEWTON_GRAD_TOL:
        converged = True
        status = "converged"
    if status == "max_iters":  # the last step computed was taken; x needs its own
        step = newton_step(point, g)
    return NewtonResult(
        x=x,
        point=point,
        converged=converged,
        iterations=iterations,
        step_norm=0.0 if converged else float(np.abs(step).max()),
        status=status,
    )
