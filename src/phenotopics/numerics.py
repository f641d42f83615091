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


# Damped Newton ascent in :func:`newton_ascent`: iteration budget, gradient
# sup-norm tolerance, and the backtracking line search's shrink factor and
# smallest step fraction.
NEWTON_MAX_ITERS = 100
NEWTON_GRAD_TOL = 1e-6
LINE_SEARCH_SHRINK = 0.5
LINE_SEARCH_MIN_STEP = 1e-12


@dataclass
class NewtonResult:
    """Per row of the start: where the ascent stopped and why."""

    x: np.ndarray  # (R, K): the last accepted iterate of each row
    point: object  # the objective's evaluation at x, row for row
    iterations: np.ndarray  # (R,) ints
    step_norm: np.ndarray  # (R,): sup-norm of the Newton step left at x; 0 when converged
    status: list  # per row: "converged" | "max_iters" | "line_search_failure"


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
    return _ridged_factor(matrix)


def _ridged_factor(matrix: np.ndarray):
    """:func:`ridged_cholesky`'s ladder, on a matrix already known to be finite,
    square and non-empty."""
    # with the shape checked, a nonzero info can only mean "not positive definite"
    factor, info = dpotrf(matrix, lower=1, clean=0)
    if not info:
        return factor, 0.0
    limit = 1e8 * max(1.0, float(np.abs(matrix).max()))
    identity = np.eye(matrix.shape[0])
    ridge = 1e-8
    while ridge <= limit:
        factor, info = dpotrf(matrix + ridge * identity, lower=1, clean=0)
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


def newton_ascent(evaluate, x0, start=None) -> NewtonResult:
    """Damped Newton ascent with backtracking line search, on every row of x0 at once.

    Each row of ``x0`` (shape (R, K)) starts an independent ascent; the rows
    move in lockstep, and a row leaves the block as soon as it stops.
    ``evaluate(rows, x)`` returns the objective's evaluation at ``x[i]`` for
    row ``rows[i]``: an object with a float array ``value``, methods
    ``gradient()`` (n, K) and ``hessian()`` (n, K, K), ``take(selection)``
    for a subset of its rows and a classmethod ``concat(evaluations)``.
    ``start``, if given, is that evaluation at ``x0`` for rows 0..R-1, made
    by the caller (a warm-up that ends at ``x0``, say), and the driver does
    not make it again. The driver evaluates each point once. It reads only
    ``value`` at a line-search candidate, ``gradient()`` at the start and at
    each accepted iterate, and ``hessian()`` only where it takes a step (or
    reports the step left), so an objective can defer what only an accepted
    iterate needs.

    The objective need not be concave: where a row's Hessian is not negative
    definite, its step solves the system ridged by :func:`ridged_cholesky`
    (one factorization per row, the ladder's exact output), which still
    gives an ascent direction. Each iterate reads its gradient once and makes
    three tests, in this order:

    1. a gradient sup-norm at most ``NEWTON_GRAD_TOL`` stops the row with
       status ``converged``;
    2. otherwise the row's Newton step is computed, and after
       ``NEWTON_MAX_ITERS`` iterations the row stops with status
       ``max_iters``;
    3. otherwise the iteration counts and the line search halves the row's
       own step (``LINE_SEARCH_SHRINK``) down to ``LINE_SEARCH_MIN_STEP``.
       Every accepted step strictly increases the row's value; where none
       does in floating point, the row stops with status
       ``line_search_failure``, and the failed attempt counts in its
       ``iterations``.

    The result holds each row's last accepted iterate and, as ``point``, the
    evaluation there, row for row. ``step_norm`` is the sup-norm of the
    Newton step left at that iterate (0 when converged), an estimate of its
    distance to a stationary point.

    Raises
    ------
    NonFiniteError
        If the objective is non-finite at a start, or a gradient or Hessian
        at an accepted iterate.
    """
    x = np.array(x0, dtype=float)
    active = np.arange(x.shape[0])
    point = evaluate(active, x) if start is None else start
    fx = np.array(point.value, dtype=float)
    if not np.isfinite(fx).all():
        raise NonFiniteError(f"non-finite objective at start: f({x!r}) = {fx!r}")
    iterations = np.zeros(x.shape[0], dtype=int)
    step_norm = np.zeros(x.shape[0])
    status = [""] * x.shape[0]
    stopped = []  # (rows, evaluation at their iterates) of every row that stopped
    while active.size:
        g = point.gradient()
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient at iterates {x[active]!r}")
        met = np.abs(g).max(axis=1) <= NEWTON_GRAD_TOL
        if met.any():
            step_norm[active[met]] = 0.0
            _stop(stopped, status, active, point, met, "converged")
            active, point, g = active[~met], point.take(~met), g[~met]
            if not active.size:
                break
        # one finiteness check for the block, then each row's own ladder
        negated = _require_finite(-point.hessian(), "Hessian")
        step = np.array([
            _cholesky_solve(_ridged_factor(h)[0], gradient) for h, gradient in zip(negated, g)
        ])
        step_norm[active] = np.abs(step).max(axis=1)
        capped = iterations[active] >= NEWTON_MAX_ITERS
        if capped.any():
            _stop(stopped, status, active, point, capped, "max_iters")
            active, point, step = active[~capped], point.take(~capped), step[~capped]
        iterations[active] += 1
        accepted = []  # (rows, candidate evaluation) per line-search round
        rows, t = active, 1.0  # the rows still searching, and their step fraction
        while rows.size and t >= LINE_SEARCH_MIN_STEP:
            x_new = x[rows] + t * step
            candidate = evaluate(rows, x_new)
            up = np.isfinite(candidate.value) & (candidate.value > fx[rows])
            if up.any():
                x[rows[up]], fx[rows[up]] = x_new[up], candidate.value[up]
                accepted.append((rows[up], candidate if up.all() else candidate.take(up)))
                rows, step = rows[~up], step[~up]
            t *= LINE_SEARCH_SHRINK
        if rows.size:
            _stop(stopped, status, active, point, np.isin(active, rows), "line_search_failure")
        if accepted:
            active = np.concatenate([rows for rows, _ in accepted])
            point = type(point).concat([evaluation for _, evaluation in accepted])
        else:
            active = active[:0]
    if stopped:  # else x0 has no rows, and neither has ``point``
        rows = np.concatenate([rows for rows, _ in stopped])
        point = type(point).concat([evaluation for _, evaluation in stopped])
        point = point.take(np.argsort(rows))
    return NewtonResult(
        x=x, point=point, iterations=iterations, step_norm=step_norm, status=status
    )


def _stop(stopped, status, active, point, mask, why):
    """Record the rows of ``active`` under ``mask`` as stopped for reason ``why``."""
    for row in active[mask]:
        status[row] = why
    stopped.append((active[mask], point.take(mask)))
