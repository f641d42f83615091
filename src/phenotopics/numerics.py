"""Shared numerical kernels: stable softmax, damped Newton ascent, PD factor and repair."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg


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
    converged: bool
    iterations: int
    step_norm: float  # sup-norm of the Newton step left at x; 0 when converged
    status: str  # "converged" | "max_iters" | "line_search_failure"
    objective_trace: list = field(default_factory=list)


def ridged_cholesky(matrix: np.ndarray):
    """Cholesky factor of ``matrix + ridge * I`` with the smallest ridge that works.

    The one positive-definite repair: tries ridge 0, then 1e-8, 1e-7, ...
    (times 10 per rung) up to 1e8 * max(1, max|matrix|). Returns the
    ``scipy.linalg.cho_factor`` pair (lower triangle) and the ridge used.

    Raises
    ------
    NonFiniteError
        If ``matrix`` holds a non-finite entry or no ridge on the ladder helps.
    """
    matrix = _require_finite(np.asarray(matrix, dtype=float), "matrix to factor")
    ridge = 0.0
    limit = 1e8 * max(1.0, float(np.abs(matrix).max()))
    while True:
        shifted = matrix + ridge * np.eye(matrix.shape[0]) if ridge else matrix
        try:
            return scipy.linalg.cho_factor(shifted, lower=True, check_finite=False), ridge
        except scipy.linalg.LinAlgError:
            ridge = 1e-8 if ridge == 0.0 else ridge * 10.0
            if ridge > limit:
                raise NonFiniteError("ridge repair diverged; the matrix is likely non-finite")


def maximize_concave(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    hess: Callable[[np.ndarray], np.ndarray],
    x0,
) -> NewtonResult:
    """Damped Newton ascent with backtracking line search.

    The objective need not be concave: where the Hessian is not negative
    definite, the step solves the system ridged by :func:`ridged_cholesky`,
    which still gives an ascent direction. Stops when the sup-norm of the
    gradient drops to ``NEWTON_GRAD_TOL`` or after ``NEWTON_MAX_ITERS``
    iterations; the line search halves the step (``LINE_SEARCH_SHRINK``)
    down to ``LINE_SEARCH_MIN_STEP``. Every accepted step strictly increases
    ``f``, so the method also terminates (status ``line_search_failure``)
    where it can no longer improve ``f`` in floating point, returning the
    best iterate seen. ``step_norm`` is the sup-norm of the (damped) Newton
    step left at that iterate, an estimate of its distance to a stationary
    point.

    Raises
    ------
    NonFiniteError
        If the objective or gradient is non-finite at an accepted iterate.
    """

    def newton_step(x, g):
        chol, _ = ridged_cholesky(-np.asarray(hess(x), dtype=float))
        return scipy.linalg.cho_solve(chol, g)

    x = np.array(x0, dtype=float)
    fx = float(f(x))
    if not np.isfinite(fx):
        raise NonFiniteError(f"non-finite objective at start: f({x!r}) = {fx!r}")
    trace = [fx]
    converged = False
    status = "max_iters"
    iterations = 0
    g = np.asarray(grad(x), dtype=float)
    if not np.all(np.isfinite(g)):
        raise NonFiniteError(f"non-finite gradient at iterate {x!r}")

    for iterations in range(1, NEWTON_MAX_ITERS + 1):
        gnorm = float(np.abs(g).max())
        if gnorm <= NEWTON_GRAD_TOL:
            converged = True
            status = "converged"
            iterations -= 1
            break
        step = newton_step(x, g)

        t = 1.0
        accepted = False
        while t >= LINE_SEARCH_MIN_STEP:
            x_new = x + t * step
            f_new = float(f(x_new))
            if np.isfinite(f_new) and f_new > fx:
                accepted = True
                break
            t *= LINE_SEARCH_SHRINK
        if not accepted:
            status = "line_search_failure"
            break

        x, fx = x_new, f_new
        trace.append(fx)
        g = np.asarray(grad(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient at iterate {x!r}")

    gnorm = float(np.abs(g).max())
    if gnorm <= NEWTON_GRAD_TOL:
        converged = True
        status = "converged"
    if status == "max_iters":  # the last step computed was taken; x needs its own
        step = newton_step(x, g)
    return NewtonResult(
        x=x,
        converged=converged,
        iterations=iterations,
        step_norm=0.0 if converged else float(np.abs(step).max()),
        status=status,
        objective_trace=trace,
    )
