"""Shared numerical kernels: stable softmax, damped Newton ascent, PD check."""

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


def softmax(v) -> np.ndarray:
    """Map a real vector onto the probability simplex via max-shifted exponentials.

    Invariant under adding a constant to every component; never overflows.
    """
    v = _require_finite(np.asarray(v, dtype=float), "softmax input")
    shifted = np.exp(v - v.max())
    return shifted / shifted.sum()


def log_sum_exp(v) -> float:
    """Overflow-safe log(sum(exp(v)))."""
    v = _require_finite(np.asarray(v, dtype=float), "log_sum_exp input")
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


def is_positive_definite(matrix: np.ndarray) -> bool:
    """True when ``matrix`` has a Cholesky factor (symmetric positive definite)."""
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False


@dataclass(frozen=True)
class NewtonConfig:
    """Knobs for the damped Newton ascent in :func:`maximize_concave`."""

    max_iters: int = 100
    grad_tol: float = 1e-6
    step_shrink: float = 0.5
    min_step: float = 1e-12
    hessian_damping: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if not 0.0 < self.step_shrink < 1.0:
            raise ValueError("step_shrink must lie in (0, 1)")


@dataclass
class NewtonResult:
    x: np.ndarray
    hessian: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float
    step_norm: float  # sup-norm of the Newton step left at x; 0 when converged
    status: str  # "converged" | "max_iters" | "line_search_failure"
    objective_trace: list = field(default_factory=list)


def _damped_newton_step(hessian: np.ndarray, grad: np.ndarray, damping0: float) -> np.ndarray:
    """Solve -(H - lam*I) step = grad, growing lam until the system is PD.

    A PD system guarantees grad . step > 0, i.e. an ascent direction.
    """
    k = grad.size
    lam = 0.0
    scale = max(1.0, float(np.abs(hessian).max()))
    while True:
        try:
            chol = scipy.linalg.cho_factor(-(hessian - lam * np.eye(k)), lower=True)
            return scipy.linalg.cho_solve(chol, grad)
        except scipy.linalg.LinAlgError:
            lam = damping0 if lam == 0.0 else lam * 10.0
            if lam > 1e8 * scale:
                raise NonFiniteError("Hessian damping diverged; Hessian is likely non-finite")


def maximize_concave(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    hess: Callable[[np.ndarray], np.ndarray],
    x0,
    config: NewtonConfig | None = None,
) -> NewtonResult:
    """Damped Newton ascent with backtracking line search.

    The objective need not be concave: where the Hessian is not negative
    definite, the step solves a system damped by a growing multiple of the
    identity until it is, which still gives an ascent direction. Stops when
    the sup-norm of the gradient drops to ``config.grad_tol`` or the
    iteration budget runs out; every accepted step strictly increases ``f``,
    so the method also terminates (status ``line_search_failure``) where it
    can no longer improve ``f`` in floating point, returning the best iterate
    seen. ``step_norm`` is the sup-norm of the (damped) Newton step left at
    that iterate, an estimate of its distance to a stationary point.
    The returned Hessian is the exact (undamped) Hessian at the final iterate.

    Raises
    ------
    NonFiniteError
        If the objective or gradient is non-finite at an accepted iterate.
    """
    cfg = config if config is not None else NewtonConfig()
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

    for iterations in range(1, cfg.max_iters + 1):
        gnorm = float(np.abs(g).max())
        if gnorm <= cfg.grad_tol:
            converged = True
            status = "converged"
            iterations -= 1
            break
        step = _damped_newton_step(np.asarray(hess(x), dtype=float), g, cfg.hessian_damping)

        t = 1.0
        accepted = False
        while t >= cfg.min_step:
            x_new = x + t * step
            f_new = float(f(x_new))
            if np.isfinite(f_new) and f_new > fx:
                accepted = True
                break
            t *= cfg.step_shrink
        if not accepted:
            status = "line_search_failure"
            break

        x, fx = x_new, f_new
        trace.append(fx)
        g = np.asarray(grad(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient at iterate {x!r}")

    gnorm = float(np.abs(g).max())
    if gnorm <= cfg.grad_tol:
        converged = True
        status = "converged"
    hessian = np.asarray(hess(x), dtype=float)
    if status == "max_iters":  # the last step computed was taken; x needs its own
        step = _damped_newton_step(hessian, g, cfg.hessian_damping)
    return NewtonResult(
        x=x,
        hessian=hessian,
        converged=converged,
        iterations=iterations,
        grad_norm=gnorm,
        step_norm=0.0 if converged else float(np.abs(step).max()),
        status=status,
        objective_trace=trace,
    )
