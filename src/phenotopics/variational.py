"""Per-record posterior inference for the correlated phenotype model.

Each record carries M bags of token counts. The latent log phenotype
proportions ``nu`` get a Gaussian prior N(mu0, sigma0); every token carries a
latent phenotype assignment drawn from softmax(nu). The posterior is
approximated by

* a Gaussian q(nu) at the mode of the collapsed log joint log p(x, nu), with
  the assignments summed out (:class:`ModeObjective`), found by one damped
  Newton ascent, and
* token responsibilities q(z): a closed-form softmax over phenotypes per
  distinct token, evaluated at that mode.

The mode is the fixed point of alternating the two updates (Laplace
variational inference, Wang & Blei 2013, on the correlated topic model's
logistic-normal prior). The covariance is the inverse of the negated Hessian
of the q(nu) objective eta(nu)' s - (nu - mu0)' sigma0_inv (nu - mu0) / 2 at
the mode, with s the expected counts there.

The expectation of ``eta(nu) = nu - logsumexp(nu)`` under q(nu) has no closed
form. The responsibility update evaluates it at the mode (zeroth order; the
normalizer part cancels there anyway), while the reported variational
objective adds the second-order Gaussian correction of the logsumexp term,
without which the objective can exceed the true log evidence and stop being a
bound. At the mode that objective collapses to the Laplace evidence of
:class:`ModeObjective` (see :func:`infer_document`), so it has no second,
term-by-term formulation and a posterior keeps no per-token arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .corpus import RecordBags
from .numerics import NonFiniteError, _log_normalize, maximize_concave, ridged_cholesky


def _logdet(chol) -> float:
    """log det A from A's ``cho_factor`` pair."""
    return 2.0 * float(np.log(np.diag(chol[0])).sum())


@dataclass
class ModelParams:
    """Global parameters: Gaussian prior over log proportions + topic matrices.

    ``log_beta[m]`` has shape (K, V_m); each row of ``exp(log_beta[m])`` is a
    distribution over type m's vocabulary. ``sigma0_inv`` is cached because the
    per-record objective evaluates the prior quadratic form many times, and
    ``sigma0_logdet`` (log det sigma0) because every record's objective needs it.
    """

    mu0: np.ndarray
    sigma0: np.ndarray
    sigma0_inv: np.ndarray
    sigma0_logdet: float
    log_beta: list

    @property
    def num_phenotypes(self) -> int:
        return self.mu0.shape[0]

    @property
    def num_types(self) -> int:
        return len(self.log_beta)

    @classmethod
    def create(cls, mu0, sigma0, log_beta) -> "ModelParams":
        """Build params from mu0, sigma0 and per-type log topic matrices.

        Computes the cached inverse and log determinant from one Cholesky
        factor, which doubles as the positive-definiteness check on sigma0:
        a sigma0 that :func:`ridged_cholesky` would have to ridge is rejected.
        """
        mu0 = np.asarray(mu0, dtype=float)
        sigma0 = np.asarray(sigma0, dtype=float)
        sigma0 = 0.5 * (sigma0 + sigma0.T)
        try:
            chol, ridge = ridged_cholesky(sigma0)
        except NonFiniteError as exc:
            raise ValueError("sigma0 must be finite") from exc
        if ridge:
            raise ValueError("sigma0 must be symmetric positive definite")
        sigma0_inv = scipy.linalg.cho_solve(chol, np.eye(mu0.shape[0]))
        sigma0_inv = 0.5 * (sigma0_inv + sigma0_inv.T)
        log_beta = [np.asarray(lb, dtype=float) for lb in log_beta]
        params = cls(
            mu0=mu0,
            sigma0=sigma0,
            sigma0_inv=sigma0_inv,
            sigma0_logdet=_logdet(chol),
            log_beta=log_beta,
        )
        params.validate()
        return params

    def validate(self, row_tol: float = 1e-9) -> None:
        k = self.num_phenotypes
        if self.sigma0.shape != (k, k) or self.sigma0_inv.shape != (k, k):
            raise ValueError("sigma0 / sigma0_inv shape does not match mu0")
        if not np.all(np.isfinite(self.mu0)) or not np.all(np.isfinite(self.sigma0)):
            raise ValueError("mu0 / sigma0 must be finite")
        for m, lb in enumerate(self.log_beta):
            if lb.ndim != 2 or lb.shape[0] != k:
                raise ValueError(f"log_beta[{m}] must have K={k} rows, got shape {lb.shape}")
            if not np.all(np.isfinite(lb)):
                raise ValueError(f"log_beta[{m}] contains non-finite entries")
            row_sums = np.exp(lb).sum(axis=1)
            if np.abs(row_sums - 1.0).max() > row_tol:
                raise ValueError(f"rows of exp(log_beta[{m}]) must sum to 1 within {row_tol}")


@dataclass
class DocPosterior:
    """Laplace-approximate posterior for one record.

    ``expected_counts`` is the (M, K) matrix of per-type expected token mass
    per phenotype, ``elbo`` the record's variational objective and
    ``iterations`` the number of Newton iterations. Nothing here grows with
    the record's length: the q(z) columns are recomputed from the mode when
    needed (``ModeObjective(record, params).at(nu_hat)``).
    """

    nu_hat: np.ndarray
    nu_cov: np.ndarray
    expected_counts: np.ndarray
    proportions: np.ndarray
    elbo: float
    converged: bool
    iterations: int


def _bag_arrays(record: RecordBags, params: ModelParams):
    """Split each sparse bag into aligned (token_index, count) arrays."""
    if len(record.bags) != params.num_types:
        raise ValueError("record has a different number of types than the model")
    indices, counts = [], []
    for m, bag in enumerate(record.bags):
        idx = np.fromiter(bag.keys(), dtype=np.intp, count=len(bag))
        if idx.size and (idx.min() < 0 or idx.max() >= params.log_beta[m].shape[1]):
            raise ValueError(f"token index out of range for type {m}")
        indices.append(idx)
        counts.append(np.fromiter(bag.values(), dtype=float, count=len(bag)))
    return indices, counts


def _responsibilities(indices, counts, nu, params: ModelParams):
    """Closed-form q(z) per distinct token at log proportions ``nu``.

    q(z=k | token v of type m) is the k-softmax of nu + log_beta[m][:, v]
    (the logsumexp part of eta(nu) is constant across k and cancels). Returns
    the per-type (K, n_m) matrices, the (M, K) expected counts and the
    per-type data terms sum_v c_v logsumexp_k(nu_k + log_beta[m][k, v]).
    """
    k = params.num_phenotypes
    resp = []
    expected = np.zeros((params.num_types, k))
    data = np.zeros(params.num_types)
    nu_col = nu[:, None]
    for m, (idx, cnt) in enumerate(zip(indices, counts)):
        if idx.size == 0:
            resp.append(np.zeros((k, 0)))
            continue
        q, lse = _log_normalize(params.log_beta[m][:, idx] + nu_col)
        resp.append(q)
        expected[m] = q @ cnt
        data[m] = cnt @ lse
    return resp, expected, data


def _laplace_hessian(pi, n_total: float, params: ModelParams) -> np.ndarray:
    """Hessian of -n_total * logsumexp(nu) - (nu - mu0)' sigma0_inv (nu - mu0) / 2.

    Negative definite whenever sigma0 is PD, since diag(pi) - pi pi' is PSD;
    its negated inverse at the mode is the Laplace covariance.
    """
    return n_total * (np.outer(pi, pi) - np.diag(pi)) - params.sigma0_inv


class ModeObjective:
    """Collapsed log joint of one record, log p(x, nu) up to a constant.

    g(nu) = sum_m sum_v c_mv logsumexp_k(nu_k + log_beta[m][k, v])
            - N logsumexp(nu) - (nu - mu0)' sigma0_inv (nu - mu0) / 2,

    with N the record's token total. Its gradient is
    sum_m R_m c_m - N pi - sigma0_inv (nu - mu0), where R_m holds the q(z)
    responsibilities at nu, so it vanishes exactly at the fixed point of
    alternating q(z) with the Gaussian q(nu) mode. Its Hessian is
    sum_m [diag(R_m c_m) - (R_m * c_m) R_m'] plus :func:`_laplace_hessian`.
    The data term is convex, so g need not be concave.

    Value, gradient and Hessian at one iterate share a single responsibility
    pass, cached on the iterate's bytes. Per-type terms are summed before the
    prior terms are added, so permuting the types leaves every result
    bitwise unchanged.
    """

    def __init__(self, record: RecordBags, params: ModelParams):
        self.params = params
        self.indices, self.counts = _bag_arrays(record, params)
        self.n_total = float(sum(cnt.sum() for cnt in self.counts))
        self._key = None
        self._state = None

    def at(self, nu):
        """(resp, expected, data, pi, lse) at ``nu``, from the one-slot cache."""
        nu = np.asarray(nu, dtype=float)
        key = nu.tobytes()
        if self._key != key:
            resp, expected, data = _responsibilities(self.indices, self.counts, nu, self.params)
            pi, lse = _log_normalize(nu)
            self._state = (resp, expected, data, pi, float(lse))
            self._key = key
        return self._state

    def value(self, nu) -> float:
        _, _, data, _, lse = self.at(nu)
        centered = np.asarray(nu, dtype=float) - self.params.mu0
        prior = 0.5 * float(centered @ self.params.sigma0_inv @ centered)
        return float(data.sum()) - self.n_total * lse - prior

    def gradient(self, nu) -> np.ndarray:
        _, expected, _, pi, _ = self.at(nu)
        centered = np.asarray(nu, dtype=float) - self.params.mu0
        return expected.sum(axis=0) - self.n_total * pi - self.params.sigma0_inv @ centered

    def hessian(self, nu) -> np.ndarray:
        resp, expected, _, pi, _ = self.at(nu)
        data = np.diag(expected.sum(axis=0))
        data -= sum(
            (q * cnt) @ q.T for q, cnt in zip(resp, self.counts) if cnt.size
        )
        return data + _laplace_hessian(pi, self.n_total, self.params)


def _invert_neg_hessian(hessian: np.ndarray):
    """Inverse of -hessian and its log determinant, from one Cholesky factor.

    A ridge is added (with one warning naming it) only if -hessian is not
    numerically positive definite.
    """
    chol, ridge = ridged_cholesky(-hessian)
    if ridge:
        warnings.warn(
            f"negated Hessian not positive definite; repaired with ridge {ridge:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    cov = scipy.linalg.cho_solve(chol, np.eye(hessian.shape[0]))
    return 0.5 * (cov + cov.T), -_logdet(chol)


def infer_document(
    record: RecordBags,
    params: ModelParams,
    tol: float = 1e-4,
    nu_init=None,
) -> DocPosterior:
    """Laplace posterior for one record: one Newton ascent on the collapsed objective.

    Starts at ``nu_init`` (prior mean by default; training passes the previous
    EM iteration's mode as a warm start) and maximizes :class:`ModeObjective`.
    q(z) is read off at the mode, and the covariance is the inverse of
    N (diag(pi) - pi pi') + sigma0_inv there. The record counts as converged
    when Newton met its gradient tolerance or the Newton step left at the
    returned mode is at most ``tol`` in sup-norm (the float floor of the
    objective can stop the line search first). Deterministic: no randomness
    anywhere in the updates.

    The variational objective E_q[log p(nu, z, x)] + H[q], with the
    logsumexp(nu) expectation taken to second order at the mode, is

        g(nu_hat) + (K - <-H_L, cov>) / 2 + (log det cov - log det sigma0) / 2,

    with g the :class:`ModeObjective` and H_L the :func:`_laplace_hessian`.
    The token terms plus the q(z) entropy sum to g's data term, and the
    curvature correction plus the prior's trace term sum to <-H_L, cov> / 2,
    which is K / 2 unless a ridge repaired the covariance.
    """
    objective = ModeObjective(record, params)
    nu0 = np.array(params.mu0 if nu_init is None else nu_init, dtype=float)
    result = maximize_concave(objective.value, objective.gradient, objective.hessian, nu0)
    nu_hat = result.x
    _, expected, _, pi, _ = objective.at(nu_hat)
    hessian = _laplace_hessian(pi, objective.n_total, params)
    nu_cov, logdet_cov = _invert_neg_hessian(hessian)
    elbo = (
        objective.value(nu_hat)
        + 0.5 * (params.num_phenotypes + float(np.sum(hessian * nu_cov)))
        + 0.5 * (logdet_cov - params.sigma0_logdet)
    )

    return DocPosterior(
        nu_hat=nu_hat,
        nu_cov=nu_cov,
        expected_counts=expected,
        proportions=pi,
        elbo=elbo,
        converged=result.converged or result.step_norm <= tol,
        iterations=result.iterations,
    )
