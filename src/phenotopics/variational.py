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
bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .corpus import RecordBags
from .numerics import log_sum_exp, maximize_concave, softmax


@dataclass
class ModelParams:
    """Global parameters: Gaussian prior over log proportions + topic matrices.

    ``log_beta[m]`` has shape (K, V_m); each row of ``exp(log_beta[m])`` is a
    distribution over type m's vocabulary. ``sigma0_inv`` is cached because the
    per-record objective evaluates the prior quadratic form many times.
    """

    mu0: np.ndarray
    sigma0: np.ndarray
    sigma0_inv: np.ndarray
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

        Computes the cached inverse via Cholesky, which doubles as the
        positive-definiteness check on sigma0.
        """
        mu0 = np.asarray(mu0, dtype=float)
        sigma0 = np.asarray(sigma0, dtype=float)
        sigma0 = 0.5 * (sigma0 + sigma0.T)
        try:
            chol = scipy.linalg.cho_factor(sigma0, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise ValueError("sigma0 must be symmetric positive definite") from exc
        sigma0_inv = scipy.linalg.cho_solve(chol, np.eye(mu0.shape[0]))
        sigma0_inv = 0.5 * (sigma0_inv + sigma0_inv.T)
        log_beta = [np.asarray(lb, dtype=float) for lb in log_beta]
        params = cls(mu0=mu0, sigma0=sigma0, sigma0_inv=sigma0_inv, log_beta=log_beta)
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

    The per-token data lives in aligned arrays: ``token_indices[m]`` holds the
    distinct token indices of type m, ``token_counts[m]`` their counts and
    ``resp[m]`` the (K, n_m) q(z) columns; occurrences of the same token share
    one column because q(z) depends only on token identity.
    ``expected_counts`` is the (M, K) matrix of per-type expected token mass
    per phenotype. ``iterations`` counts Newton iterations.
    """

    nu_hat: np.ndarray
    nu_cov: np.ndarray
    token_indices: list  # per type, (n_m,) distinct token indices
    token_counts: list  # per type, (n_m,) counts aligned with token_indices
    resp: list  # per type, (K, n_m) responsibility columns
    expected_counts: np.ndarray
    proportions: np.ndarray
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
        logits = params.log_beta[m][:, idx] + nu_col
        top = logits.max(axis=0)
        q = np.exp(logits - top)
        total = q.sum(axis=0)
        q /= total
        resp.append(q)
        expected[m] = q @ cnt
        data[m] = cnt @ (top + np.log(total))
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
            top = nu.max()
            e = np.exp(nu - top)
            total = e.sum()
            self._state = (resp, expected, data, e / total, float(top) + float(np.log(total)))
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


def _invert_neg_hessian(hessian: np.ndarray) -> np.ndarray:
    k = hessian.shape[0]
    ridge = 0.0
    scale = max(1.0, float(np.abs(hessian).max()))
    while True:
        try:
            chol = scipy.linalg.cho_factor(-hessian + ridge * np.eye(k), lower=True)
            cov = scipy.linalg.cho_solve(chol, np.eye(k))
            return 0.5 * (cov + cov.T)
        except scipy.linalg.LinAlgError:
            ridge = 1e-10 * scale if ridge == 0.0 else ridge * 10.0
            warnings.warn(
                f"negated Hessian not positive definite; repairing with ridge {ridge:g}",
                RuntimeWarning,
                stacklevel=2,
            )
            if ridge > 1e6 * scale:
                raise


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
    """
    objective = ModeObjective(record, params)
    nu0 = np.array(params.mu0 if nu_init is None else nu_init, dtype=float)
    result = maximize_concave(objective.value, objective.gradient, objective.hessian, nu0)
    nu_hat = result.x
    resp, expected, _, pi, _ = objective.at(nu_hat)
    nu_cov = _invert_neg_hessian(_laplace_hessian(pi, objective.n_total, params))

    return DocPosterior(
        nu_hat=nu_hat,
        nu_cov=nu_cov,
        token_indices=objective.indices,
        token_counts=objective.counts,
        resp=resp,
        expected_counts=expected,
        proportions=softmax(nu_hat),
        converged=result.converged or result.step_norm <= tol,
        iterations=result.iterations,
    )


def elbo(record: RecordBags, posterior: DocPosterior, params: ModelParams) -> float:
    """Variational objective E_q[log p(nu, z, x)] + H[q] for one record.

    The Gaussian entropy and prior cross-entropy are exact. The expectation of
    logsumexp(nu) uses its second-order expansion at the mode,
    ``logsumexp(nu_hat) + tr((diag(pi) - pi pi') cov) / 2``; the zeroth-order
    version overshoots the log evidence (see module note). Used as a
    convergence diagnostic; per-record convergence itself is declared by the
    Newton solve in :func:`infer_document`.
    """
    k = params.num_phenotypes
    nu_hat, nu_cov = posterior.nu_hat, posterior.nu_cov
    if nu_hat.shape != (k,):
        raise ValueError("posterior dimension does not match params")
    if len(record.bags) != params.num_types:
        raise ValueError("record has a different number of types than the model")
    for bag, cnt in zip(record.bags, posterior.token_counts):
        if len(bag) != cnt.size or sum(bag.values()) != cnt.sum():
            raise ValueError("posterior was not computed for this record")
    centered = nu_hat - params.mu0

    sign, logdet_prior = np.linalg.slogdet(params.sigma0)
    if sign <= 0:
        raise ValueError("sigma0 must be positive definite")
    e_log_prior = -0.5 * (
        k * np.log(2.0 * np.pi)
        + logdet_prior
        + float(np.sum(params.sigma0_inv * nu_cov))
        + float(centered @ params.sigma0_inv @ centered)
    )

    s = posterior.expected_counts.sum(axis=0)
    pi_hat = softmax(nu_hat)
    lse_correction = 0.5 * float(np.sum((np.diag(pi_hat) - np.outer(pi_hat, pi_hat)) * nu_cov))
    e_eta = nu_hat - (log_sum_exp(nu_hat) + lse_correction)
    e_log_assign = float(e_eta @ s)

    e_log_tokens = 0.0
    entropy_z = 0.0
    for m in range(params.num_types):
        idx = posterior.token_indices[m]
        if idx.size == 0:
            continue
        cnt = posterior.token_counts[m]
        q = posterior.resp[m]
        e_log_tokens += float(cnt @ (q * params.log_beta[m][:, idx]).sum(axis=0))
        qlogq = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
        entropy_z -= float(cnt @ qlogq.sum(axis=0))

    sign, logdet_cov = np.linalg.slogdet(nu_cov)
    if sign <= 0:
        raise ValueError("posterior covariance must be positive definite")
    entropy_nu = 0.5 * (k * (np.log(2.0 * np.pi) + 1.0) + logdet_cov)

    return e_log_prior + e_log_assign + e_log_tokens + entropy_nu + entropy_z
