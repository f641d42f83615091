"""Independent reference computations used as test oracles.

Everything here recomputes expectations from first principles (enumeration,
quadrature, Monte Carlo, finite differences) without touching the library's
inference code paths.
"""

import itertools

import numpy as np


def finite_difference_gradient(f, x, h):
    """Central-difference gradient (f(x + h e_i) - f(x - h e_i)) / 2h."""
    if h <= 0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError(f"non-finite finite-difference gradient: {grad!r}")
    return grad


def fd_jacobian(func, x, h):
    """Central-difference Jacobian of a vector-valued function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2.0 * h))
    return np.stack(cols, axis=1)


def enumeration_posterior_mean_proportions(tokens, beta, mu0, sigma0, grid_lo=-10.0,
                                           grid_hi=10.0, grid_n=401):
    """E[softmax(nu) | tokens] by brute force.

    Sums the likelihood over every assignment vector z in K^len(tokens) and
    marginalizes nu by quadrature on a dense grid (K=2 only). The z-sum is
    exponential in the number of tokens; keep instances tiny. Vectorized over
    grid points only, never over assignments.
    """
    beta = np.asarray(beta, dtype=float)
    k = beta.shape[0]
    if k != 2:
        raise ValueError("grid quadrature oracle supports K=2 only")
    mu0 = np.asarray(mu0, dtype=float)
    sigma0_inv = np.linalg.inv(np.asarray(sigma0, dtype=float))
    axis = np.linspace(grid_lo, grid_hi, grid_n)
    g0, g1 = np.meshgrid(axis, axis, indexing="ij")
    nus = np.stack([g0.ravel(), g1.ravel()], axis=1)  # (G, 2)
    shifted = np.exp(nus - nus.max(axis=1, keepdims=True))
    pis = shifted / shifted.sum(axis=1, keepdims=True)

    like = np.zeros(len(nus))
    for z in itertools.product(range(k), repeat=len(tokens)):
        contrib = np.ones(len(nus))
        for zn, xn in zip(z, tokens):
            contrib = contrib * pis[:, zn] * beta[zn, xn]
        like += contrib

    centered = nus - mu0
    prior = np.exp(-0.5 * np.einsum("gi,ij,gj->g", centered, sigma0_inv, centered))
    weights = prior * like
    return (weights[:, None] * pis).sum(axis=0) / weights.sum()


def mc_log_likelihood(bags, betas, mu0, sigma0, n_samples=400_000, seed=0):
    """log p(record) estimated by Monte Carlo over the Gaussian prior.

    Returns (log_estimate, standard_error_of_log). The per-sample likelihood
    multiplies, for every token occurrence, the mixture probability of that
    token under softmax(nu).
    """
    rng = np.random.default_rng(seed)
    mu0 = np.asarray(mu0, dtype=float)
    k = mu0.size
    chol = np.linalg.cholesky(np.asarray(sigma0, dtype=float))
    nus = mu0 + rng.standard_normal((n_samples, k)) @ chol.T
    m = nus.max(axis=1, keepdims=True)
    pis = np.exp(nus - m)
    pis /= pis.sum(axis=1, keepdims=True)
    log_like = np.zeros(n_samples)
    for bag, beta in zip(bags, betas):
        for v, count in bag.items():
            log_like += count * np.log(pis @ np.asarray(beta)[:, v])
    like = np.exp(log_like)
    estimate = like.mean()
    se = like.std(ddof=1) / np.sqrt(n_samples)
    return float(np.log(estimate)), float(se / estimate)


def brute_force_min_assignment(cost):
    """Minimal total assignment cost over all K! permutations (K <= 7)."""
    cost = np.asarray(cost, dtype=float)
    k = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(k)):
        best = min(best, float(cost[np.arange(k), perm].sum()))
    return best


def scan_coverage_count(proportions, mass):
    """Sort descending, accumulate until the mass is reached (1e-12 slack)."""
    ordered = sorted((float(p) for p in proportions), reverse=True)
    acc = 0.0
    for i, p in enumerate(ordered, start=1):
        acc += p
        if acc >= mass - 1e-12:
            return i
    return len(ordered)


def term_by_term_elbo(record, posterior, params):
    """Variational objective E_q[log p(nu, z, x)] + H[q] of one record, term by term.

    q(z) is the per-token softmax of nu_hat + log_beta at the posterior mode,
    q(nu) = N(nu_hat, nu_cov). The Gaussian entropy and prior cross-entropy
    are exact; E[logsumexp(nu)] uses its second-order expansion at the mode,
    logsumexp(nu_hat) + tr((diag(pi) - pi pi') cov) / 2.
    """
    k = params.mu0.size
    nu_hat, nu_cov = posterior.nu_hat, posterior.nu_cov
    centered = nu_hat - params.mu0
    sigma0_inv = np.linalg.inv(params.sigma0)
    _, logdet_prior = np.linalg.slogdet(params.sigma0)
    e_log_prior = -0.5 * (
        k * np.log(2.0 * np.pi)
        + logdet_prior
        + float(np.sum(sigma0_inv * nu_cov))
        + float(centered @ sigma0_inv @ centered)
    )

    top = nu_hat.max()
    pi = np.exp(nu_hat - top) / np.exp(nu_hat - top).sum()
    lse = top + np.log(np.exp(nu_hat - top).sum())
    correction = 0.5 * float(np.sum((np.diag(pi) - np.outer(pi, pi)) * nu_cov))
    e_eta = nu_hat - (lse + correction)

    e_log_assign = e_log_tokens = entropy_z = 0.0
    for bag, log_beta in zip(record.bags, params.log_beta):
        for v, count in bag.items():
            logits = nu_hat + log_beta[:, v]
            q = np.exp(logits - logits.max())
            q /= q.sum()
            e_log_assign += count * float(q @ e_eta)
            e_log_tokens += count * float(q @ log_beta[:, v])
            positive = q > 0.0
            entropy_z -= count * float(q[positive] @ np.log(q[positive]))

    sign, logdet_cov = np.linalg.slogdet(nu_cov)
    if sign <= 0:
        raise ValueError("posterior covariance must be positive definite")
    entropy_nu = 0.5 * (k * (np.log(2.0 * np.pi) + 1.0) + logdet_cov)
    return e_log_prior + e_log_assign + e_log_tokens + entropy_nu + entropy_z
