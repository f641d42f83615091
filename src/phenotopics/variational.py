"""Posterior inference for the correlated phenotype model, a block of records at a time.

Each record carries M bags of token counts. The latent log phenotype
proportions ``nu`` get a Gaussian prior N(mu0, sigma0); every token carries a
latent phenotype assignment drawn from softmax(nu). The posterior is
approximated by

* a Gaussian q(nu) at the mode of the collapsed log joint log p(x, nu), with
  the assignments summed out (:class:`ModeObjective`), found by one damped
  Newton ascent, and
* token responsibilities q(z): a closed-form softmax over phenotypes per
  distinct token, evaluated at that mode.

:func:`infer_block` runs those ascents for a block of records in lockstep:
each Newton iteration evaluates every still-active record at once, each
record keeps its own step size and stopping rule, and leaves the block as
soon as it stops. A record's arithmetic is its own, so its posterior does not
depend on the block it shares beyond the last digits, and one record is
inferred as a block of one.

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
:class:`ModeObjective` (see :func:`infer_block`), so it has no second,
term-by-term formulation and a posterior keeps no per-token arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import RecordBags
from .numerics import NonFiniteError, _log_normalize, _pd_inverse, newton_ascent


# How far a topic row's probabilities may sum from 1 before params are rejected.
ROW_SUM_TOL = 1e-9
# Largest Newton step (sup-norm) left at a returned mode that still counts as
# converged; it decides only DocPosterior.converged, never the mode itself.
CONVERGED_STEP_TOL = 1e-4


@dataclass
class ModelParams:
    """Global parameters: Gaussian prior over log proportions + topic matrices.

    ``log_beta[m]`` has shape (K, V_m); each row of ``exp(log_beta[m])`` is a
    distribution over type m's vocabulary. ``sigma0_inv`` is cached because the
    per-record objective evaluates the prior quadratic form many times, and
    ``sigma0_logdet`` (log det sigma0) because every record's objective needs it.

    The topic table is cached for the same reason: ``beta_top[m]`` holds the
    column maxima of ``log_beta[m]`` and ``beta_shifted[m]`` is
    ``exp(log_beta[m] - beta_top[m])``, every entry at most 1. Each record's
    :class:`ModeObjective` gathers its columns from them instead of
    exponentiating its own. :meth:`validate` builds both, once per distinct
    matrix, so types that share a matrix share its table.
    """

    mu0: np.ndarray
    sigma0: np.ndarray
    sigma0_inv: np.ndarray
    sigma0_logdet: float
    log_beta: list
    beta_top: list = field(default=None, repr=False, compare=False)
    beta_shifted: list = field(default=None, repr=False, compare=False)

    @property
    def num_phenotypes(self) -> int:
        return self.mu0.shape[0]

    @property
    def num_types(self) -> int:
        return len(self.log_beta)

    @classmethod
    def create(cls, mu0, sigma0, log_beta) -> "ModelParams":
        """Build params from mu0, sigma0 and per-type log topic matrices.

        Computes the cached inverse and log determinant with one
        :func:`~phenotopics.numerics._pd_inverse`, whose factorization doubles
        as the positive-definiteness check on sigma0: a sigma0 that would need
        a ridge is rejected.
        """
        mu0 = np.asarray(mu0, dtype=float)
        if mu0.ndim != 1:
            raise ValueError(f"mu0 must be a vector, got shape {mu0.shape}")
        sigma0 = np.asarray(sigma0, dtype=float)
        with np.errstate(over="ignore"):  # an entry near the float max sums to inf, rejected below
            sigma0 = 0.5 * (sigma0 + sigma0.T)
        try:
            sigma0_inv, sigma0_logdet, ridge = _pd_inverse(sigma0)
        except NonFiniteError as exc:
            raise ValueError("sigma0 must be finite") from exc
        if ridge:
            raise ValueError("sigma0 must be symmetric positive definite")
        log_beta = [np.asarray(lb, dtype=float) for lb in log_beta]
        params = cls(
            mu0=mu0,
            sigma0=sigma0,
            sigma0_inv=sigma0_inv,
            sigma0_logdet=sigma0_logdet,
            log_beta=log_beta,
        )
        params.validate()
        return params

    def validate(self) -> None:
        """Check the params and build the topic table; raises ValueError on bad params.

        Each row sum of ``exp(log_beta[m])`` is computed from the table as
        ``beta_shifted[m] @ exp(beta_top[m])``, so the check costs no second
        exponential pass.
        """
        k = self.num_phenotypes
        if self.sigma0.shape != (k, k) or self.sigma0_inv.shape != (k, k):
            raise ValueError("sigma0 / sigma0_inv shape does not match mu0")
        if not np.all(np.isfinite(self.mu0)) or not np.all(np.isfinite(self.sigma0)):
            raise ValueError("mu0 / sigma0 must be finite")
        tables = {}  # a matrix shared by several types is checked and exponentiated once
        for m, lb in enumerate(self.log_beta):
            if id(lb) in tables:
                continue
            if lb.ndim != 2 or lb.shape[0] != k:
                raise ValueError(f"log_beta[{m}] must have K={k} rows, got shape {lb.shape}")
            if not np.all(np.isfinite(lb)):
                raise ValueError(f"log_beta[{m}] contains non-finite entries")
            # an entry above ~709 makes exp(top) inf, and inf times an
            # underflowed neighbour NaN; both fail the comparison below
            with np.errstate(over="ignore", invalid="ignore"):
                top = lb.max(axis=0)
                shifted = np.exp(lb - top)
                row_sums = shifted @ np.exp(top)
            if not np.all(np.abs(row_sums - 1.0) <= ROW_SUM_TOL):
                raise ValueError(f"rows of exp(log_beta[{m}]) must sum to 1 within {ROW_SUM_TOL}")
            tables[id(lb)] = top, shifted
        self.beta_top = [tables[id(lb)][0] for lb in self.log_beta]
        self.beta_shifted = [tables[id(lb)][1] for lb in self.log_beta]


@dataclass
class DocPosterior:
    """Laplace-approximate posterior for one record.

    ``expected_counts`` is the (M, K) matrix of per-type expected token mass
    per phenotype, ``elbo`` the record's variational objective and
    ``iterations`` the number of Newton iterations. Nothing here grows with
    the record's length: :func:`infer_block` returns the evaluation at the
    modes, whose :meth:`Evaluation.responsibilities` give the q(z) columns.
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


def _responsibilities(log_beta: np.ndarray, idx, cnt, nu):
    """Exact q(z) of one bag at log proportions ``nu``: one K x n exponential.

    q(z=k | token v) is the k-softmax of nu + log_beta[:, v] (the logsumexp
    part of eta(nu) is constant across k and cancels). Returns the (K, n)
    responsibilities, the K expected counts and sum_v c_v
    logsumexp_k(nu_k + log_beta[k, v]). :class:`ModeObjective` falls back on
    it where its factored pass would lose precision, and tests use it as the
    reference for that pass.
    """
    q, lse = _log_normalize(log_beta[:, idx] + nu[:, None])
    return q, q @ cnt, float(cnt @ lse)


def _laplace_hessian(pi, n_total, params: ModelParams) -> np.ndarray:
    """Hessian of -n_total * logsumexp(nu) - (nu - mu0)' sigma0_inv (nu - mu0) / 2.

    Negative definite whenever sigma0 is PD, since diag(pi) - pi pi' is PSD;
    its negated inverse at the mode is the Laplace covariance. ``pi`` may be
    one vector or a stack of rows (with one ``n_total`` per row), giving one
    K x K matrix per row.
    """
    pi = np.asarray(pi, dtype=float)
    diagonal = np.arange(pi.shape[-1])
    hess = pi[..., :, None] * pi[..., None, :]
    hess[..., diagonal, diagonal] -= pi
    hess *= np.asarray(n_total, dtype=float)[..., None, None]
    hess -= params.sigma0_inv
    return hess


# Smallest column mass pi @ B the factored responsibility pass accepts; a bag
# with a smaller one goes through the exact path at that iterate. Above it,
# the products pi_k B_kv that underflow (each below ~2e-308) are negligible
# relative to the mass, and count / mass**2 cannot overflow for any count
# below 2**53.
MIN_COLUMN_MASS = 1e-60


class ModeObjective:
    """Collapsed log joint of each record in a block, log p(x, nu) up to a constant.

    For one record,

    g(nu) = sum_m sum_v c_mv log sum_k pi_k beta_m[k, v]
            - (nu - mu0)' sigma0_inv (nu - mu0) / 2,

    with pi = softmax(nu): the mixture log likelihood of every token plus the
    Gaussian log prior. Its gradient is sum_m R_m c_m - N pi - sigma0_inv
    (nu - mu0), where R_m holds the q(z) responsibilities at nu and N is the
    record's token total, so it vanishes exactly at the fixed point of
    alternating q(z) with the Gaussian q(nu) mode. Its Hessian is
    sum_m [diag(R_m c_m) - (R_m * c_m) R_m'] plus :func:`_laplace_hessian`.
    The data term is convex in nu, so g need not be concave.

    The token work is done once per record: ``__init__`` gathers each bag's
    beta columns B_m = exp(log_beta[m][:, idx] - top_m), shifted by their
    column max top_m so every entry is at most 1, from the params' topic
    table (:class:`ModelParams`), and keeps c_m @ top_m. The exponential is
    elementwise, so the gathered columns are the bits exponentiating the
    record's own columns would give.
    :meth:`evaluate` takes any rows of the block, each at its own point, and
    needs pi, the column masses s_m = pi @ B_m and the data term c_m @ log s_m
    + c_m @ top_m; the expected counts pi * (B_m @ (c_m / s_m)) and q(z)
    itself, B_m * pi / s_m, are built from those on demand (see
    :class:`Evaluation`). A bag with a mass below ``MIN_COLUMN_MASS`` at the
    point goes through the exact :func:`_responsibilities` instead. The
    products with a record's columns are made per record, so no record's
    columns are padded or copied; everything else is one array operation over
    the rows.

    Per-type terms are summed before the prior terms are added, so permuting
    the types leaves every result bitwise unchanged.
    """

    def __init__(self, records, params: ModelParams):
        self.params = params
        self.indices, self.counts, self._beta = [], [], []
        for record in records:
            indices, counts = _bag_arrays(record, params)
            beta = [
                (shifted[:, idx], float(cnt @ top[idx]))
                for shifted, top, idx, cnt in zip(
                    params.beta_shifted, params.beta_top, indices, counts
                )
            ]
            self.indices.append(indices)
            self.counts.append(counts)
            self._beta.append(beta)
        self.n_total = np.array([float(sum(cnt.sum() for cnt in counts)) for counts in self.counts])

    def evaluate(self, rows, nu) -> "Evaluation":
        """g of record ``rows[i]`` at ``nu[i]`` for each i; derivatives and q(z) on demand."""
        params = self.params
        rows = np.asarray(rows, dtype=np.intp)
        nu = np.asarray(nu, dtype=float)
        pi, lse = _log_normalize(nu.T)
        pi = np.ascontiguousarray(pi.T)
        data = np.zeros((rows.size, params.num_types))
        columns = []  # per row, per bag: (mass, q or None)
        for i, r in enumerate(rows.tolist()):
            bags = []
            for m, ((shifted, offset), idx, cnt) in enumerate(
                zip(self._beta[r], self.indices[r], self.counts[r])
            ):
                mass = pi[i] @ shifted
                if mass.min(initial=np.inf) >= MIN_COLUMN_MASS:
                    data[i, m] = cnt @ np.log(mass) + offset
                    q = None
                else:
                    q, _, data[i, m] = _responsibilities(params.log_beta[m], idx, cnt, nu[i])
                    data[i, m] -= cnt.sum() * lse[i]
                bags.append((mass, q))
            columns.append(bags)
        centered = nu - params.mu0
        prior = 0.5 * ((centered @ params.sigma0_inv) * centered).sum(axis=1)
        return Evaluation(self, rows, pi, data.sum(axis=1) - prior, centered, columns)


class Evaluation:
    """One :class:`ModeObjective` evaluation: rows of the block, each at its own point nu.

    ``pi`` (softmax(nu), one row each), the column masses and ``value`` (g at
    each point) are computed at once. ``expected``, the (n, M, K) expected
    counts, is built on first use and kept; :meth:`gradient` (n, K),
    :meth:`hessian` (n, K, K) and :meth:`responsibilities` are computed on
    each call. Everything comes from the one pass over the masses, so an
    evaluation the line search rejects costs no expected counts. ``take`` and
    ``concat`` select and join rows without recomputing them, as
    :func:`~phenotopics.numerics.newton_ascent` needs. ``expected`` is kept
    by a plain ``None`` check rather than a functools cached property, which
    on Python 3.10/3.11 takes a class-wide lock that would serialize threaded
    E-steps.
    """

    def __init__(self, objective, rows, pi, value, centered, columns, expected=None):
        self.objective = objective
        self.rows = rows
        self.pi = pi
        self.value = value
        self._centered = centered
        self._columns = columns
        self._expected = expected

    def take(self, selection) -> "Evaluation":
        """The rows at ``selection`` (a boolean mask or positions), in that order."""
        positions = np.arange(self.rows.size)[selection]
        return Evaluation(
            self.objective,
            self.rows[positions],
            self.pi[positions],
            self.value[positions],
            self._centered[positions],
            [self._columns[i] for i in positions.tolist()],
            None if self._expected is None else self._expected[positions],
        )

    @classmethod
    def concat(cls, evaluations) -> "Evaluation":
        """The rows of each evaluation in turn (all of one objective)."""
        if len(evaluations) == 1:
            return evaluations[0]
        expected = [e._expected for e in evaluations]
        return cls(
            evaluations[0].objective,
            *(np.concatenate([getattr(e, name) for e in evaluations])
              for name in ("rows", "pi", "value", "_centered")),
            [bags for e in evaluations for bags in e._columns],
            None if any(x is None for x in expected) else np.concatenate(expected),
        )

    @property
    def expected(self) -> np.ndarray:
        if self._expected is None:
            objective = self.objective
            n, k = self.pi.shape
            self._expected = np.empty((n, objective.params.num_types, k))
            for i, r in enumerate(self.rows.tolist()):
                for m, ((shifted, _), cnt, (mass, q)) in enumerate(
                    zip(objective._beta[r], objective.counts[r], self._columns[i])
                ):
                    self._expected[i, m] = (
                        self.pi[i] * (shifted @ (cnt / mass)) if q is None else q @ cnt
                    )
        return self._expected

    def gradient(self) -> np.ndarray:
        objective = self.objective
        return (
            self.expected.sum(axis=1)
            - objective.n_total[self.rows, None] * self.pi
            - self._centered @ objective.params.sigma0_inv
        )

    def hessian(self) -> np.ndarray:
        objective = self.objective
        n, k = self.pi.shape
        # (R * c) R' = outer(pi, pi) * (B * c / s**2) B' on the factored bags
        factored, exact = np.zeros((n, k, k)), None
        for i, r in enumerate(self.rows.tolist()):
            for (shifted, _), cnt, (mass, q) in zip(
                objective._beta[r], objective.counts[r], self._columns[i]
            ):
                if q is None:
                    factored[i] += (shifted * (cnt / (mass * mass))) @ shifted.T
                else:
                    if exact is None:
                        exact = np.zeros((n, k, k))
                    exact[i] += (q * cnt) @ q.T
        factored *= self.pi[:, :, None] * self.pi[:, None, :]
        if exact is not None:
            factored += exact
        hess = _laplace_hessian(self.pi, objective.n_total[self.rows], objective.params)
        hess -= factored
        diagonal = np.arange(k)
        hess[:, diagonal, diagonal] += self.expected.sum(axis=1)
        return hess

    def responsibilities(self, i) -> list:
        """Row ``i``'s per-type (K, n_m) q(z) columns, aligned with its record's ``indices``."""
        objective = self.objective
        return [
            shifted * self.pi[i][:, None] / mass if q is None else q
            for (shifted, _), (mass, q) in zip(objective._beta[self.rows[i]], self._columns[i])
        ]


def _invert_neg_hessian(hessian: np.ndarray):
    """Inverse of -hessian and its log determinant.

    A ridge is added (with one warning naming it) only if -hessian is not
    numerically positive definite.
    """
    cov, logdet, ridge = _pd_inverse(-hessian)
    if ridge:
        warnings.warn(
            f"negated Hessian not positive definite; repaired with ridge {ridge:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return cov, -logdet


# A cold start takes up to COLD_START_EM_STEPS EM steps past its log E, each
# only while the step before it (the one to log E included) cut the record's
# gradient sup-norm by at least COLD_START_MIN_CONTRACTION (see
# :func:`_cold_starts`).
COLD_START_EM_STEPS = 3
COLD_START_MIN_CONTRACTION = 2.0


def _cold_starts(objective: ModeObjective):
    """Each record's start for an ascent with no previous mode: EM steps past mu0.

    At mu0 a q(z) step gives the record's expected counts E per phenotype,
    summed over types, and the proportions they imply are E / N, so the first
    start is log E. The data term depends on nu only through softmax(nu), so
    it is flat along the ones vector, and the start is shifted along it to
    the prior's maximum on that line, by (mu0 - log E)' sigma0_inv 1 /
    1' sigma0_inv 1. A record that is empty, or whose E_k underflows to 0 for
    some k, starts at mu0.

    From log E each record takes up to ``COLD_START_EM_STEPS`` more EM steps: a
    Newton step on the EM surrogate, whose Hessian is the exact
    :func:`_laplace_hessian` H_L, so x <- x + (-H_L)^-1 grad g(x). -H_L =
    sigma0_inv + N (diag(pi) - pi pi') is positive definite by construction
    and needs no data product, so a step costs one evaluation and one
    expected-count pass. Far from the mode such a step cuts the gradient
    about as much as a Newton step does; near it, only 2-3x a step, which is
    why the ascent then takes over. A step s leaves 1' sigma0_inv (nu - mu0)
    fixed, since 1' sigma0_inv s = 1' (-H_L) s = 1' grad g(x) = 0 (-H_L
    maps the ones vector to sigma0_inv 1, and g's gradient sums to 0 on the
    ridge), so the starts stay on the prior's ridge.

    EM steps pay only while the data pin q(z) down. Where they do not, as
    under the near-uniform topics training starts from, each step, the one to
    log E as well, cuts the gradient by a few percent and the steps cost more
    than the Newton iterations they save. So a record takes a step only where
    the step before it cut its gradient sup-norm by at least
    ``COLD_START_MIN_CONTRACTION``. It also keeps its previous start, and
    takes no further step, where a step or its value is not finite or g does
    not rise; and the block takes no further step where some -H_L is
    singular in floating point.

    Returns the starts and the :class:`Evaluation` there, row i for record
    i, which the ascent takes as its first point instead of evaluating the
    starts again.
    """
    params = objective.params
    rows = np.arange(objective.n_total.size)
    starts = np.tile(params.mu0, (rows.size, 1))
    at_mu0 = objective.evaluate(rows, starts)
    expected = at_mu0.expected.sum(axis=1)
    usable = (expected > 0).all(axis=1)
    log_expected = np.log(expected[usable])
    ones_weights = params.sigma0_inv.sum(axis=0)  # sigma0_inv 1, as sigma0_inv is symmetric
    shift = (params.mu0 - log_expected) @ ones_weights / ones_weights.sum()
    starts[usable] = log_expected + shift[:, None]
    point = objective.evaluate(rows, starts)
    moving = rows[usable]
    last_norm = np.abs(at_mu0.gradient()).max(axis=1)
    for _ in range(COLD_START_EM_STEPS):
        gradient = point.gradient()
        norm = np.abs(gradient).max(axis=1)
        moving = moving[COLD_START_MIN_CONTRACTION * norm[moving] <= last_norm[moving]]
        if not moving.size:
            break
        last_norm = norm
        neg_hessian = -_laplace_hessian(point.pi[moving], objective.n_total[moving], params)
        try:
            # a (R, K, 1) right-hand side is a stack of vectors on every numpy version
            step = np.linalg.solve(neg_hessian, gradient[moving, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # with about 2**53 tokens or more, N pi_k (1 - pi_k) absorbs
            # sigma0_inv and some -H_L is singular in floating point
            break
        finite = np.isfinite(step).all(axis=1)
        moving, stepped = moving[finite], starts[moving[finite]] + step[finite]
        candidate = objective.evaluate(moving, stepped)
        up = np.isfinite(candidate.value) & (candidate.value > point.value[moving])
        moving = moving[up]
        starts[moving] = stepped[up]
        accepted = candidate.take(up)
        accepted.expected  # made now, so the joined evaluation keeps every row's
        point = Evaluation.concat([point.take(np.isin(rows, moving, invert=True)), accepted])
        point = point.take(np.argsort(point.rows))
    return starts, point


def infer_block(records, params: ModelParams, starts=None):
    """Laplace posteriors for a block of records: one lockstep Newton ascent on their objectives.

    Each record starts at its row of ``starts``; training passes the previous
    EM iteration's modes as warm starts. By default each record starts a few
    EM steps past the prior mean (:func:`_cold_starts`), which takes about a
    third of the Newton iterations a start at mu0 takes at K=50 and reaches
    the same mode; the ascent reuses the evaluation the steps end with.
    :func:`~phenotopics.numerics.newton_ascent` climbs every record's
    :class:`ModeObjective` at once; a record leaves the block as soon as it
    stops. q(z) is read off at the mode, and the covariance is the inverse of
    N (diag(pi) - pi pi') + sigma0_inv there. A record counts
    as converged when the Newton step left at its returned mode is at most
    ``CONVERGED_STEP_TOL`` in sup-norm: the step is 0 where Newton met its
    gradient tolerance, and small where the float floor of the objective
    stopped the line search first. Deterministic: no randomness anywhere in
    the updates, and a record's arithmetic is its own, so the block it shares
    changes its mode only in the last digits.

    The variational objective E_q[log p(nu, z, x)] + H[q], with the
    logsumexp(nu) expectation taken to second order at the mode, is

        g(nu_hat) + (K - <-H_L, cov>) / 2 + (log det cov - log det sigma0) / 2,

    with g the :class:`ModeObjective` and H_L the :func:`_laplace_hessian`.
    The token terms plus the q(z) entropy sum to g's data term, and the
    curvature correction plus the prior's trace term sum to <-H_L, cov> / 2,
    which is K / 2 unless a ridge repaired the covariance.

    Returns the :class:`DocPosterior` of each record, in order, and the
    :class:`Evaluation` at the modes, row i for record i (its
    :meth:`Evaluation.responsibilities` give q(z) there).
    """
    objective = ModeObjective(records, params)
    start = None
    if starts is None:
        starts, start = _cold_starts(objective)
    result = newton_ascent(objective.evaluate, np.array(starts, dtype=float), start)
    mode = result.point
    hessian = _laplace_hessian(mode.pi, objective.n_total, params)
    expected = mode.expected
    posteriors = []
    for i in range(len(objective.counts)):
        nu_cov, logdet_cov = _invert_neg_hessian(hessian[i])
        elbo = (
            mode.value[i]
            + 0.5 * (params.num_phenotypes + float(np.sum(hessian[i] * nu_cov)))
            + 0.5 * (logdet_cov - params.sigma0_logdet)
        )
        posteriors.append(
            DocPosterior(
                nu_hat=result.x[i],
                nu_cov=nu_cov,
                expected_counts=expected[i],
                proportions=mode.pi[i],
                elbo=float(elbo),
                converged=bool(result.step_norm[i] <= CONVERGED_STEP_TOL),
                iterations=int(result.iterations[i]),
            )
        )
    return posteriors, mode

