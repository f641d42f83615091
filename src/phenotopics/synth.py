"""Generative sampler and recovery metrics against planted ground truth.

Sampling follows the model's own generative story: per record draw log
proportions from the Gaussian prior, assign every token to a phenotype from
softmax(nu), then draw the token from that phenotype's per-type distribution.
Each record gets its own seeded stream (derived from the base seed and the
record index) so records can be generated in parallel and stay bitwise
reproducible.

Named scenario presets pin the synthetic setups used by the verification
suite; a scenario can also round-trip through a small JSON description.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
import scipy.optimize

from .corpus import Corpus, RecordBags, Vocabulary
from .learning import TrainedModel
from .numerics import softmax
from .phenotype import covariance_to_correlation
from .variational import ModelParams

# Exact cost ties (identical rows) are the only case where assignment optima
# can differ; resolve them toward the lexicographically smallest permutation.
_TIE_TOL = 1e-12


@dataclass
class PlantedModel:
    """Ground truth behind a sampled corpus.

    ``per_token_assignments``, when retained, stores for each record an (M, K)
    matrix of how many type-m tokens were assigned to each phenotype; the bag
    representation makes per-occurrence order meaningless.
    """

    params: ModelParams
    per_record_nu: np.ndarray
    per_token_assignments: list | None
    seed: int


@dataclass
class RecoveryReport:
    """How well a trained model recovered a planted one, after label matching."""

    matching: list
    per_phenotype_tv: np.ndarray  # (K, M)
    mean_tv: float
    correlation_recovery: list


@dataclass(frozen=True)
class Scenario:
    """Recipe for a synthetic truth: block topics plus a structured prior.

    Each phenotype concentrates ``block_mass`` of each type's distribution on
    its own contiguous token block (blocks overlap when ``block_overlap`` > 0);
    the rest spreads uniformly. ``sigma0_pairs`` lists (i, j, rho) correlations
    planted into the prior covariance.
    """

    name: str
    K: int
    M: int
    vocab_size: int
    D: int
    tokens_per_type: int
    block_mass: float = 0.95
    block_overlap: int = 0
    sigma0_pairs: tuple = ()

    def __post_init__(self):
        if self.K < 1 or self.M < 1 or self.D < 1:
            raise ValueError("K, M and D must be >= 1")
        if self.K > self.vocab_size:
            raise ValueError(
                f"K={self.K} exceeds vocab_size={self.vocab_size}: "
                "every phenotype needs a token block of its own"
            )
        if self.tokens_per_type < 0 or self.block_overlap < 0:
            raise ValueError("tokens_per_type and block_overlap must be non-negative")
        if not 0.0 <= self.block_mass <= 1.0:
            raise ValueError("block_mass must lie in [0, 1]")
        for i, j, _ in self.sigma0_pairs:
            if not (0 <= i < self.K and 0 <= j < self.K and i != j):
                raise ValueError(f"sigma0 pair ({i}, {j}) is not two distinct phenotypes")

    def vocabularies(self) -> tuple:
        return tuple(
            Vocabulary(
                type_name=f"type{m}",
                tokens=tuple(f"t{m}_w{v:04d}" for v in range(self.vocab_size)),
            )
            for m in range(self.M)
        )

    def build_truth(self) -> ModelParams:
        k, v = self.K, self.vocab_size
        width = v // k + self.block_overlap
        log_beta = []
        for _ in range(self.M):
            rows = np.full((k, v), (1.0 - self.block_mass) / v)
            for i in range(k):
                start = i * (v // k)
                block = np.arange(start, start + width) % v
                rows[i, block] += self.block_mass / width
            rows /= rows.sum(axis=1, keepdims=True)
            log_beta.append(np.log(rows))
        sigma0 = np.eye(k)
        for i, j, rho in self.sigma0_pairs:
            sigma0[i, j] = sigma0[j, i] = rho
        return ModelParams.create(np.zeros(k), sigma0, log_beta)


PRESETS = {
    "separable": Scenario(
        name="separable", K=5, M=3, vocab_size=40, D=1000, tokens_per_type=80
    ),
    "correlated-blocks": Scenario(
        name="correlated-blocks",
        K=6,
        M=2,
        vocab_size=30,
        D=2000,
        tokens_per_type=60,
        sigma0_pairs=((0, 1, 0.8),),
    ),
    "overlapping": Scenario(
        name="overlapping",
        K=4,
        M=2,
        vocab_size=24,
        D=400,
        tokens_per_type=40,
        block_mass=0.9,
        block_overlap=3,
    ),
}


def get_preset(name: str) -> Scenario:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(scenario), fh, indent=2)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["sigma0_pairs"] = tuple(tuple(p) for p in raw.get("sigma0_pairs", ()))
    return Scenario(**raw)


def _record_rng(seed: int, record_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, record_index)))


def sample_corpus(
    truth: ModelParams,
    D: int,
    lengths,
    seed: int,
    vocabularies=None,
    retain_assignments: bool = False,
):
    """Draw a corpus of D records from ``truth``; returns (Corpus, PlantedModel).

    ``lengths[m]`` is the number of type-m tokens per record. Per-record
    streams make the draw order-independent and bitwise reproducible.
    """
    truth.validate()
    if D < 1:
        raise ValueError("D must be >= 1")
    lengths = [int(n) for n in lengths]
    if len(lengths) != truth.num_types or any(n < 0 for n in lengths):
        raise ValueError("lengths must give a non-negative count per type")
    if vocabularies is None:
        vocabularies = tuple(
            Vocabulary(
                type_name=f"type{m}",
                tokens=tuple(f"t{m}_w{v:04d}" for v in range(lb.shape[1])),
            )
            for m, lb in enumerate(truth.log_beta)
        )
    betas = [np.exp(lb) for lb in truth.log_beta]
    chol = np.linalg.cholesky(truth.sigma0)
    k = truth.num_phenotypes

    nus = np.empty((D, k))
    assignments = [] if retain_assignments else None
    records = []
    width = max(5, len(str(D - 1)))
    for d in range(D):
        rng = _record_rng(seed, d)
        nu = truth.mu0 + chol @ rng.standard_normal(k)
        nus[d] = nu
        pi = softmax(nu)
        bags = []
        z_counts = np.zeros((truth.num_types, k), dtype=np.int64)
        for m, n_m in enumerate(lengths):
            if n_m == 0:
                bags.append({})
                continue
            z = rng.multinomial(n_m, pi)
            z_counts[m] = z
            token_counts = np.zeros(betas[m].shape[1], dtype=np.int64)
            for topic, n_topic in enumerate(z):
                if n_topic:
                    token_counts += rng.multinomial(n_topic, betas[m][topic])
            occupied = np.nonzero(token_counts)[0]
            bags.append({int(v): int(token_counts[v]) for v in occupied})
        records.append(RecordBags(record_id=f"rec{d:0{width}d}", bags=tuple(bags)))
        if retain_assignments:
            assignments.append(z_counts)

    corpus = Corpus(vocabularies=tuple(vocabularies), records=tuple(records))
    planted = PlantedModel(
        params=truth, per_record_nu=nus, per_token_assignments=assignments, seed=seed
    )
    return corpus, planted


def sample_scenario(scenario: Scenario, seed: int, retain_assignments: bool = False):
    truth = scenario.build_truth()
    return sample_corpus(
        truth,
        scenario.D,
        [scenario.tokens_per_type] * scenario.M,
        seed,
        vocabularies=scenario.vocabularies(),
        retain_assignments=retain_assignments,
    )


def _tv_cost_matrix(learned: ModelParams, truth: ModelParams) -> np.ndarray:
    """cost[i, j] = TV distance between learned row i and truth row j, summed
    over types (equals the TV of the concatenated rows)."""
    k = learned.num_phenotypes
    cost = np.zeros((k, k))
    for lb_learned, lb_truth in zip(learned.log_beta, truth.log_beta):
        a = np.exp(lb_learned)
        b = np.exp(lb_truth)
        cost += 0.5 * np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
    return cost


def _min_assignment_cost(cost: np.ndarray) -> float:
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def match_phenotypes(learned: ModelParams, truth: ModelParams) -> list:
    """Bijection minimizing total TV between matched topic rows.

    Returns ``perm`` with learned phenotype i matched to truth phenotype
    ``perm[i]``. Among equal-cost assignments the lexicographically smallest
    permutation wins, fixed one row at a time against the optimal completion
    cost of the remainder.
    """
    if learned.num_phenotypes != truth.num_phenotypes:
        raise ValueError("phenotype counts differ")
    if learned.num_types != truth.num_types:
        raise ValueError("type counts differ")
    for lb_l, lb_t in zip(learned.log_beta, truth.log_beta):
        if lb_l.shape != lb_t.shape:
            raise ValueError("vocabulary sizes differ")

    cost = _tv_cost_matrix(learned, truth)
    k = cost.shape[0]
    target = _min_assignment_cost(cost)
    available = list(range(k))
    perm = []
    for i in range(k):
        for j in available:
            remaining = [c for c in available if c != j]
            tail = (
                _min_assignment_cost(cost[np.ix_(range(i + 1, k), remaining)])
                if remaining
                else 0.0
            )
            if cost[i, j] + tail <= target + _TIE_TOL:
                perm.append(j)
                available.remove(j)
                target -= cost[i, j]
                break
        else:
            raise RuntimeError("assignment refinement failed to place a row")
    return perm


def recovery_report(
    learned: TrainedModel, planted: PlantedModel, corr_threshold: float = 0.5
) -> RecoveryReport:
    """Match learned to planted phenotypes and score the recovery.

    ``per_phenotype_tv[i, m]`` is the type-m TV distance between learned row i
    and its matched truth row; ``correlation_recovery`` reports, for every
    planted pair with |rho| above the threshold, the learned correlation of
    the matched pair.
    """
    truth = planted.params
    perm = match_phenotypes(learned.params, truth)
    k = truth.num_phenotypes

    tv = np.zeros((k, truth.num_types))
    for m, (lb_l, lb_t) in enumerate(zip(learned.params.log_beta, truth.log_beta)):
        a = np.exp(lb_l)
        b = np.exp(lb_t)
        for i in range(k):
            tv[i, m] = 0.5 * np.abs(a[i] - b[perm[i]]).sum()

    inv_perm = {truth_i: learned_i for learned_i, truth_i in enumerate(perm)}
    planted_corr = covariance_to_correlation(truth.sigma0)
    learned_corr = covariance_to_correlation(learned.params.sigma0)
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            if abs(planted_corr[i, j]) > corr_threshold:
                pairs.append(
                    {
                        "truth_i": i,
                        "truth_j": j,
                        "planted_rho": float(planted_corr[i, j]),
                        "learned_rho": float(learned_corr[inv_perm[i], inv_perm[j]]),
                    }
                )

    return RecoveryReport(
        matching=perm,
        per_phenotype_tv=tv,
        mean_tv=float(tv.mean()),
        correlation_recovery=pairs,
    )
