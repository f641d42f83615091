"""Generative sampler and recovery metrics against planted ground truth.

Sampling follows the model's own generative story: per record draw log
proportions from the Gaussian prior, assign every token to a phenotype from
softmax(nu), then draw the token from that phenotype's per-type distribution.
Each record gets its own seeded stream (derived from the base seed and the
record index) so records can be generated in parallel and stay bitwise
reproducible.

Recovery is scored by matching learned to planted phenotypes on the total
variation (TV) distance between their topic rows, computed once per type and
summed over types for the matching.

Named scenario presets pin the synthetic setups used by the verification
suite; a scenario can also round-trip through a small JSON description.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import MAX_COUNT, Corpus, RecordBags, Vocabulary
from .learning import TrainedModel
from .numerics import softmax
from .phenotype import covariance_to_correlation
from .variational import ModelParams

# Exact cost ties (identical rows) are the only case where assignment optima
# can differ; resolve them toward the lexicographically smallest permutation.
_TIE_TOL = 1e-12


@dataclass
class PlantedModel:
    """Ground truth behind a sampled corpus: the parameters it was drawn from,
    each record's drawn log proportions ``per_record_nu`` (D, K), and the seed.
    """

    params: ModelParams
    per_record_nu: np.ndarray
    seed: int


@dataclass
class RecoveryReport:
    """How well a trained model recovered a planted one, after label matching."""

    matching: list
    per_phenotype_tv: np.ndarray  # (K, M)
    mean_tv: float
    correlation_recovery: list


def _synthetic_vocabularies(sizes) -> tuple:
    """Type m is named ``type{m}`` and its token v ``t{m}_w{v:04d}``."""
    return tuple(
        Vocabulary(type_name=f"type{m}", tokens=tuple(f"t{m}_w{v:04d}" for v in range(size)))
        for m, size in enumerate(sizes)
    )


# Largest M * K * vocab_size a Scenario accepts (see Scenario).
MAX_TOPIC_ENTRIES = 4 * 10**6


@dataclass(frozen=True)
class Scenario:
    """Recipe for a synthetic truth: block topics plus a structured prior.

    Each phenotype concentrates ``block_mass`` of each type's distribution on
    its own contiguous token block (blocks overlap when ``block_overlap`` > 0);
    the rest spreads uniformly. ``sigma0_pairs`` lists (i, j, rho) correlations
    planted into the prior covariance.

    The sizes are exact integers (``type(x) is int``, so no bools or floats),
    ``tokens_per_type`` is at most ``corpus.MAX_COUNT``, ``block_mass`` is a
    number and every pair is a 3-tuple of two integers and a number; anything
    else raises ValueError. So does a scenario whose topic matrices, were
    they not shared, would hold more than ``MAX_TOPIC_ENTRIES`` = 4 * 10**6
    entries (M * K * vocab_size): at that bound :meth:`build_truth` takes
    about a second (0.8 s CPU at K = vocab_size = 1 and M = 4 * 10**6, 0.95 s
    at M = 1 and K = vocab_size = 2000, on a 2-vCPU VM), and its time grows
    with each factor.
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
        for field in ("K", "M", "vocab_size", "D", "tokens_per_type", "block_overlap"):
            value = getattr(self, field)
            if type(value) is not int:
                raise ValueError(f"{field} must be an integer, got {value!r}")
        if type(self.name) is not str:
            raise ValueError(f"name must be a string, got {self.name!r}")
        if type(self.block_mass) not in (int, float) or not 0.0 <= self.block_mass <= 1.0:
            raise ValueError(f"block_mass must be a number in [0, 1], got {self.block_mass!r}")
        if self.K < 1 or self.M < 1 or self.D < 1:
            raise ValueError("K, M and D must be >= 1")
        if self.M * self.K * self.vocab_size > MAX_TOPIC_ENTRIES:
            raise ValueError(
                f"M * K * vocab_size = {self.M * self.K * self.vocab_size} exceeds "
                f"{MAX_TOPIC_ENTRIES} topic entries"
            )
        if self.K > self.vocab_size:
            raise ValueError(
                f"K={self.K} exceeds vocab_size={self.vocab_size}: "
                "every phenotype needs a token block of its own"
            )
        if self.tokens_per_type < 0 or self.block_overlap < 0:
            raise ValueError("tokens_per_type and block_overlap must be non-negative")
        if self.tokens_per_type > MAX_COUNT:
            raise ValueError(f"tokens_per_type must be at most {MAX_COUNT}")
        if type(self.sigma0_pairs) is not tuple:
            raise ValueError(f"sigma0_pairs must be a tuple, got {self.sigma0_pairs!r}")
        for pair in self.sigma0_pairs:
            if not (
                type(pair) is tuple
                and len(pair) == 3
                and type(pair[0]) is int
                and type(pair[1]) is int
                and type(pair[2]) in (int, float)
            ):
                raise ValueError(f"sigma0 pair {pair!r} is not (i, j, rho)")
            i, j, _ = pair
            if not (0 <= i < self.K and 0 <= j < self.K and i != j):
                raise ValueError(f"sigma0 pair ({i}, {j}) is not two distinct phenotypes")

    def vocabularies(self) -> tuple:
        return _synthetic_vocabularies([self.vocab_size] * self.M)

    def build_truth(self) -> ModelParams:
        """Every type gets the same K x V block topics, built once and shared,
        so the only step whose size grows with M is one list of M references
        (``MAX_TOPIC_ENTRIES`` bounds M x K x V before this runs)."""
        k, v = self.K, self.vocab_size
        width = v // k + self.block_overlap
        rows = np.full((k, v), (1.0 - self.block_mass) / v)
        for i in range(k):
            start = i * (v // k)
            block = np.arange(start, start + width) % v
            rows[i, block] += self.block_mass / width
        rows /= rows.sum(axis=1, keepdims=True)
        sigma0 = np.eye(k)
        for i, j, rho in self.sigma0_pairs:
            sigma0[i, j] = sigma0[j, i] = rho
        return ModelParams.create(np.zeros(k), sigma0, [np.log(rows)] * self.M)


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


class ScenarioFormatError(ValueError):
    """Scenario file cannot be parsed as a JSON object."""


def _tuples(value):
    """JSON arrays, at any depth, as tuples; anything else unchanged."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def load_scenario(path) -> Scenario:
    """Read a scenario saved by :func:`save_scenario`.

    A file that is not UTF-8 JSON holding an object raises
    ``ScenarioFormatError``; an object that is not a valid scenario (a missing
    or unknown field, a value of the wrong type or out of range) raises a plain
    ValueError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (RecursionError, ValueError) as exc:  # bad JSON or UTF-8, too deep, or an over-long int
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioFormatError(f"{path}: expected a JSON object")
    if "sigma0_pairs" in raw:
        raw["sigma0_pairs"] = _tuples(raw["sigma0_pairs"])
    try:
        return Scenario(**raw)
    except TypeError as exc:  # a missing or unknown field
        raise ValueError(str(exc)) from exc


def _record_rng(seed: int, record_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, record_index)))


def sample_corpus(
    truth: ModelParams,
    D: int,
    lengths,
    seed: int,
    vocabularies=None,
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
        vocabularies = _synthetic_vocabularies(lb.shape[1] for lb in truth.log_beta)
    betas = [np.exp(lb) for lb in truth.log_beta]
    chol = np.linalg.cholesky(truth.sigma0)
    k = truth.num_phenotypes

    nus = np.empty((D, k))
    records = []
    width = max(5, len(str(D - 1)))
    for d in range(D):
        rng = _record_rng(seed, d)
        nu = truth.mu0 + chol @ rng.standard_normal(k)
        nus[d] = nu
        pi = softmax(nu)
        bags = []
        for m, n_m in enumerate(lengths):
            if n_m == 0:
                bags.append({})
                continue
            z = rng.multinomial(n_m, pi)
            token_counts = np.zeros(betas[m].shape[1], dtype=np.int64)
            for topic, n_topic in enumerate(z):
                if n_topic:
                    token_counts += rng.multinomial(n_topic, betas[m][topic])
            occupied = np.nonzero(token_counts)[0]
            bags.append({int(v): int(token_counts[v]) for v in occupied})
        records.append(RecordBags(record_id=f"rec{d:0{width}d}", bags=tuple(bags)))

    corpus = Corpus(vocabularies=tuple(vocabularies), records=tuple(records))
    return corpus, PlantedModel(params=truth, per_record_nu=nus, seed=seed)


def sample_scenario(scenario: Scenario, seed: int):
    truth = scenario.build_truth()
    return sample_corpus(
        truth,
        scenario.D,
        [scenario.tokens_per_type] * scenario.M,
        seed,
        vocabularies=scenario.vocabularies(),
    )


def _min_assignment_cost(cost: np.ndarray) -> float:
    # imported here, not at the top: only eval matches phenotypes, and the
    # import would cost every other command about 0.1 s of CPU and 20 MB
    import scipy.optimize

    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def match_phenotypes(learned: ModelParams, truth: ModelParams) -> list:
    """Bijection minimizing total TV between matched topic rows.

    Returns ``perm`` with learned phenotype i matched to truth phenotype
    ``perm[i]``. Among equal-cost assignments the lexicographically smallest
    permutation wins, fixed one row at a time against the optimal completion
    cost of the remainder.
    """
    return _match(learned, truth)[0]


def _match(learned: ModelParams, truth: ModelParams):
    """``(perm, tv_by_type)`` of :func:`match_phenotypes`, where
    ``tv_by_type[m][i, j]`` is the type-m TV distance between learned row i and
    truth row j."""
    if learned.num_phenotypes != truth.num_phenotypes:
        raise ValueError("phenotype counts differ")
    if learned.num_types != truth.num_types:
        raise ValueError("type counts differ")
    for lb_l, lb_t in zip(learned.log_beta, truth.log_beta):
        if lb_l.shape != lb_t.shape:
            raise ValueError("vocabulary sizes differ")

    tv_by_type = [
        0.5 * np.abs(np.exp(lb_l)[:, None, :] - np.exp(lb_t)[None, :, :]).sum(axis=2)
        for lb_l, lb_t in zip(learned.log_beta, truth.log_beta)
    ]
    # summed in type order: the TV of the concatenated rows
    cost = sum(tv_by_type)
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
    return perm, tv_by_type


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
    perm, tv_by_type = _match(learned.params, truth)
    k = truth.num_phenotypes
    tv = np.stack([tv_m[np.arange(k), perm] for tv_m in tv_by_type], axis=1)

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
