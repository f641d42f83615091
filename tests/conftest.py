"""Shared builders for small model instances and corpora."""

import numpy as np
import pytest

from phenotopics.corpus import Corpus, RecordBags, Vocabulary
from phenotopics.synth import Scenario
from phenotopics.variational import ModelParams


def make_params(mu0, sigma0, betas):
    """ModelParams from dense probability rows (one matrix per type)."""
    return ModelParams.create(
        np.asarray(mu0, dtype=float),
        np.asarray(sigma0, dtype=float),
        [np.log(np.asarray(b, dtype=float)) for b in betas],
    )


def random_params(rng, k, vocab_sizes, concentration=0.5):
    root = rng.normal(size=(k, k)) / np.sqrt(k)
    sigma0 = root @ root.T + np.eye(k) * 0.5
    mu0 = rng.normal(size=k) * 0.5
    betas = [rng.dirichlet(np.full(v, concentration), size=k) for v in vocab_sizes]
    return make_params(mu0, sigma0, betas)


def random_record(rng, params, n_tokens_per_type, record_id="r0"):
    bags = []
    for lb, n in zip(params.log_beta, n_tokens_per_type):
        v = lb.shape[1]
        bag = {}
        for x in rng.integers(0, v, size=n):
            bag[int(x)] = bag.get(int(x), 0) + 1
        bags.append(bag)
    return RecordBags(record_id=record_id, bags=tuple(bags))


def k50_params():
    """A K=50 model over four types shaped like a clinical cohort's: block
    topics from :class:`~phenotopics.synth.Scenario` over 2,000 tokens per
    type, five common phenotypes (prior mean 2.5), prior standard deviations
    spread linearly around a mean of 1.8 and one planted correlation of 0.8.

    Returns the params and the vocabularies."""
    k = 50
    scenario = Scenario(name="k50", K=k, M=4, vocab_size=2000, D=1, tokens_per_type=1,
                        sigma0_pairs=((5, 6, 0.8),))
    topics = scenario.build_truth()
    sd = np.linspace(0.6, 2.2, k) * (1.8 / 1.4)
    mu0 = np.where(np.arange(k) < 5, 2.5, 0.0)
    params = ModelParams.create(mu0, topics.sigma0 * np.outer(sd, sd), topics.log_beta)
    return params, scenario.vocabularies()


def crawling_k50_record():
    """A K=50 record whose cold-start Newton ascent runs out of iterations.

    Its 42 million tokens fall on the 8 tokens of one type, topic rows are
    Dirichlet(0.5) over them and the prior is a random SPD one. With K far
    above the record's distinct tokens the data leave most directions flat,
    and the damped steps crawl there: from the cold start this record needs
    182 Newton iterations, past ``NEWTON_MAX_ITERS`` = 100 (seed 5 of 12
    tried; six capped). Returns the params and the record.
    """
    rng = np.random.default_rng(5)
    params = random_params(rng, 50, [8])
    pi = rng.dirichlet(np.full(50, 0.5))
    counts = rng.multinomial(42_000_000, pi @ np.exp(params.log_beta[0]))
    bag = {v: int(c) for v, c in enumerate(counts) if c}
    return params, RecordBags("crawler", (bag,))


def two_block_corpus(per_population=6, tokens_per_record=12):
    """Two disjoint token populations: records use either tokens 0-2 or 3-5."""
    vocab = Vocabulary("dx", tuple(f"w{i}" for i in range(6)))
    rng = np.random.default_rng(11)
    records = []
    for d in range(per_population * 2):
        block = 0 if d < per_population else 3
        bag = {}
        for x in rng.integers(block, block + 3, size=tokens_per_record):
            bag[int(x)] = bag.get(int(x), 0) + 1
        records.append(RecordBags(f"rec{d:02d}", (bag,)))
    return Corpus(vocabularies=(vocab,), records=tuple(records))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
