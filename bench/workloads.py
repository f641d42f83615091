"""Workload inputs: sampled from a seed with the program's ``synth`` sampler
and written to disk, so the timed phase receives only files.

* ``train-correlated``: eight correlated-blocks-shaped cohorts (K=6, M=2,
  V=30, 400 tokens per type, planted rho=0.8 pair) for ``phenotopics train``.
* ``cohort-k50``: a paper-shaped cohort (K=50, M=4, V=2000), written as
  equal shards, and the planted model that generated it, saved as a model
  file.
* ``summarize-k50``: patients with five time bins each, drifting toward a
  known final phenotype, against the same kind of planted K=50 model.

``SIZES`` holds the benchmark's sizes and ``TINY`` the ones the self-tests
use; everything else is fixed here so that a seed fully determines a run's
inputs.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from phenotopics import corpus as corpus_mod
from phenotopics import learning, synth
from phenotopics.variational import ModelParams

WORKLOADS = ("train-correlated", "cohort-k50", "summarize-k50")

SIZES = {
    "train-correlated": {"cohorts": 8, "records": 15, "tokens": 400},
    "cohort-k50": {"records": 1000, "tokens": 400, "shards": 20},
    "summarize-k50": {"patients": 100, "bins": 5, "tokens": 60},
}
TINY = {
    "train-correlated": {"cohorts": 1, "records": 8, "tokens": 100},
    "cohort-k50": {"records": 30, "tokens": 200, "shards": 3},
    "summarize-k50": {"patients": 4, "bins": 3, "tokens": 60},
}

# correlated-blocks shape: six phenotypes, one planted correlated pair
TRAIN_K, TRAIN_M, TRAIN_V = 6, 2, 30
TRAIN_PAIR = (0, 1, 0.8)

# The K=50 prior: five common phenotypes, per-phenotype spreads wide enough
# that records need 1-5, 6-20 and 21+ phenotypes to reach 90% of their mass,
# and four planted correlated pairs, one of them negative.
K50, M50, V50 = 50, 4, 2000
K50_COMMON = 5
K50_COMMON_MEAN = 2.5
K50_PAIRS = ((5, 6, 0.8), (10, 20, -0.7), (30, 31, 0.75), (42, 47, 0.6))
# A patient's planted phenotype has its prior mean raised by this much in the
# final bin (linearly from 0 in the first). Less a common phenotype's 2.5 head
# start, that is more than five standard deviations of the difference of the
# two widest log proportions, so the planted phenotype leads the final bin.
DRIFT = 25.0
LABEL_TYPE = "type0"


def k50_truth():
    """Planted K=50 parameters: block topics from ``synth.Scenario`` and the
    prior described above."""
    scenario = synth.Scenario(name="k50", K=K50, M=M50, vocab_size=V50, D=1, tokens_per_type=1)
    topics = scenario.build_truth()
    sd = np.linspace(0.6, 2.2, K50)
    sd *= 1.8 / sd.mean()
    sigma0 = np.diag(sd**2)
    for i, j, rho in K50_PAIRS:
        sigma0[i, j] = sigma0[j, i] = rho * sd[i] * sd[j]
    mu0 = np.zeros(K50)
    mu0[:K50_COMMON] = K50_COMMON_MEAN
    params = ModelParams.create(mu0, sigma0, topics.log_beta)
    return params, scenario.vocabularies()


def save_planted_model(params, vocabularies, path) -> None:
    model = learning.TrainedModel(
        params=params,
        vocabularies=vocabularies,
        doc_posteriors=[],
        history=[],
        config=learning.TrainConfig(K=params.num_phenotypes),
        vocab_fingerprint=learning.vocab_fingerprint(vocabularies),
        converged=True,
    )
    learning.save_model(model, path)


def _softmax_rows(nu: np.ndarray) -> np.ndarray:
    e = np.exp(nu - nu.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _write_json(payload, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def setup(workload: str, seed: int, inputs: str, size: dict) -> None:
    """Sample the workload's inputs from ``seed`` and write them under ``inputs``.

    ``truth.json`` next to them holds what the checks compare against.
    """
    os.makedirs(inputs, exist_ok=True)
    if workload == "train-correlated":
        _setup_train(seed, inputs, size)
    elif workload == "cohort-k50":
        _setup_cohort(seed, inputs, size)
    elif workload == "summarize-k50":
        _setup_summarize(seed, inputs, size)
    else:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


def _setup_train(seed, inputs, size):
    scenario = synth.Scenario(
        name="train-correlated",
        K=TRAIN_K,
        M=TRAIN_M,
        vocab_size=TRAIN_V,
        D=size["records"],
        tokens_per_type=size["tokens"],
        sigma0_pairs=(TRAIN_PAIR,),
    )
    truth = scenario.build_truth()
    cohorts = []
    for i in range(size["cohorts"]):
        cohort_seed = seed * size["cohorts"] + i
        cohort, _ = synth.sample_corpus(
            truth, scenario.D, [scenario.tokens_per_type] * scenario.M, cohort_seed,
            vocabularies=scenario.vocabularies(),
        )
        name = f"cohort{i}"
        corpus_mod.save_corpus(cohort, os.path.join(inputs, name))
        cohorts.append({"name": name, "seed": cohort_seed})
    _write_json(
        {"topics": [np.exp(lb).tolist() for lb in truth.log_beta], "cohorts": cohorts},
        os.path.join(inputs, "truth.json"),
    )


def _setup_cohort(seed, inputs, size):
    params, vocabularies = k50_truth()
    save_planted_model(params, vocabularies, os.path.join(inputs, "model.json"))
    cohort, planted = synth.sample_corpus(
        params, size["records"], [size["tokens"]] * M50, seed, vocabularies=vocabularies
    )
    # Consecutive shards of the one sample, so that a run times many
    # operations over the same records the whole cohort holds.
    bounds = np.linspace(0, size["records"], size["shards"] + 1).astype(int)
    shards = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        name = f"shard{i:02d}"
        part = corpus_mod.Corpus(vocabularies, cohort.records[lo:hi])
        corpus_mod.save_corpus(part, os.path.join(inputs, name))
        shards.append(name)
    totals = [[sum(bag.values()) for bag in rec.bags] for rec in cohort.records]
    np.savez(
        os.path.join(inputs, "truth.npz"),
        proportions=_softmax_rows(planted.per_record_nu),
        totals=np.asarray(totals, dtype=float),
    )
    _write_json(
        {"pairs": K50_PAIRS, "label_type": LABEL_TYPE, "shards": shards},
        os.path.join(inputs, "truth.json"),
    )


def _setup_summarize(seed, inputs, size):
    params, vocabularies = k50_truth()
    save_planted_model(params, vocabularies, os.path.join(inputs, "model.json"))
    rng = np.random.default_rng(seed)
    n_bins = size["bins"]
    bin_labels = [f"visit{b}" for b in range(n_bins)]
    finals = [int(f) for f in rng.integers(0, K50, size=size["patients"])]
    segments = []
    for p, final in enumerate(finals):
        for b, label in enumerate(bin_labels):
            mu0 = params.mu0.copy()
            mu0[final] += DRIFT * b / (n_bins - 1)
            drifted = dataclasses.replace(params, mu0=mu0)
            sample, _ = synth.sample_corpus(
                drifted, 1, [size["tokens"]] * M50, seed * 1_000_003 + p * n_bins + b,
                vocabularies=vocabularies,
            )
            segments.append(
                corpus_mod.RecordBags(f"p{p:04d}", sample.records[0].bags, time_bin=label)
            )
    everyone = os.path.join(inputs, "segments")
    corpus_mod.save_corpus(corpus_mod.Corpus(vocabularies, tuple(segments)), everyone)
    # one record file per patient, in planted bin order
    lines: dict = {}
    with open(os.path.join(everyone, corpus_mod.RECORDS_FILENAME), encoding="utf-8") as fh:
        for line in fh:
            lines.setdefault(json.loads(line)["id"], []).append(line)
    os.makedirs(os.path.join(inputs, "patients"), exist_ok=True)
    for patient, patient_lines in lines.items():
        with open(os.path.join(inputs, "patients", f"{patient}.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(patient_lines)
    _write_json(
        {"bins": bin_labels, "finals": {f"p{p:04d}": f for p, f in enumerate(finals)}},
        os.path.join(inputs, "truth.json"),
    )
