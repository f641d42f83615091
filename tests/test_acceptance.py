"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and then asserts. The two synthetic-recovery
criteria dominate the runtime; the whole module finishes in well under the sum
of the per-criterion budgets.
"""

import itertools
import time

import jsonschema
import numpy as np

from phenotopics.cli import main
from phenotopics.corpus import Corpus, RecordBags, Vocabulary, save_corpus
from phenotopics.learning import TrainConfig, _e_step, initialize, m_step, train, vocab_fingerprint
from phenotopics.learning import TrainedModel
from phenotopics.phenotype import correlation_graph, covariance_to_correlation
from phenotopics.summarize import (
    SANKEY_SCHEMA,
    coverage_count,
    coverage_histogram,
    export_sankey,
    summarize_record,
)
from phenotopics.synth import get_preset, recovery_report, sample_scenario
from phenotopics.variational import ModelParams, ModeObjective

from .conftest import infer_one, make_params, random_params, random_record, two_block_corpus
from .oracles import fd_jacobian, finite_difference_gradient, scan_coverage_count


def report(number, name, passed, details):
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if passed else 'FAIL'} ({details})")
    assert passed, f"criterion {number} {name}: {details}"


def test_criterion_01_derivative_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst_grad = 0.0
    worst_hess = 0.0
    for k in (2, 5, 25):
        for _ in range(20):
            params = random_params(rng, k, [9, 5])
            lengths = [int(rng.integers(1, 60)), int(rng.integers(0, 20))]
            record = random_record(rng, params, lengths)
            objective = ModeObjective([record], params)

            def at(x):
                return objective.evaluate([0], np.asarray(x)[None])

            nu = rng.normal(scale=2.0, size=k)
            grad = at(nu).gradient()[0]
            grad_fd = finite_difference_gradient(lambda x: at(x).value[0], nu, 1e-6)
            rel = np.abs(grad - grad_fd).max() / max(1.0, np.abs(grad_fd).max())
            worst_grad = max(worst_grad, rel)
            hess = at(nu).hessian()[0]
            hess_fd = fd_jacobian(lambda x: at(x).gradient()[0], nu, 1e-5)
            worst_hess = max(worst_hess, np.abs(hess - hess_fd).max())
    elapsed = time.monotonic() - started
    report(
        1,
        "derivative-correctness",
        worst_grad <= 1e-5 and worst_hess <= 1e-4 and elapsed < 10.0,
        f"grad rel {worst_grad:.2e} <= 1e-5, hess abs {worst_hess:.2e} <= 1e-4, "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_02_laplace_no_data_returns_prior():
    started = time.monotonic()
    rng = np.random.default_rng(102)
    worst_mode = 0.0
    worst_cov = 0.0
    for k in (2, 4, 8):
        params = random_params(rng, k, [5])
        start = params.mu0 + rng.normal(size=k)
        post = infer_one(RecordBags("empty", ({},)), params, start=start)
        assert post.converged
        worst_mode = max(worst_mode, np.abs(post.nu_hat - params.mu0).max())
        worst_cov = max(worst_cov, np.abs(post.nu_cov - params.sigma0).max())
    elapsed = time.monotonic() - started
    report(
        2,
        "no-data-posterior-equals-prior",
        worst_mode <= 1e-6 and worst_cov <= 1e-6 and elapsed < 1.0,
        f"mode err {worst_mode:.2e} <= 1e-6, cov err {worst_cov:.2e} <= 1e-6, "
        f"{elapsed:.2f}s < 1s",
    )


def test_criterion_03_small_instance_posterior_oracle():
    started = time.monotonic()
    beta = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
    params = make_params([0.0, 0.0], np.eye(2), [beta])
    tokens = [0, 0, 1, 2]
    record = RecordBags("p", ({0: 2, 1: 1, 2: 1},))

    # brute force over all 2^4 assignment vectors, nu marginalized on a grid
    axis = np.linspace(-8.0, 8.0, 321)
    g0, g1 = np.meshgrid(axis, axis, indexing="ij")
    nus = np.stack([g0.ravel(), g1.ravel()], axis=1)
    shifted = np.exp(nus - nus.max(axis=1, keepdims=True))
    pis = shifted / shifted.sum(axis=1, keepdims=True)
    like = np.zeros(len(nus))
    for z in itertools.product((0, 1), repeat=len(tokens)):
        contrib = np.ones(len(nus))
        for z_n, x_n in zip(z, tokens):
            contrib = contrib * pis[:, z_n] * beta[z_n, x_n]
        like += contrib
    weights = like * np.exp(-0.5 * (nus**2).sum(axis=1))
    oracle_mean = (weights[:, None] * pis).sum(axis=0) / weights.sum()

    post = infer_one(record, params)
    ranking = np.argsort(-post.proportions)
    oracle_ranking = np.argsort(-oracle_mean)
    gap = float(np.abs(post.proportions - oracle_mean).max())
    elapsed = time.monotonic() - started
    report(
        3,
        "small-instance-posterior-oracle",
        bool(np.array_equal(ranking, oracle_ranking)) and gap <= 0.1 and elapsed < 30.0,
        f"ranking {ranking.tolist()} == oracle {oracle_ranking.tolist()}, "
        f"max gap {gap:.3f} <= 0.1, {elapsed:.1f}s < 30s",
    )


def test_criterion_04_separable_topic_recovery():
    started = time.monotonic()
    scenario = get_preset("separable")
    corpus, planted = sample_scenario(scenario, seed=42)
    model = train(
        corpus, TrainConfig(K=scenario.K, seed=42, max_em_iters=200, em_tol=1e-5)
    )
    result = recovery_report(model, planted)
    elapsed = time.monotonic() - started
    report(
        4,
        "separable-topic-recovery",
        result.mean_tv <= 0.10 and len(model.history) <= 200,
        f"mean TV {result.mean_tv:.4f} <= 0.10 after {len(model.history)} EM iters, "
        f"{elapsed:.0f}s (target 300s)",
    )


def test_criterion_05_correlation_recovery():
    started = time.monotonic()
    scenario = get_preset("correlated-blocks")
    corpus, planted = sample_scenario(scenario, seed=42)
    model = train(
        corpus, TrainConfig(K=scenario.K, seed=42, max_em_iters=200, em_tol=1e-5)
    )
    result = recovery_report(model, planted, corr_threshold=0.5)
    assert len(result.correlation_recovery) == 1
    learned_rho = result.correlation_recovery[0]["learned_rho"]

    corr = covariance_to_correlation(model.params.sigma0)
    off_diag = np.abs(corr - np.diag(np.diag(corr)))
    max_off = float(off_diag.max())
    elapsed = time.monotonic() - started
    report(
        5,
        "correlation-recovery",
        learned_rho > 0.3 and abs(learned_rho) >= max_off - 1e-12 and elapsed < 600.0,
        f"planted pair learned rho {learned_rho:.3f} > 0.3, "
        f"max off-diagonal {max_off:.3f}, {elapsed:.0f}s < 600s",
    )


def test_criterion_06_normalization_and_conservation():
    scenario = get_preset("overlapping")
    corpus_full, _ = sample_scenario(scenario, seed=7)
    corpus = Corpus(vocabularies=corpus_full.vocabularies, records=corpus_full.records[:40])
    cfg = TrainConfig(K=scenario.K, seed=7)
    params = initialize(corpus, cfg)
    warm = [params.mu0] * corpus.num_records

    worst_row = 0.0
    worst_resp = 0.0
    worst_conserve = 0.0
    sigma_pd = True
    for _ in range(8):
        posts, topic_counts = _e_step(corpus.records, params, warm, threads=1, topic_counts=True)
        modes = ModeObjective(corpus.records, params).evaluate(
            np.arange(corpus.num_records), [post.nu_hat for post in posts]
        )
        for i, (rec, post) in enumerate(zip(corpus.records, posts)):
            resp = modes.responsibilities(i)
            for m, bag in enumerate(rec.bags):
                if bag:
                    sums = resp[m].sum(axis=0)
                    worst_resp = max(worst_resp, float(np.abs(sums - 1.0).max()))
                worst_conserve = max(
                    worst_conserve,
                    abs(float(post.expected_counts[m].sum()) - sum(bag.values())),
                )
        for m, counts in enumerate(topic_counts):
            total = sum(sum(rec.bags[m].values()) for rec in corpus.records)
            worst_conserve = max(worst_conserve, abs(float(counts.sum()) - total) / total)
        warm = [p.nu_hat for p in posts]
        params = m_step(posts, topic_counts, params)
        for lb in params.log_beta:
            worst_row = max(worst_row, float(np.abs(np.exp(lb).sum(axis=1) - 1.0).max()))
        try:
            np.linalg.cholesky(params.sigma0)
        except np.linalg.LinAlgError:
            sigma_pd = False
    report(
        6,
        "normalization-and-conservation",
        worst_row <= 1e-9 and worst_resp <= 1e-9 and worst_conserve <= 1e-9 and sigma_pd,
        f"beta row err {worst_row:.1e}, q(z) err {worst_resp:.1e}, "
        f"count err {worst_conserve:.1e} (all <= 1e-9), sigma0 PD {sigma_pd}",
    )


def test_criterion_07_determinism_and_parallel_equivalence(tmp_path):
    corpus_path = tmp_path / "corpus"
    save_corpus(two_block_corpus(), corpus_path)
    outputs = {}
    for label, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / label
        code = main(
            ["train", "--corpus", str(corpus_path), "--k", "2", "--seed", "11",
             "--max-em-iters", "8", "--threads", threads, "--out", str(out)]
        )
        assert code in (0, 3)
        outputs[label] = (
            (out / "model.json").read_bytes(),
            (out / "history.csv").read_bytes(),
        )
    same_seed = outputs["a"] == outputs["b"]
    threads_equal = outputs["a"] == outputs["c"]
    report(
        7,
        "determinism-and-parallel-equivalence",
        same_seed and threads_equal,
        f"same-seed bitwise {same_seed}, threads 1 vs 3 identical {threads_equal}",
    )


def test_criterion_08_coverage_statistic():
    rng = np.random.default_rng(108)
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(1, 40))
        p = rng.dirichlet(np.full(k, float(rng.uniform(0.05, 5.0))))
        mass = float(rng.uniform(0.05, 1.0))
        if coverage_count(p, mass) != scan_coverage_count(p, mass):
            mismatches += 1

    # documented buckets partition every record at mass 0.9
    k = 30
    posts = []
    from .test_phenotype import model_from, posterior_with_proportions

    for _ in range(200):
        posts.append(posterior_with_proportions(rng.dirichlet(np.full(k, 0.2))))
    vocab = (Vocabulary("dx", tuple(f"t{i}" for i in range(k))),)
    model = model_from(np.zeros(k), np.eye(k), [np.full((k, k), 1.0 / k)], vocab, posts)
    fractions = coverage_histogram(model, mass=0.9)
    partition_ok = abs(sum(fractions.values()) - 1.0) <= 1e-12
    report(
        8,
        "coverage-statistic",
        mismatches == 0 and partition_ok,
        f"{mismatches}/1000 oracle mismatches, bucket fractions sum "
        f"{sum(fractions.values()):.12f}",
    )


def test_criterion_09_summarization_contract(tmp_path):
    # planted 5-bin patient: phenotype 0 weight ramps 0.2 -> 0.8
    k, v = 3, 18
    beta = np.full((k, v), 0.01 / (v - 6))
    for i in range(k):
        beta[i, 6 * i : 6 * i + 6] = 0.99 / 6
    beta /= beta.sum(axis=1, keepdims=True)
    params = make_params(np.zeros(k), np.eye(k), [beta])
    model = TrainedModel(
        params=params,
        vocabularies=(Vocabulary("dx", tuple(f"t{i}" for i in range(v))),),
        doc_posteriors=[],
        history=[],
        config=TrainConfig(K=k),
        vocab_fingerprint=vocab_fingerprint(
            (Vocabulary("dx", tuple(f"t{i}" for i in range(v))),)
        ),
        converged=True,
    )

    rng = np.random.default_rng(109)
    segments = []
    ramp = [0.2, 0.35, 0.5, 0.65, 0.8]
    for b, w in enumerate(ramp):
        weights = np.array([w, (1 - w) * 0.6, (1 - w) * 0.4])
        counts = np.zeros(v, dtype=int)
        for i in range(k):
            counts += rng.multinomial(int(round(200 * weights[i])), beta[i])
        bag = {int(t): int(c) for t, c in enumerate(counts) if c}
        segments.append(RecordBags("patient", (bag,), time_bin=f"bin{b}"))

    trajectory = summarize_record(segments, model, top_n=2)
    assert 0 in trajectory.selected
    s = trajectory.salience[:, trajectory.selected.index(0)]
    monotone = bool(np.all(np.diff(s) >= -0.1))
    sums = trajectory.salience.sum(axis=1) + trajectory.residual
    sums_ok = bool(np.abs(sums - 1.0).max() <= 1e-9)

    sankey_path = tmp_path / "sankey.json"
    export_sankey(trajectory, sankey_path)
    import json

    payload = json.loads(sankey_path.read_text())
    jsonschema.validate(payload, SANKEY_SCHEMA)
    report(
        9,
        "summarization-contract",
        monotone and sums_ok,
        f"ramp salience {np.round(s, 2).tolist()} monotone within 0.1 {monotone}, "
        f"selected+residual=1 within 1e-9 {sums_ok}, sankey schema valid",
    )


def test_criterion_10_threshold_semantics():
    def model_with_sigma(sigma):
        sigma = np.asarray(sigma, dtype=float)
        k = sigma.shape[0]
        vocab = (Vocabulary("dx", tuple(f"t{i}" for i in range(k))),)
        params = ModelParams.create(
            np.zeros(k), sigma, [np.log(np.full((k, k), 1.0 / k))]
        )
        return TrainedModel(
            params=params,
            vocabularies=vocab,
            doc_posteriors=[],
            history=[],
            config=TrainConfig(K=k),
            vocab_fingerprint=vocab_fingerprint(vocab),
            converged=True,
        )

    at_half = correlation_graph(model_with_sigma([[4.0, 1.0], [1.0, 1.0]]), threshold=0.5)
    above = correlation_graph(model_with_sigma([[1.0, 0.6], [0.6, 1.0]]), threshold=0.5)
    strict_ok = at_half.edges == []
    edge_ok = len(above.edges) == 1 and above.edges[0][:2] == (0, 1)
    report(
        10,
        "threshold-semantics",
        strict_ok and edge_ok,
        f"rho=0.5 excluded (strict) {strict_ok}, rho=0.6 yields one edge {edge_ok}",
    )
