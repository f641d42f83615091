"""Variational EM: initialization, M-step, training loop, model I/O."""

import json

import numpy as np
import pytest

from phenotopics import learning
from phenotopics.corpus import Corpus, RecordBags, Vocabulary
from phenotopics.learning import (
    FingerprintError,
    ModelFormatError,
    TrainConfig,
    _e_step,
    attach_posteriors,
    check_compatible,
    initialize,
    load_model,
    m_step,
    save_model,
    train,
    vocab_fingerprint,
)
from phenotopics.synth import get_preset, match_phenotypes, sample_corpus, sample_scenario
from phenotopics.variational import DocPosterior, ModelParams, infer_document

from .conftest import make_params, two_block_corpus


def tiny_corpus(num_types=1, vocab_size=4, num_records=3):
    vocabs = tuple(
        Vocabulary(f"type{m}", tuple(f"w{m}_{v}" for v in range(vocab_size)))
        for m in range(num_types)
    )
    rng = np.random.default_rng(5)
    records = []
    for d in range(num_records):
        bags = []
        for _ in range(num_types):
            draw = rng.integers(0, vocab_size, size=6)
            bag = {}
            for x in draw:
                bag[int(x)] = bag.get(int(x), 0) + 1
            bags.append(bag)
        records.append(RecordBags(f"rec{d}", tuple(bags)))
    return Corpus(vocabularies=vocabs, records=tuple(records))


def manual_posterior(nu_hat, nu_cov, expected):
    return DocPosterior(
        nu_hat=np.asarray(nu_hat, dtype=float),
        nu_cov=np.asarray(nu_cov, dtype=float),
        expected_counts=np.asarray(expected, dtype=float),
        proportions=np.full(len(nu_hat), 1.0 / len(nu_hat)),
        elbo=0.0,
        converged=True,
        iterations=1,
    )


# q(z) at nu = 0 is the column of beta normalized over phenotypes, so a
# probability of 1e-300 against 0.5 or more assigns a token wholly elsewhere.
TINY = 1e-300


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="K"):
            TrainConfig(K=1)


class TestInitialize:
    def test_zero_noise_gives_exactly_uniform_rows(self, monkeypatch):
        monkeypatch.setattr(learning, "INIT_NOISE", 0.0)
        corpus = tiny_corpus(num_types=2, vocab_size=5)
        params = initialize(corpus, TrainConfig(K=3, seed=0))
        for lb in params.log_beta:
            np.testing.assert_array_equal(np.exp(lb), np.full(lb.shape, 1 / lb.shape[1]))
        np.testing.assert_array_equal(params.mu0, np.zeros(3))
        np.testing.assert_array_equal(params.sigma0, np.eye(3))

    def test_same_seed_bitwise_identical(self):
        corpus = tiny_corpus()
        a = initialize(corpus, TrainConfig(K=4, seed=9))
        b = initialize(corpus, TrainConfig(K=4, seed=9))
        for lb_a, lb_b in zip(a.log_beta, b.log_beta):
            np.testing.assert_array_equal(lb_a, lb_b)

    def test_different_seeds_differ(self):
        corpus = tiny_corpus()
        a = initialize(corpus, TrainConfig(K=4, seed=9))
        b = initialize(corpus, TrainConfig(K=4, seed=10))
        assert not np.array_equal(a.log_beta[0], b.log_beta[0])

    def test_large_shape_rows_normalized(self):
        # vocabulary size of a realistic diagnosis-code type
        vocab = Vocabulary("dx", tuple(f"c{i}" for i in range(2956)))
        corpus = Corpus(
            vocabularies=(vocab,), records=(RecordBags("r0", ({0: 1},)),)
        )
        params = initialize(corpus, TrainConfig(K=250, seed=1))
        assert params.log_beta[0].shape == (250, 2956)
        np.testing.assert_allclose(np.exp(params.log_beta[0]).sum(axis=1), 1.0, atol=1e-9)


class TestMStep:
    def test_hard_assignments_recover_empirical_distributions(self, monkeypatch):
        monkeypatch.setattr(learning, "BETA_SMOOTHING", 1e-12)
        vocab = Vocabulary("dx", ("a", "b", "c", "d"))
        rec1 = RecordBags("r1", ({0: 2, 1: 2},))
        rec2 = RecordBags("r2", ({2: 1, 3: 3},))
        corpus = Corpus(vocabularies=(vocab,), records=(rec1, rec2))
        # records 1 and 2 assign every token to phenotype 0 and 1 respectively
        current = make_params(
            [0.0, 0.0], np.eye(2), [[[0.5, 0.5, TINY, TINY], [TINY, TINY, 0.5, 0.5]]]
        )
        posts = [
            manual_posterior(np.zeros(2), np.eye(2), [[4.0, 0.0]]),
            manual_posterior(np.zeros(2), np.eye(2), [[0.0, 4.0]]),
        ]
        params = m_step(corpus, posts, TrainConfig(K=2), current=current)
        beta = np.exp(params.log_beta[0])
        np.testing.assert_allclose(beta[0], [0.5, 0.5, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(beta[1], [0.0, 0.0, 0.25, 0.75], atol=1e-9)

    def test_normalization_of_expected_counts(self, monkeypatch):
        monkeypatch.setattr(learning, "BETA_SMOOTHING", 1e-12)
        # expected counts per (k, v): [[2, 2], [0, 4]] -> rows [.5, .5], [0, 1]
        vocab = Vocabulary("dx", ("a", "b"))
        rec = RecordBags("r1", ({0: 2, 1: 6},))
        corpus = Corpus(vocabularies=(vocab,), records=(rec,))
        # q(z) columns at nu = 0: token a (1, 0), token b (1/3, 2/3)
        current = make_params([0.0, 0.0], np.eye(2), [[[0.5, 0.5], [TINY, 1.0]]])
        posts = [manual_posterior(np.zeros(2), np.eye(2), [[4.0, 4.0]])]
        params = m_step(corpus, posts, TrainConfig(K=2), current=current)
        beta = np.exp(params.log_beta[0])
        np.testing.assert_allclose(beta[0], [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(beta[1], [0.0, 1.0], atol=1e-9)

    def test_moment_matching_identity(self):
        corpus = tiny_corpus(num_records=4)
        cfg = TrainConfig(K=2)
        posts = [
            manual_posterior(np.zeros(2), np.eye(2), [[3.0, 3.0]]) for _ in corpus.records
        ]
        params = m_step(corpus, posts, cfg, current=initialize(corpus, cfg))
        np.testing.assert_allclose(params.mu0, np.zeros(2), atol=1e-12)
        np.testing.assert_allclose(params.sigma0, np.eye(2), atol=1e-12)

    def test_rows_normalized_and_sigma_pd_after_step(self, rng):
        corpus = tiny_corpus(num_types=2, vocab_size=6, num_records=5)
        cfg = TrainConfig(K=3, seed=2)
        params = initialize(corpus, cfg)
        posts = [infer_document(r, params) for r in corpus.records]
        new = m_step(corpus, posts, cfg, current=params)
        for lb in new.log_beta:
            np.testing.assert_allclose(np.exp(lb).sum(axis=1), 1.0, atol=1e-9)
        np.linalg.cholesky(new.sigma0)
        assert np.all(np.isfinite(new.mu0))

    def test_indefinite_prior_estimate_repaired_with_one_warning(self):
        corpus = tiny_corpus(num_records=2)
        cfg = TrainConfig(K=2)
        # equal modes, so sigma0 is the mean covariance, eigenvalues 4 and -2
        indefinite = [[1.0, 3.0], [3.0, 1.0]]
        posts = [manual_posterior(np.zeros(2), indefinite, [[3.0, 3.0]]) for _ in range(2)]
        with pytest.warns(RuntimeWarning, match="ridge 10$") as caught:
            params = m_step(corpus, posts, cfg, current=initialize(corpus, cfg))
        assert len(caught) == 1
        np.linalg.cholesky(params.sigma0)
        np.testing.assert_allclose(params.sigma0, np.array(indefinite) + 10 * np.eye(2), rtol=1e-12)

    def test_freeze_prior_keeps_current(self):
        corpus = tiny_corpus()
        cfg = TrainConfig(K=2, seed=0, update_prior=False)
        params = initialize(corpus, cfg)
        posts = [infer_document(r, params) for r in corpus.records]
        new = m_step(corpus, posts, cfg, current=params)
        np.testing.assert_array_equal(new.mu0, params.mu0)
        np.testing.assert_array_equal(new.sigma0, params.sigma0)

    def test_posterior_count_mismatch_rejected(self):
        corpus = tiny_corpus(num_records=3)
        cfg = TrainConfig(K=2)
        with pytest.raises(ValueError, match="one posterior per record"):
            m_step(corpus, [], cfg, current=initialize(corpus, cfg))


class TestTrain:
    def test_zero_iterations_returns_initialization(self):
        corpus = tiny_corpus()
        cfg = TrainConfig(K=2, seed=3, max_em_iters=0)
        model = train(corpus, cfg)
        np.testing.assert_array_equal(
            model.params.log_beta[0], initialize(corpus, cfg).log_beta[0]
        )
        assert model.history == []
        assert model.doc_posteriors == []
        assert not model.converged

    def test_separates_two_disjoint_populations(self):
        corpus = two_block_corpus()
        model = train(corpus, TrainConfig(K=2, seed=1, max_em_iters=60, em_tol=1e-7))
        beta = np.exp(model.params.log_beta[0])
        # each topic concentrates on one token block
        block_mass = beta[:, :3].sum(axis=1)
        assert {block_mass.argmax(), block_mass.argmin()} == {0, 1}
        assert max(block_mass.max(), 1 - block_mass.min()) > 0.95
        for post in model.doc_posteriors:
            assert post.proportions.max() > 0.9

    def test_deterministic_given_seed(self):
        corpus = two_block_corpus()
        cfg = TrainConfig(K=2, seed=7, max_em_iters=5)
        a = train(corpus, cfg)
        b = train(corpus, cfg)
        np.testing.assert_array_equal(a.params.mu0, b.params.mu0)
        np.testing.assert_array_equal(a.params.sigma0, b.params.sigma0)
        for lb_a, lb_b in zip(a.params.log_beta, b.params.log_beta):
            np.testing.assert_array_equal(lb_a, lb_b)
        assert a.history == b.history

    def test_thread_count_does_not_change_results(self):
        corpus = two_block_corpus()
        cfg = TrainConfig(K=2, seed=7, max_em_iters=4)
        a = train(corpus, cfg, threads=1)
        b = train(corpus, cfg, threads=4)
        for lb_a, lb_b in zip(a.params.log_beta, b.params.log_beta):
            np.testing.assert_array_equal(lb_a, lb_b)
        assert a.history == b.history

    def test_history_finite_and_non_decreasing_on_tiny_corpus(self):
        rows = np.array(
            [[0.45, 0.3, 0.15, 0.05, 0.03, 0.02], [0.02, 0.03, 0.05, 0.15, 0.3, 0.45]]
        )
        truth = make_params(np.zeros(2), np.eye(2), [rows])
        corpus, _ = sample_corpus(truth, D=20, lengths=[4], seed=0)
        model = train(corpus, TrainConfig(K=2, seed=0, max_em_iters=25, em_tol=1e-9))
        history = np.array(model.history)
        assert np.all(np.isfinite(history))
        assert np.all(np.diff(history) >= -1e-4)

    def test_label_permutation_symmetry(self):
        # permuting the topic rows of the starting point permutes the result
        corpus = two_block_corpus()
        cfg = TrainConfig(K=2, seed=4, max_em_iters=10, em_tol=1e-9)
        start = initialize(corpus, cfg)
        permuted = ModelParams.create(
            start.mu0, start.sigma0, [start.log_beta[0][::-1]]
        )

        def run_em(params):
            for _ in range(10):
                posts = [infer_document(r, params, nu_init=params.mu0) for r in corpus.records]
                params = m_step(corpus, posts, cfg, current=params)
            return params

        a = run_em(start)
        b = run_em(permuted)
        perm = match_phenotypes(b, a)
        tv = 0.5 * np.abs(np.exp(b.log_beta[0]) - np.exp(a.log_beta[0])[perm]).sum(axis=1)
        assert tv.max() <= 1e-6

    def test_every_record_converges_in_early_em_steps(self):
        # the E-steps of acceptance criterion 6: an overlapping-preset slice,
        # eight EM iterations from the near-uniform start
        full, _ = sample_scenario(get_preset("overlapping"), seed=7)
        corpus = Corpus(vocabularies=full.vocabularies, records=full.records[:40])
        cfg = TrainConfig(K=4, seed=7)
        params = initialize(corpus, cfg)
        warm = [params.mu0] * corpus.num_records
        for _ in range(8):
            posts = _e_step(corpus, params, warm, threads=1)
            unconverged = [
                rec.record_id for rec, post in zip(corpus.records, posts) if not post.converged
            ]
            assert unconverged == []
            warm = [post.nu_hat for post in posts]
            params = m_step(corpus, posts, cfg, current=params)


class TestModelIO:
    def test_round_trip_bitwise_params(self, tmp_path):
        corpus = tiny_corpus(num_types=2)
        model = train(corpus, TrainConfig(K=2, seed=6, max_em_iters=3))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.params.mu0, model.params.mu0)
        np.testing.assert_array_equal(loaded.params.sigma0, model.params.sigma0)
        for lb_a, lb_b in zip(loaded.params.log_beta, model.params.log_beta):
            np.testing.assert_array_equal(lb_a, lb_b)
        assert loaded.config == model.config
        assert loaded.vocab_fingerprint == model.vocab_fingerprint
        assert loaded.vocabularies == model.vocabularies

    def test_altered_vocabulary_fails_fingerprint(self, tmp_path):
        corpus = tiny_corpus()
        model = train(corpus, TrainConfig(K=2, seed=6, max_em_iters=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["vocabularies"]["type0"][0] = "tampered"
        path.write_text(json.dumps(payload))
        with pytest.raises(FingerprintError):
            load_model(path)

    def test_truncated_file_reports_offset(self, tmp_path):
        corpus = tiny_corpus()
        model = train(corpus, TrainConfig(K=2, seed=6, max_em_iters=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelFormatError, match="offset"):
            load_model(path)

    def test_retired_config_key_still_loads(self, tmp_path):
        # model files written before these TrainConfig fields were retired carry them
        model = train(tiny_corpus(), TrainConfig(K=2, seed=6, max_em_iters=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1
        payload["config"].update(
            doc_max_outer=100, beta_smoothing=1e-8, noise_scale=1.0, doc_tol=1e-4
        )
        path.write_text(json.dumps(payload))
        assert load_model(path).config == model.config

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 999}))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_check_compatible_against_other_vocabulary(self):
        corpus = tiny_corpus()
        model = train(corpus, TrainConfig(K=2, seed=6, max_em_iters=2))
        other = (Vocabulary("type0", ("different",)),)
        with pytest.raises(FingerprintError):
            check_compatible(model, other)
        check_compatible(model, corpus.vocabularies)  # no raise

    def test_fingerprint_sensitive_to_type_order_and_tokens(self):
        a = (Vocabulary("x", ("t1", "t2")), Vocabulary("y", ("u1",)))
        b = (Vocabulary("y", ("u1",)), Vocabulary("x", ("t1", "t2")))
        assert vocab_fingerprint(a) != vocab_fingerprint(b)

    def test_attach_posteriors_round_trip(self, tmp_path):
        corpus = tiny_corpus()
        model = train(corpus, TrainConfig(K=2, seed=6, max_em_iters=2))
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert loaded.doc_posteriors == []
        with_posts = attach_posteriors(loaded, corpus)
        assert len(with_posts.doc_posteriors) == corpus.num_records
