"""Phenotype definitions and the relatedness graph."""

import numpy as np
import pytest

from phenotopics.corpus import Vocabulary
from phenotopics.learning import TrainConfig, TrainedModel, vocab_fingerprint
from phenotopics.phenotype import correlation_graph, covariance_to_correlation, extract_phenotypes
from phenotopics.variational import DocPosterior, ModelParams

from .conftest import k50_params


def model_from(mu0, sigma0, betas, vocabularies, posteriors=()):
    params = ModelParams.create(mu0, sigma0, [np.log(np.asarray(b)) for b in betas])
    return TrainedModel(
        params=params,
        vocabularies=tuple(vocabularies),
        doc_posteriors=list(posteriors),
        history=[],
        config=TrainConfig(K=params.num_phenotypes),
        vocab_fingerprint=vocab_fingerprint(vocabularies),
        converged=True,
    )


def posterior_with_proportions(p):
    p = np.asarray(p, dtype=float)
    k = p.size
    return DocPosterior(
        nu_hat=np.log(np.maximum(p, 1e-300)),
        nu_cov=np.eye(k),
        expected_counts=np.zeros((0, k)),
        proportions=p,
        elbo=0.0,
        converged=True,
        iterations=1,
    )


@pytest.fixture
def dx_model():
    vocab = Vocabulary("dx", ("hiv", "htn", "dm"))
    betas = [np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])]
    return model_from(np.zeros(2), np.eye(2), betas, (vocab,))


class TestExtractPhenotypes:
    def test_label_is_argmax_token(self, dx_model):
        defs = extract_phenotypes(dx_model, top_n=2, label_type="dx")
        assert defs[0].label == "hiv"
        assert defs[1].label == "dm"
        assert defs[0].per_type_top_tokens["dx"][0] == ("hiv", pytest.approx(0.7))

    def test_tie_breaks_to_lower_token_index(self):
        vocab = Vocabulary("dx", ("a", "b"))
        model = model_from(np.zeros(2), np.eye(2), [np.full((2, 2), 0.5)], (vocab,))
        defs = extract_phenotypes(model, top_n=2, label_type="dx")
        assert defs[0].label == "a"
        assert [t for t, _ in defs[0].per_type_top_tokens["dx"]] == ["a", "b"]

    def test_top_n_clamped_to_vocabulary_size(self, dx_model):
        defs = extract_phenotypes(dx_model, top_n=50, label_type="dx")
        assert len(defs[0].per_type_top_tokens["dx"]) == 3

    def test_probabilities_sorted_descending(self, dx_model):
        defs = extract_phenotypes(dx_model, top_n=3, label_type="dx")
        for d in defs:
            probs = [p for _, p in d.per_type_top_tokens["dx"]]
            assert probs == sorted(probs, reverse=True)

    def test_unknown_label_type_rejected(self, dx_model):
        with pytest.raises(ValueError, match="unknown label_type"):
            extract_phenotypes(dx_model, top_n=1, label_type="meds")

    @pytest.mark.parametrize("top_n", [10, 2500])
    def test_k50_ranking_is_one_row_at_a_time(self, top_n):
        # block topics hold thousands of tied probabilities per row
        params, vocabularies = k50_params()
        model = TrainedModel(params, vocabularies, [], [], TrainConfig(K=50),
                             vocab_fingerprint(vocabularies))
        defs = extract_phenotypes(model, top_n=top_n, label_type="type2")
        for k, d in enumerate(defs):
            for vocab, log_beta in zip(vocabularies, params.log_beta):
                probs = np.exp(log_beta[k])
                order = np.argsort(-probs, kind="stable")[:top_n]
                expected = [(vocab.tokens[v], float(probs[v])) for v in order]
                assert d.per_type_top_tokens[vocab.type_name] == expected

    def test_label_invariant_under_row_rescaling(self):
        # the argmax label only depends on the within-row ranking
        vocab = Vocabulary("dx", ("a", "b", "c"))
        sharp = model_from(
            np.zeros(2), np.eye(2),
            [np.array([[0.8, 0.15, 0.05], [0.05, 0.15, 0.8]])], (vocab,))
        flat = model_from(
            np.zeros(2), np.eye(2),
            [np.array([[0.4, 0.35, 0.25], [0.25, 0.35, 0.4]])], (vocab,))
        labels_sharp = [d.label for d in extract_phenotypes(sharp, 1, "dx")]
        labels_flat = [d.label for d in extract_phenotypes(flat, 1, "dx")]
        assert labels_sharp == labels_flat


class TestCorrelationGraph:
    def vocab(self, k):
        return (Vocabulary("dx", tuple(f"t{i}" for i in range(k))),)

    def test_exact_threshold_excluded(self):
        model = model_from(
            np.zeros(2), [[4.0, 1.0], [1.0, 1.0]], [np.eye(2) * 0.98 + 0.01], self.vocab(2)
        )
        graph = correlation_graph(model, threshold=0.5)
        assert graph.correlation[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert graph.edges == []

    def test_above_threshold_included_once(self):
        model = model_from(
            np.zeros(2), [[1.0, 0.6], [0.6, 1.0]], [np.eye(2) * 0.98 + 0.01], self.vocab(2)
        )
        graph = correlation_graph(model, threshold=0.5)
        assert len(graph.edges) == 1
        i, j, rho = graph.edges[0]
        assert (i, j) == (0, 1)
        assert rho == pytest.approx(0.6, abs=1e-12)

    def test_identity_has_no_edges(self):
        model = model_from(np.zeros(3), np.eye(3), [np.full((3, 4), 0.25)], self.vocab(3))
        assert correlation_graph(model, threshold=0.0).edges == []

    def test_negative_correlations_kept_with_sign(self):
        model = model_from(
            np.zeros(2), [[1.0, -0.7], [-0.7, 1.0]], [np.eye(2) * 0.98 + 0.01], self.vocab(2)
        )
        graph = correlation_graph(model, threshold=0.5)
        assert graph.edges[0][2] == pytest.approx(-0.7, abs=1e-12)

    def test_unit_diagonal_and_symmetry(self, rng):
        root = rng.normal(size=(4, 4))
        sigma = root @ root.T + np.eye(4)
        model = model_from(np.zeros(4), sigma, [np.full((4, 5), 0.2)], self.vocab(4))
        corr = correlation_graph(model).correlation
        np.testing.assert_array_equal(np.diag(corr), np.ones(4))
        np.testing.assert_array_equal(corr, corr.T)
        assert np.abs(corr).max() <= 1.0 + 1e-12

    def test_scaling_invariance(self, rng):
        root = rng.normal(size=(3, 3))
        sigma = root @ root.T + np.eye(3)
        m1 = model_from(np.zeros(3), sigma, [np.full((3, 4), 0.25)], self.vocab(3))
        m2 = model_from(np.zeros(3), 7.3 * sigma, [np.full((3, 4), 0.25)], self.vocab(3))
        np.testing.assert_allclose(
            correlation_graph(m1).correlation, correlation_graph(m2).correlation, atol=1e-12
        )

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_variances_keep_their_correlation(self, scale):
        # d_i d_j overflows to inf at 1e200 and underflows to 0 at 1e-200
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]]) * scale
        corr = covariance_to_correlation(sigma)
        assert corr[0, 1] == corr[1, 0] == pytest.approx(0.5, abs=1e-15)
        model = model_from(np.zeros(2), sigma, [np.eye(2) * 0.98 + 0.01], self.vocab(2))
        assert [(i, j) for i, j, _ in correlation_graph(model, threshold=0.4).edges] == [(0, 1)]

    def test_ordinary_covariances_normalize_bitwise_as_root_of_product(self, rng):
        # the root of the product d_i d_j stays wherever it is finite and positive
        for _ in range(300):
            root = rng.normal(size=(8, 8)) * 10.0 ** rng.uniform(-3, 3, size=(8, 1))
            sigma = root @ root.T + 1e-3 * np.eye(8)
            d = np.diag(sigma)
            expected = sigma / np.sqrt(np.outer(d, d))
            expected = 0.5 * (expected + expected.T)
            np.fill_diagonal(expected, 1.0)
            assert np.array_equal(covariance_to_correlation(sigma), expected)

    @pytest.mark.parametrize(
        "sigma, match",
        [
            ([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),
            ([[-1.0, 0.0], [0.0, 1.0]], "not positive definite"),
            ([[np.nan, 0.0], [0.0, 1.0]], "not finite"),
        ],
    )
    def test_non_covariance_rejected(self, sigma, match):
        with pytest.raises(ValueError, match=match):
            covariance_to_correlation(sigma)

    def test_threshold_validation(self, dx_model):
        with pytest.raises(ValueError):
            correlation_graph(dx_model, threshold=1.5)
        assert correlation_graph(dx_model, threshold=1.0).edges == []
