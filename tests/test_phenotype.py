"""Phenotype definitions, relatedness graph, prevalence."""

import numpy as np
import pytest

from phenotopics.corpus import Vocabulary
from phenotopics.learning import TrainConfig, TrainedModel, vocab_fingerprint
from phenotopics.phenotype import (
    RelatednessGraph,
    correlation_graph,
    correlation_matrix,
    covariance_to_correlation,
    extract_phenotypes,
    prevalence,
    split_by_prevalence,
)
from phenotopics.variational import DocPosterior, ModelParams


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
        corr = correlation_matrix(model)
        np.testing.assert_array_equal(np.diag(corr), np.ones(4))
        np.testing.assert_array_equal(corr, corr.T)
        assert np.abs(corr).max() <= 1.0 + 1e-12

    def test_scaling_invariance(self, rng):
        root = rng.normal(size=(3, 3))
        sigma = root @ root.T + np.eye(3)
        m1 = model_from(np.zeros(3), sigma, [np.full((3, 4), 0.25)], self.vocab(3))
        m2 = model_from(np.zeros(3), 7.3 * sigma, [np.full((3, 4), 0.25)], self.vocab(3))
        np.testing.assert_allclose(
            correlation_matrix(m1), correlation_matrix(m2), atol=1e-12
        )

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

    def test_empirical_mode_uses_posterior_proportions(self):
        posts = [
            posterior_with_proportions([0.9, 0.05, 0.05]),
            posterior_with_proportions([0.05, 0.9, 0.05]),
            posterior_with_proportions([0.8, 0.1, 0.1]),
            posterior_with_proportions([0.1, 0.8, 0.1]),
        ]
        model = model_from(
            np.zeros(3), np.eye(3), [np.full((3, 4), 0.25)], self.vocab(3), posts
        )
        corr = correlation_matrix(model, method="empirical")
        expected = np.corrcoef(
            np.stack([p.proportions for p in posts]), rowvar=False
        )
        np.testing.assert_allclose(corr[0, 1], expected[0, 1], atol=1e-12)

    def test_threshold_validation(self, dx_model):
        with pytest.raises(ValueError):
            correlation_graph(dx_model, threshold=1.5)
        assert correlation_graph(dx_model, threshold=1.0).edges == []


class TestPrevalence:
    def model_with(self, proportions_list):
        k = len(proportions_list[0])
        vocab = (Vocabulary("dx", tuple(f"t{i}" for i in range(k))),)
        posts = [posterior_with_proportions(p) for p in proportions_list]
        return model_from(np.zeros(k), np.eye(k), [np.full((k, k), 1.0 / k)], vocab, posts)

    def test_uniform_records_all_present_at_low_threshold(self):
        model = self.model_with([[0.25] * 4] * 5)
        np.testing.assert_array_equal(prevalence(model, 1.0 / 8), np.ones(4))

    def test_high_threshold_empty(self):
        model = self.model_with([[0.7, 0.3], [0.6, 0.4]])
        np.testing.assert_array_equal(prevalence(model, 0.99), np.zeros(2))

    def test_counts_fraction_of_records(self):
        model = self.model_with([[0.3, 0.7], [0.1, 0.9], [0.25, 0.75], [0.05, 0.95]])
        np.testing.assert_allclose(prevalence(model, 0.2), [0.5, 1.0])

    def test_missing_posteriors_rejected(self, dx_model):
        with pytest.raises(ValueError, match="posteriors"):
            prevalence(dx_model, 0.05)

    def test_planted_membership_fraction_recovered(self):
        # 30% of records carry phenotype 0 at weight 0.35, the rest at 0.05;
        # posteriors inferred under the planted model should put prevalence at
        # threshold 0.2 close to 0.3
        from phenotopics.learning import attach_posteriors
        from phenotopics.corpus import Corpus, RecordBags

        k, v, d = 3, 18, 100
        beta = np.full((k, v), 0.01 / (v - 6))
        for i in range(k):
            beta[i, 6 * i : 6 * i + 6] = 0.99 / 6
        beta /= beta.sum(axis=1, keepdims=True)
        vocab = Vocabulary("dx", tuple(f"t{i}" for i in range(v)))
        params = ModelParams.create(np.zeros(k), np.eye(k), [np.log(beta)])
        model = model_from(np.zeros(k), np.eye(k), [beta], (vocab,))

        rng = np.random.default_rng(77)
        records = []
        for i in range(d):
            w0 = 0.35 if i < 0.3 * d else 0.05
            weights = np.array([w0, (1 - w0) * 0.5, (1 - w0) * 0.5])
            counts = np.zeros(v, dtype=int)
            for j in range(k):
                counts += rng.multinomial(int(round(200 * weights[j])), beta[j])
            bag = {int(t): int(c) for t, c in enumerate(counts) if c}
            records.append(RecordBags(f"rec{i:03d}", (bag,)))
        corpus = Corpus(vocabularies=(vocab,), records=tuple(records))
        model = attach_posteriors(model, corpus)
        assert abs(prevalence(model, 0.2)[0] - 0.3) <= 0.05


class TestSplitByPrevalence:
    def graph(self, edges):
        return RelatednessGraph(correlation=np.eye(4), edges=edges, threshold=0.5)

    def test_both_common_endpoints(self):
        common, rare = split_by_prevalence(
            self.graph([(0, 1, 0.8)]), [0.1, 0.1, 0.01, 0.01], cutoff=0.05
        )
        assert common == [(0, 1, 0.8)]
        assert rare == []

    def test_one_rare_endpoint(self):
        common, rare = split_by_prevalence(
            self.graph([(0, 2, 0.8)]), [0.1, 0.1, 0.01, 0.01], cutoff=0.05
        )
        assert common == []
        assert rare == [(0, 2, 0.8)]

    def test_empty_graph(self):
        common, rare = split_by_prevalence(self.graph([]), [0.1] * 4, cutoff=0.05)
        assert common == [] and rare == []
