"""Generative sampler, label matching, recovery metrics, scenario presets."""

import numpy as np
import pytest

from phenotopics.corpus import MAX_COUNT
from phenotopics.learning import TrainConfig, TrainedModel, vocab_fingerprint
from phenotopics.synth import (
    PRESETS,
    Scenario,
    get_preset,
    load_scenario,
    match_phenotypes,
    recovery_report,
    sample_corpus,
    sample_scenario,
    save_scenario,
)
from phenotopics.variational import ModelParams

from .conftest import make_params
from .oracles import brute_force_min_assignment


def wrap_model(params, vocabularies):
    return TrainedModel(
        params=params,
        vocabularies=tuple(vocabularies),
        doc_posteriors=[],
        history=[],
        config=TrainConfig(K=params.num_phenotypes),
        vocab_fingerprint=vocab_fingerprint(vocabularies),
        converged=True,
    )


class TestSampleCorpus:
    def test_deterministic_bitwise(self):
        truth = make_params(
            np.zeros(3), np.eye(3), [np.random.default_rng(0).dirichlet(np.ones(8), 3)]
        )
        c1, p1 = sample_corpus(truth, D=20, lengths=[15], seed=123)
        c2, p2 = sample_corpus(truth, D=20, lengths=[15], seed=123)
        assert c1 == c2
        np.testing.assert_array_equal(p1.per_record_nu, p2.per_record_nu)

    def test_different_seeds_differ(self):
        truth = make_params(
            np.zeros(3), np.eye(3), [np.random.default_rng(0).dirichlet(np.ones(8), 3)]
        )
        c1, _ = sample_corpus(truth, D=5, lengths=[15], seed=1)
        c2, _ = sample_corpus(truth, D=5, lengths=[15], seed=2)
        assert c1 != c2

    def test_single_phenotype_converges_to_its_distribution(self):
        # with K=1 every assignment is phenotype 0 and the empirical token
        # distribution approaches that row
        row = np.array([[0.5, 0.25, 0.15, 0.07, 0.03]])
        truth = ModelParams.create(np.zeros(1), np.eye(1), [np.log(row)])
        corpus, _ = sample_corpus(truth, D=1, lengths=[10_000], seed=7)
        assert sum(corpus.records[0].bags[0].values()) == 10_000
        counts = np.zeros(5)
        for v, c in corpus.records[0].bags[0].items():
            counts[v] = c
        tv = 0.5 * np.abs(counts / counts.sum() - row[0]).sum()
        assert tv <= 0.05

    def test_mixture_long_record_matches_mixed_distribution(self):
        betas = np.array([[0.65, 0.2, 0.1, 0.05], [0.05, 0.1, 0.2, 0.65]])
        truth = make_params([0.0, 0.0], np.eye(2), [betas])
        corpus, planted = sample_corpus(truth, D=1, lengths=[10_000], seed=3)
        nu = planted.per_record_nu[0]
        pi = np.exp(nu) / np.exp(nu).sum()
        expected = pi @ betas
        counts = np.zeros(4)
        for v, c in corpus.records[0].bags[0].items():
            counts[v] = c
        tv = 0.5 * np.abs(counts / counts.sum() - expected).sum()
        assert tv <= 0.05

    def test_drawn_nu_covariance_matches_prior(self):
        truth = make_params(np.zeros(2), np.eye(2), [np.full((2, 4), 0.25)])
        _, planted = sample_corpus(truth, D=10_000, lengths=[0], seed=11)
        emp_cov = np.cov(planted.per_record_nu, rowvar=False)
        assert np.linalg.norm(emp_cov - np.eye(2), ord="fro") <= 0.1

    def test_zero_lengths_give_empty_bags(self):
        truth = make_params(np.zeros(2), np.eye(2), [np.full((2, 4), 0.25)])
        corpus, _ = sample_corpus(truth, D=3, lengths=[0], seed=0)
        assert all(rec.bags[0] == {} for rec in corpus.records)

    def test_invalid_lengths_rejected(self):
        truth = make_params(np.zeros(2), np.eye(2), [np.full((2, 4), 0.25)])
        with pytest.raises(ValueError):
            sample_corpus(truth, D=3, lengths=[-1], seed=0)
        with pytest.raises(ValueError):
            sample_corpus(truth, D=0, lengths=[5], seed=0)


class TestMatchPhenotypes:
    def rows(self, rng, k, v=10):
        return rng.dirichlet(np.ones(v), size=k)

    def test_identity_for_equal_models(self, rng):
        params = make_params(np.zeros(4), np.eye(4), [self.rows(rng, 4)])
        assert match_phenotypes(params, params) == [0, 1, 2, 3]

    def test_recovers_planted_permutation(self, rng):
        rows = self.rows(rng, 5)
        truth = make_params(np.zeros(5), np.eye(5), [rows])
        perm = [3, 0, 4, 1, 2]
        learned = make_params(np.zeros(5), np.eye(5), [rows[perm]])
        assert match_phenotypes(learned, truth) == perm

    def test_cost_matches_brute_force(self, rng):
        for k in (2, 3, 4, 5, 6):
            a = make_params(np.zeros(k), np.eye(k), [self.rows(rng, k)])
            b = make_params(np.zeros(k), np.eye(k), [self.rows(rng, k)])
            perm = match_phenotypes(a, b)
            cost = np.zeros((k, k))
            beta_a = np.exp(a.log_beta[0])
            beta_b = np.exp(b.log_beta[0])
            for i in range(k):
                for j in range(k):
                    cost[i, j] = 0.5 * np.abs(beta_a[i] - beta_b[j]).sum()
            achieved = sum(cost[i, perm[i]] for i in range(k))
            assert achieved == pytest.approx(brute_force_min_assignment(cost), abs=1e-12)

    def test_tie_breaks_lexicographically(self):
        # two identical truth rows: both assignments optimal; smallest wins
        rows = np.array([[0.5, 0.5], [0.5, 0.5]])
        truth = make_params(np.zeros(2), np.eye(2), [rows])
        learned = make_params(np.zeros(2), np.eye(2), [rows])
        assert match_phenotypes(learned, truth) == [0, 1]

    def test_dimension_mismatch_rejected(self, rng):
        a = make_params(np.zeros(2), np.eye(2), [self.rows(rng, 2)])
        b = make_params(np.zeros(3), np.eye(3), [self.rows(rng, 3)])
        with pytest.raises(ValueError):
            match_phenotypes(a, b)


class TestRecoveryReport:
    def test_perfect_recovery(self, rng):
        rows = [rng.dirichlet(np.ones(8), size=3) for _ in range(2)]
        sigma = np.eye(3)
        sigma[0, 1] = sigma[1, 0] = 0.7
        truth = make_params(np.zeros(3), sigma, rows)
        _, planted = sample_corpus(truth, D=2, lengths=[1, 1], seed=0)
        model = wrap_model(truth, get_preset("separable").vocabularies()[:2])
        report = recovery_report(model, planted, corr_threshold=0.5)
        assert report.mean_tv == pytest.approx(0.0, abs=1e-12)
        assert report.matching == [0, 1, 2]
        assert len(report.correlation_recovery) == 1
        entry = report.correlation_recovery[0]
        assert entry["planted_rho"] == pytest.approx(0.7)
        assert entry["learned_rho"] == pytest.approx(0.7)

    def test_uniform_learned_vs_concentrated_truth(self):
        v = 20
        truth_rows = np.zeros((2, v))
        truth_rows[0, 0] = truth_rows[1, 1] = 1.0
        smoothed = np.where(truth_rows > 0, 1.0 - 1e-9 * (v - 1), 1e-9)
        truth = ModelParams.create(np.zeros(2), np.eye(2), [np.log(smoothed)])
        learned = make_params(np.zeros(2), np.eye(2), [np.full((2, v), 1.0 / v)])
        _, planted = sample_corpus(truth, D=1, lengths=[1], seed=0)
        model = wrap_model(learned, get_preset("separable").vocabularies()[:1])
        report = recovery_report(model, planted)
        # TV(uniform, near-point-mass) = 1 - 1/V
        assert report.mean_tv == pytest.approx(1.0 - 1.0 / v, abs=1e-6)

    @pytest.mark.parametrize("k, v", [(2, 7), (5, 40), (5, 1000)])
    def test_per_phenotype_tv_is_the_matched_rows_tv_bitwise(self, rng, k, v):
        truth = make_params(np.zeros(k), np.eye(k), [rng.dirichlet(np.ones(v), k)] * 2)
        learned = make_params(
            np.zeros(k), np.eye(k), [rng.dirichlet(np.ones(v), k) for _ in range(2)]
        )
        _, planted = sample_corpus(truth, D=1, lengths=[1, 1], seed=0)
        report = recovery_report(wrap_model(learned, ()), planted)
        expected = np.zeros((k, 2))
        for m in range(2):
            a, b = np.exp(learned.log_beta[m]), np.exp(truth.log_beta[m])
            for i, j in enumerate(report.matching):
                expected[i, m] = 0.5 * np.abs(a[i] - b[j]).sum()
        np.testing.assert_array_equal(report.per_phenotype_tv, expected)

    def test_permuted_truth_reports_learned_correlation_under_matching(self, rng):
        rows = rng.dirichlet(np.ones(10), size=4)
        sigma = np.eye(4)
        sigma[1, 2] = sigma[2, 1] = 0.8
        truth = make_params(np.zeros(4), sigma, [rows])
        perm = [2, 3, 1, 0]
        sigma_l = np.eye(4)
        # learned phenotype i corresponds to truth perm[i]; truth pair (1, 2)
        # sits at learned (2, 0)
        sigma_l[0, 2] = sigma_l[2, 0] = 0.55
        learned = make_params(np.zeros(4), sigma_l, [rows[perm]])
        _, planted = sample_corpus(truth, D=1, lengths=[1], seed=0)
        model = wrap_model(learned, get_preset("separable").vocabularies()[:1])
        report = recovery_report(model, planted)
        assert report.matching == perm
        entry = report.correlation_recovery[0]
        assert (entry["truth_i"], entry["truth_j"]) == (1, 2)
        assert entry["learned_rho"] == pytest.approx(0.55)


class TestScenarios:
    def test_presets_exist(self):
        assert {"separable", "correlated-blocks", "overlapping"} <= set(PRESETS)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("nope")

    def test_separable_truth_has_disjoint_blocks(self):
        scenario = get_preset("separable")
        params = scenario.build_truth()
        assert params.num_phenotypes == 5 and params.num_types == 3
        beta = np.exp(params.log_beta[0])
        tv_min = 1.0
        for i in range(5):
            for j in range(i + 1, 5):
                tv_min = min(tv_min, 0.5 * np.abs(beta[i] - beta[j]).sum())
        assert tv_min > 0.8

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_type_gets_the_block_rows_bitwise(self, name):
        scenario = get_preset(name)
        k, v = scenario.K, scenario.vocab_size
        width = v // k + scenario.block_overlap
        rows = np.full((k, v), (1.0 - scenario.block_mass) / v)
        for i in range(k):
            rows[i, np.arange(i * (v // k), i * (v // k) + width) % v] += (
                scenario.block_mass / width
            )
        rows /= rows.sum(axis=1, keepdims=True)
        params = scenario.build_truth()
        assert params.num_types == scenario.M
        for log_beta in params.log_beta:
            assert np.array_equal(log_beta, np.log(rows))

    def test_correlated_blocks_prior(self):
        params = get_preset("correlated-blocks").build_truth()
        assert params.sigma0[0, 1] == pytest.approx(0.8)
        assert params.sigma0[2, 3] == pytest.approx(0.0)

    def test_scenario_json_round_trip(self, tmp_path):
        scenario = get_preset("correlated-blocks")
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_invalid_scenarios_rejected(self):
        for bad in (
            dict(K=50, vocab_size=10),  # no token block of its own per phenotype
            dict(K=0),
            dict(D=0),
            dict(tokens_per_type=-1),
            dict(block_overlap=-5),
            dict(block_mass=1.5),
            dict(sigma0_pairs=((0, 3, 0.5),)),
            dict(K=2.5),
            dict(D=True),
            dict(block_overlap=None),
            dict(name=7),
            dict(block_mass="high"),
            dict(sigma0_pairs=((0, 1),)),
            dict(sigma0_pairs=((0.0, 1, 0.5),)),
            dict(sigma0_pairs=((0, 1, None),)),
            dict(sigma0_pairs=[(0, 1, 0.5)]),
            dict(tokens_per_type=MAX_COUNT + 1),
        ):
            fields = dict(name="bad", K=3, M=1, vocab_size=12, D=4, tokens_per_type=6)
            fields.update(bad)
            with pytest.raises(ValueError):
                Scenario(**fields)
        Scenario(name="one", K=3, M=1, vocab_size=3, D=1, tokens_per_type=1)  # valid
        Scenario(name="most", K=3, M=1, vocab_size=3, D=1, tokens_per_type=MAX_COUNT)  # valid

    def test_sample_scenario_shapes(self):
        scenario = Scenario(
            name="mini", K=3, M=2, vocab_size=12, D=4, tokens_per_type=6
        )
        corpus, planted = sample_scenario(scenario, seed=5)
        assert corpus.num_records == 4
        assert corpus.num_types == 2
        assert planted.per_record_nu.shape == (4, 3)
        for rec in corpus.records:
            assert sum(rec.bags[0].values()) == 6
