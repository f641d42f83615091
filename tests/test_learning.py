"""Variational EM: initialization, M-step, training loop, model I/O."""

import json
import math
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phenotopics import learning, numerics
from phenotopics.corpus import _ORJSON_MAX_OPENERS, Corpus, RecordBags, Vocabulary
from phenotopics.learning import (
    FingerprintError,
    ModelFormatError,
    TrainConfig,
    TrainedModel,
    _blocks,
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
from phenotopics.variational import DocPosterior, ModelParams, _responsibilities

from .conftest import k50_params, make_params, two_block_corpus


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


def topic_counts_at(corpus, params, modes):
    """Sum over records of count-weighted q(z) at the given modes, per type,
    by the exact per-bag path."""
    sums = [np.zeros_like(lb) for lb in params.log_beta]
    for record, nu in zip(corpus.records, modes):
        for m, bag in enumerate(record.bags):
            idx = np.array(list(bag), dtype=np.intp)
            cnt = np.array(list(bag.values()), dtype=float)
            q, _, _ = _responsibilities(params.log_beta[m], idx, cnt, np.asarray(nu, dtype=float))
            sums[m][:, idx] += q * cnt
    return sums


def m_step_at(corpus, posts, current):
    """m_step with the topic counts of ``posts``' modes under ``current``."""
    return m_step(posts, topic_counts_at(corpus, current, [p.nu_hat for p in posts]), current)


# q(z) at nu = 0 is the column of beta normalized over phenotypes, so a
# probability of 1e-300 against 0.5 or more assigns a token wholly elsewhere.
TINY = 1e-300


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="K"):
            TrainConfig(K=1)

    @pytest.mark.parametrize("em_tol", [float("nan"), -1e-5])
    def test_em_tol_that_can_never_be_met_rejected(self, em_tol):
        with pytest.raises(ValueError, match="em_tol"):
            TrainConfig(K=2, em_tol=em_tol)

    @pytest.mark.parametrize(
        "field, value",
        [("K", 2.0), ("K", True), ("seed", "abc"), ("seed", -1), ("seed", False),
         ("max_em_iters", 1.5), ("em_tol", True), ("em_tol", "1e-5")],
    )
    def test_wrong_field_type_or_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{"K": 2, field: value})

    def test_em_tol_zero_allowed(self):
        assert TrainConfig(K=2, em_tol=0.0).em_tol == 0.0

    def test_k_whose_prior_numpy_cannot_hold_rejected(self):
        largest = math.isqrt(np.iinfo(np.intp).max // 8)  # K x K float64 bytes fit an intp
        assert TrainConfig(K=largest).K == largest
        for k in (largest + 1, 10**30):
            with pytest.raises(ValueError, match="K="):
                TrainConfig(K=k)


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
        params = m_step_at(corpus, posts, current)
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
        params = m_step_at(corpus, posts, current)
        beta = np.exp(params.log_beta[0])
        np.testing.assert_allclose(beta[0], [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(beta[1], [0.0, 1.0], atol=1e-9)

    def test_moment_matching_identity(self):
        corpus = tiny_corpus(num_records=4)
        cfg = TrainConfig(K=2)
        posts = [
            manual_posterior(np.zeros(2), np.eye(2), [[3.0, 3.0]]) for _ in corpus.records
        ]
        params = m_step_at(corpus, posts, initialize(corpus, cfg))
        np.testing.assert_allclose(params.mu0, np.zeros(2), atol=1e-12)
        np.testing.assert_allclose(params.sigma0, np.eye(2), atol=1e-12)

    def test_rows_normalized_and_sigma_pd_after_step(self, rng):
        corpus = tiny_corpus(num_types=2, vocab_size=6, num_records=5)
        cfg = TrainConfig(K=3, seed=2)
        params = initialize(corpus, cfg)
        posts, topic_counts = _e_step(
            corpus, params, [params.mu0] * 5, threads=1, topic_counts=True
        )
        new = m_step(posts, topic_counts, params)
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
            params = m_step_at(corpus, posts, initialize(corpus, cfg))
        assert len(caught) == 1
        np.linalg.cholesky(params.sigma0)
        np.testing.assert_allclose(params.sigma0, np.array(indefinite) + 10 * np.eye(2), rtol=1e-12)

    def test_no_posteriors_or_mismatched_topic_counts_rejected(self):
        corpus = tiny_corpus(num_types=2, num_records=3)
        params = initialize(corpus, TrainConfig(K=2))
        posts, topic_counts = _e_step(
            corpus, params, [params.mu0] * 3, threads=1, topic_counts=True
        )
        with pytest.raises(ValueError, match="at least one posterior"):
            m_step([], topic_counts, params)
        for wrong in (topic_counts[:1], [topic_counts[0], topic_counts[1][:, :-1]]):
            with pytest.raises(ValueError, match="topic count"):
                m_step(posts, wrong, params)

    def test_e_step_topic_counts_match_exact_responsibilities(self):
        # a corpus of several blocks, warm-started off the prior mean so that
        # the modes differ from record to record
        corpus, _ = sample_scenario(get_preset("overlapping"), seed=5)
        assert len(_blocks(corpus.records)) >= 2
        params = initialize(corpus, TrainConfig(K=4, seed=5))
        rng = np.random.default_rng(9)
        warm = list(rng.normal(size=(corpus.num_records, 4)))
        posts, topic_counts = _e_step(corpus, params, warm, threads=2, topic_counts=True)
        oracle = topic_counts_at(corpus, params, [p.nu_hat for p in posts])
        for got, want in zip(topic_counts, oracle):
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


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
                posts, topic_counts = _e_step(
                    corpus, params, [params.mu0] * corpus.num_records, threads=1, topic_counts=True
                )
                params = m_step(posts, topic_counts, params)
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
            posts, topic_counts = _e_step(corpus, params, warm, threads=1, topic_counts=True)
            unconverged = [
                rec.record_id for rec, post in zip(corpus.records, posts) if not post.converged
            ]
            assert unconverged == []
            warm = [post.nu_hat for post in posts]
            params = m_step(posts, topic_counts, params)


class TestColdInference:
    def test_k50_attach_posteriors_takes_few_newton_iterations_and_no_ridge(self, monkeypatch):
        """A machine-independent guard on cold inference's cost: the counts
        are deterministic, unlike timings. Started at mu0, this block takes
        9.9 Newton iterations per record and ridges 38 Hessians."""
        params, vocabularies = k50_params()
        corpus, _ = sample_corpus(params, 16, [400] * 4, 3, vocabularies=vocabularies)
        model = TrainedModel(
            params=params,
            vocabularies=vocabularies,
            doc_posteriors=[],
            history=[],
            config=TrainConfig(K=params.num_phenotypes),
            vocab_fingerprint=vocab_fingerprint(vocabularies),
        )
        ridges = []
        factor = numerics._ridged_factor

        def counted(matrix):
            result = factor(matrix)
            ridges.append(result[1])
            return result

        monkeypatch.setattr(numerics, "_ridged_factor", counted)
        posteriors = attach_posteriors(model, corpus).doc_posteriors
        assert all(post.converged for post in posteriors)
        assert np.mean([post.iterations for post in posteriors]) <= 6
        assert ridges and not any(ridges)


class TestBlocks:
    def test_consecutive_runs_within_the_token_cap(self, monkeypatch):
        monkeypatch.setattr(learning, "BLOCK_TOKENS", 10)
        sizes = [4, 5, 2, 11, 0, 3, 7, 3]  # distinct tokens per record, over two types
        records = [
            RecordBags(f"r{d}", ({v: 1 for v in range(n // 2)}, {v: 1 for v in range(n - n // 2)}))
            for d, n in enumerate(sizes)
        ]
        # a record past the cap is a block of its own; an empty one joins the next
        assert _blocks(records) == [(0, 2), (2, 3), (3, 4), (4, 7), (7, 8)]
        assert _blocks([]) == []


def _model(mu0, variances, history=(), config=None):
    """A one-type model over tokens ``a``, ``b`` with uniform topic rows."""
    vocabularies = (Vocabulary("dx", ("a", "b")),)
    k = len(mu0)
    params = ModelParams.create(
        np.asarray(mu0, dtype=float), np.diag(variances), [np.log(np.full((k, 2), 0.5))]
    )
    return TrainedModel(
        params=params,
        vocabularies=vocabularies,
        doc_posteriors=[],
        history=list(history),
        config=config or TrainConfig(K=k),
        vocab_fingerprint=vocab_fingerprint(vocabularies),
    )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()  # tells -0.0 from 0.0


# Decimals that a parser reads wrongly if it rounds imperfectly: long exact
# expansions, halfway cases, non-shortest forms and binary64's boundaries.
HARD_DECIMALS = [
    "0.1000000000000000055511151231257827021181583404541015625",  # 0.1 exactly
    "1.00000000000000011102230246251565404236316680908203125",  # halfway: to even, 1.0
    "1.000000000000000111022302462515654042363166809082031250000000001",  # past halfway
    "0.30000000000000001",
    "123456789012345678901234567890e-20",
    "2.2250738585072011e-308",
    "2.2250738585072012e-308",
    "4.9406564584124654e-324",  # the least subnormal
    "2.4703282292062328e-324",  # just over half of it: up to the least subnormal
    "2.4703282292062327e-324",  # just under: down to zero
    "1.7976931348623157e308",  # the greatest double
    "1.7976931348623158079e308",  # just under the midpoint to 2**1024
    "-0.0",
    "9007199254740993",  # 2**53 + 1, as an integer literal
]


def _hand_written_model(mu0, tokens=("a", "b"), history="[]"):
    """Model file text with ``mu0``'s and the other numbers' literals as given."""
    k = len(mu0)
    vocabularies = (Vocabulary("dx", tuple(tokens)),)
    one = HARD_DECIMALS[1]
    log_half = "-0.69314718055994528622676398299518041312694549560546875"
    return (
        f'{{"format_version": 1, "K": {k}, "M": 1,'
        f' "vocab_fingerprint": "{vocab_fingerprint(vocabularies)}",'
        f' "vocabularies": {{"dx": {json.dumps(list(tokens))}}},'
        f' "mu0": [{", ".join(mu0)}],'
        f' "sigma0": [{", ".join(one if i == j else "0" for i in range(k) for j in range(k))}],'
        f' "log_beta": {{"dx": [{", ".join([log_half] * k * len(tokens))}]}},'
        f' "config": {json.dumps(asdict(TrainConfig(K=k)))}, "converged": false,'
        f' "history": {history}}}\n'
    )


# a token of that many brackets sends a file past orjson to json
FALLBACK_TOKENS = ("a", "[" * (_ORJSON_MAX_OPENERS + 1))


_JSON_TEXT = st.text(
    alphabet=st.sampled_from('[]{}",:\\ \n\t15.e-a') | st.characters(blacklist_categories=("Cs",)),
    max_size=8,
)
# what json.loads can return and orjson reads alike: no int of 64 bits or more
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**63), 2**64 - 1)
    | st.floats(allow_nan=False, allow_infinity=False) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=25,
)


class TestModelIO:
    @settings(max_examples=300, deadline=None)
    @given(doc=_JSON_VALUES, indent=st.sampled_from([None, 1]))
    @example(doc={"tokens": ["[1, 2]", "a[", "]"], "mu0": [[1.5, [2]], [3], [], [-0.0, True]]},
             indent=None)
    def test_model_json_parses_as_json_does(self, doc, indent):
        text = json.dumps(doc, ensure_ascii=False, indent=indent)
        # repr tells 1 from 1.0 and -0.0 from 0.0
        assert repr(learning._parse_model_json(text.encode())) == repr(json.loads(text))

    def test_saved_model_parses_array_by_array(self, tmp_path):
        model = train(tiny_corpus(num_types=2), TrainConfig(K=2, seed=6, max_em_iters=2))
        save_model(model, tmp_path / "model.json")
        data = (tmp_path / "model.json").read_bytes()
        spans = learning._scalar_arrays(data)
        # mu0, sigma0, a log_beta per type and the history
        assert len(spans) == 5
        assert repr(learning._parse_by_arrays(data)) == repr(json.loads(data))

    @settings(max_examples=100, deadline=None)
    @given(
        mu0=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
        # sigma0 stays positive definite with a finite inverse
        variances=st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=2, max_size=2),
        history=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3),
    )
    def test_finite_doubles_round_trip_bitwise(self, mu0, variances, history):
        model = _model(mu0, variances, history)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/model.json"
            save_model(model, path)
            loaded = load_model(path)
        assert _bits(loaded.params.mu0) == _bits(mu0)
        assert _bits(loaded.params.sigma0) == _bits(np.diag(variances))
        assert _bits(loaded.history) == _bits(history)

    @pytest.mark.parametrize("tokens", [("a", "b"), FALLBACK_TOKENS], ids=["orjson", "json"])
    def test_hand_written_decimals_load_as_float_reads_them(self, tmp_path, tokens):
        path = tmp_path / "model.json"
        path.write_text(_hand_written_model(HARD_DECIMALS, tokens))
        loaded = load_model(path)
        assert _bits(loaded.params.mu0) == _bits([float(s) for s in HARD_DECIMALS])
        assert _bits(loaded.params.sigma0) == _bits(np.eye(len(HARD_DECIMALS)))
        log_beta = np.full((len(HARD_DECIMALS), 2), math.log(0.5))
        assert _bits(loaded.params.log_beta[0]) == _bits(log_beta)

    @pytest.mark.parametrize("tokens", [("a", "b"), FALLBACK_TOKENS], ids=["orjson", "json"])
    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400],
        ids=["nan", "infinity", "minus-infinity", "1e400", "minus-1e400", "400-digit-int"],
    )
    def test_nan_infinity_and_overflow_are_not_json(self, tmp_path, tokens, literal):
        # json reads all of them, and a history of them once loaded
        path = tmp_path / "model.json"
        path.write_text(_hand_written_model(["0.0", "0.0"], tokens, history=f"[{literal}]"))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("tokens", [("x", "b"), ("x", FALLBACK_TOKENS[1])],
                             ids=["orjson", "json"])
    def test_lone_surrogate_token_is_not_a_model(self, tmp_path, tokens):
        # json reads the escape as a str that no fingerprint can encode
        path = tmp_path / "model.json"
        path.write_text(_hand_written_model(["0.0", "0.0"], tokens).replace('"x"', '"\\ud800"'))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_integers_past_64_bits_in_the_config_echo_stay_exact(self, tmp_path):
        # orjson reads these literals as floats; TrainConfig takes any size of int
        config = TrainConfig(K=2, seed=2**70, max_em_iters=2**64)
        path = tmp_path / "model.json"
        save_model(_model([0.0, 0.0], [1.0, 1.0], [-(2**70)], config), path)
        loaded = load_model(path)
        assert loaded.config == config
        assert loaded.history == [-(2**70)] and type(loaded.history[0]) is int

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
        # update_prior held true or false while it was a field, and either loads;
        # another value is still rejected
        for update_prior in (True, False):
            payload["config"].update(
                doc_max_outer=100, beta_smoothing=1e-8, noise_scale=1.0, doc_tol=1e-4,
                update_prior=update_prior,
            )
            path.write_text(json.dumps(payload))
            assert load_model(path).config == model.config
        payload["config"]["update_prior"] = "no"
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="update_prior"):
            load_model(path)

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
