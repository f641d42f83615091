"""Per-record inference: the mode objective and its derivatives, q(nu), q(z), the ELBO."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotopics import numerics, variational
from phenotopics.corpus import RecordBags
from phenotopics.learning import BETA_SMOOTHING
from phenotopics.numerics import softmax
from phenotopics.synth import sample_corpus
from phenotopics.variational import (
    COLD_START_EM_STEPS,
    MIN_COLUMN_MASS,
    ROW_SUM_TOL,
    Evaluation,
    ModelParams,
    ModeObjective,
    _cold_starts,
    _invert_neg_hessian,
    _laplace_hessian,
    _responsibilities,
    infer_block,
)

from .conftest import (
    crawling_k50_record,
    infer_one,
    k50_params,
    make_params,
    random_params,
    random_record,
)
from .oracles import (
    enumeration_posterior_mean_proportions,
    fd_jacobian,
    finite_difference_gradient,
    mc_log_likelihood,
    term_by_term_elbo,
)


class TestModelParams:
    def test_rejects_non_pd_sigma(self):
        with pytest.raises(ValueError, match="positive definite"):
            make_params([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], [np.full((2, 2), 0.5)])

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ModelParams.create(np.zeros(2), np.eye(2), [np.log(np.full((2, 3), 0.5))])

    def test_cached_inverse(self, rng):
        params = random_params(rng, 4, [5])
        np.testing.assert_allclose(
            params.sigma0 @ params.sigma0_inv, np.eye(4), atol=1e-10
        )

    def test_cached_log_determinant(self, rng):
        for k in (2, 7, 50):
            params = random_params(rng, k, [5])
            sign, logdet = np.linalg.slogdet(params.sigma0)
            assert sign == 1.0
            assert params.sigma0_logdet == pytest.approx(logdet, rel=1e-12)


def _rejected_by_exp_row_sums(lb):
    """Whether the row-sum check rejects ``lb`` when made on ``exp(lb)`` itself."""
    with np.errstate(over="ignore"):
        row_sums = np.exp(lb).sum(axis=1)
    return bool(np.abs(row_sums - 1.0).max() > ROW_SUM_TOL)


# Replacements for one entry of a topic matrix: any finite double, small
# integers, and values at the edges of exp's range and of binary64's.
TOPIC_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2, 5),
    st.sampled_from([1e308, -1e308, 1e-300, 1e300, 709.0, 710.0, 745.0, -745.0, -800.0]),
)


class TestTopicTable:
    """Each record's beta columns come from its params' table, with the bits
    exponentiating the record's own columns gives."""

    @staticmethod
    def assert_gathered_as_exponentiated(records, params):
        objective = ModeObjective(records, params)
        for r in range(len(records)):
            for lb, idx, cnt, (shifted, offset) in zip(
                params.log_beta, objective.indices[r], objective.counts[r], objective._beta[r]
            ):
                columns = lb[:, idx]
                top = columns.max(axis=0)
                reference = np.exp(columns - top)
                assert np.array_equal(shifted, reference)
                # the same memory layout, so BLAS takes the same path through it
                assert shifted.strides == reference.strides
                assert offset == float(cnt @ top)

    @pytest.mark.parametrize("k", [2, 6])
    def test_small_k_records(self, rng, k):
        params = random_params(rng, k, [7, 30])
        records = [random_record(rng, params, [12, 40], f"r{d}") for d in range(5)]
        records.append(RecordBags("empty", ({}, {})))
        self.assert_gathered_as_exponentiated(records, params)

    def test_k50_records_of_types_that_share_one_matrix(self):
        params, vocabularies = k50_params()
        # the planted topics are one matrix shared by the four types
        assert all(lb is params.log_beta[0] for lb in params.log_beta)
        assert all(s is params.beta_shifted[0] for s in params.beta_shifted)
        assert all(t is params.beta_top[0] for t in params.beta_top)
        corpus, _ = sample_corpus(params, 6, [400] * 4, 0, vocabularies=vocabularies)
        self.assert_gathered_as_exponentiated(list(corpus.records), params)

    def test_replaced_prior_keeps_the_table_of_its_topics(self, rng):
        lb = random_params(rng, 6, [9]).log_beta[0]
        params = ModelParams.create(np.zeros(6), np.eye(6), [lb, lb])
        assert params.beta_shifted[0] is params.beta_shifted[1]
        moved = dataclasses.replace(params, mu0=np.full(6, 0.5))
        fresh = ModelParams.create(moved.mu0, params.sigma0, [lb, lb])
        records = [random_record(rng, params, [20, 5], f"r{d}") for d in range(4)]
        self.assert_gathered_as_exponentiated(records, moved)
        for a, b in zip(infer_block(records, moved)[0], infer_block(records, fresh)[0]):
            assert np.array_equal(a.nu_hat, b.nu_hat)
            assert np.array_equal(a.nu_cov, b.nu_cov)
            assert np.array_equal(a.expected_counts, b.expected_counts)
            assert a.elbo == b.elbo

    @settings(max_examples=300, deadline=None)
    @given(row=st.integers(0, 1), col=st.integers(0, 2), value=TOPIC_ENTRIES)
    def test_rejects_what_exponentiating_the_matrix_rejects(self, row, col, value):
        lb = np.log([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]])
        lb[row, col] = value
        if _rejected_by_exp_row_sums(lb):
            with pytest.raises(ValueError, match="sum to 1"):
                ModelParams.create(np.zeros(2), np.eye(2), [lb])
        else:
            ModelParams.create(np.zeros(2), np.eye(2), [lb])

    def test_entry_past_709_with_underflowing_neighbours_is_rejected(self):
        lb = np.log(np.full((3, 4), 0.25))
        lb[0, 1] = 710.0
        lb[1:, 1] = -800.0  # shifted by 710 they underflow to 0, and 0 * exp(710) is NaN
        top = lb.max(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(np.exp(lb - top) @ np.exp(top)).any()
        assert _rejected_by_exp_row_sums(lb)
        with pytest.raises(ValueError, match="sum to 1"):
            ModelParams.create(np.zeros(3), np.eye(3), [lb])


def objective(params, bags):
    """The mode objective of a block of one record with these bags."""
    return ModeObjective([RecordBags("r", tuple(bags))], params)


def at(obj, nu, row=0):
    """``obj``'s evaluation of the record in ``row`` alone, at ``nu``."""
    return obj.evaluate([row], np.asarray(nu, dtype=float)[None])


def exact_pass(obj, row, nu):
    """Value, gradient, Hessian, expected counts and q(z) of record ``row`` of
    ``obj`` at ``nu``, each built from the exact per-bag path (one K x n
    exponential per bag)."""
    params = obj.params
    pi, lse = numerics._log_normalize(nu)
    resp, expected, data = [], [], 0.0
    for lb, idx, cnt in zip(params.log_beta, obj.indices[row], obj.counts[row]):
        q, e, d = _responsibilities(lb, idx, cnt, nu)
        resp.append(q)
        expected.append(e)
        data += d - cnt.sum() * lse
    expected = np.array(expected)
    n_total = obj.n_total[row]
    centered = nu - params.mu0
    value = data - 0.5 * centered @ params.sigma0_inv @ centered
    gradient = expected.sum(axis=0) - n_total * pi - params.sigma0_inv @ centered
    hessian = np.diag(expected.sum(axis=0)) + _laplace_hessian(pi, n_total, params)
    for q, cnt in zip(resp, obj.counts[row]):
        hessian -= (q * cnt) @ q.T
    return value, gradient, hessian, expected, resp


def q_z(record, nu, params):
    """q(z) columns and expected counts of ``record`` at ``nu``, by the exact path."""
    *_, expected, resp = exact_pass(ModeObjective([record], params), 0, nu)
    return resp, expected


def laplace_precision(post, params):
    """N (diag(pi) - pi pi') + sigma0_inv at the returned mode, from its definition."""
    n_total = post.expected_counts.sum()
    pi = softmax(post.nu_hat)
    return n_total * (np.diag(pi) - np.outer(pi, pi)) + np.linalg.inv(params.sigma0)


class TestObjective:
    def test_zero_counts_leave_prior_term(self):
        params = make_params([0.0, 0.0], np.eye(2), [np.full((2, 4), 0.25)])
        assert at(objective(params, [{}]), [3.0, -1.0]).value[0] == pytest.approx(
            -5.0, abs=1e-12
        )

    def test_hand_evaluated_single_count(self):
        # log sum_k exp(0 + log 0.25) - 1 * log 2 = log 0.5 - log 2
        params = make_params([0.0, 0.0], np.eye(2), [np.full((2, 4), 0.25)])
        value = at(objective(params, [{0: 1}]), np.zeros(2)).value[0]
        assert value == pytest.approx(-2.0 * math.log(2), abs=1e-12)

    def test_matches_independent_reimplementation(self, rng):
        # direct transcription: mixture log likelihood of every token plus the
        # Gaussian log prior, kept separate on purpose; ten records in one
        # block, each at its own point
        for _ in range(10):
            k = int(rng.integers(2, 6))
            params = random_params(rng, k, [7, 4])
            records = [random_record(rng, params, [15, 6]) for _ in range(10)]
            nu = rng.normal(size=(10, k))
            values = ModeObjective(records, params).evaluate(np.arange(10), nu).value
            for record, point, value in zip(records, nu, values):
                pi = np.exp(point) / np.exp(point).sum()
                expected = -0.5 * (point - params.mu0) @ np.linalg.inv(params.sigma0) @ (
                    point - params.mu0
                )
                for bag, lb in zip(record.bags, params.log_beta):
                    for v, c in bag.items():
                        expected += c * np.log(pi @ np.exp(lb[:, v]))
                assert value == pytest.approx(expected, rel=1e-9)


class TestGradient:
    def test_stationary_at_prior_mean_without_data(self, rng):
        params = random_params(rng, 3, [5])
        np.testing.assert_allclose(
            at(objective(params, [{}]), params.mu0).gradient(), np.zeros((1, 3)), atol=1e-12
        )

    def test_hand_evaluated(self):
        # q(z) of token 0 at nu=0 is (0.75, 0.25): expected counts (3, 1)
        # minus N pi = (2, 2), with no prior pull at the prior mean
        params = make_params([0.0, 0.0], np.eye(2), [[[0.75, 0.25], [0.25, 0.75]]])
        grad = at(objective(params, [{0: 4}]), np.zeros(2)).gradient()
        np.testing.assert_allclose(grad, [[1.0, -1.0]], atol=1e-12)

    def test_matches_finite_differences(self, rng):
        # every row of a block of 2 to 5 records against central differences
        # of its value, with 20 parameter draws per K
        worst = 0.0
        for k in (2, 5, 25):
            for _ in range(20):
                params = random_params(rng, k, [9])
                n = int(rng.integers(2, 6))
                obj = ModeObjective(
                    [random_record(rng, params, [int(rng.integers(1, 60))]) for _ in range(n)],
                    params,
                )
                nu = rng.normal(scale=2.0, size=(n, k))
                grad = obj.evaluate(np.arange(n), nu).gradient()
                for row in range(n):
                    approx = finite_difference_gradient(
                        lambda x: at(obj, x, row).value[0], nu[row], 1e-6
                    )
                    rel = np.abs(grad[row] - approx).max() / max(1.0, np.abs(approx).max())
                    worst = max(worst, rel)
        assert worst <= 1e-5


class TestHessian:
    def test_no_data_reduces_to_prior_precision(self, rng):
        params = random_params(rng, 4, [5])
        np.testing.assert_allclose(
            at(objective(params, [{}]), rng.normal(size=4)).hessian()[0],
            -params.sigma0_inv,
            atol=1e-12,
        )

    def test_matches_finite_difference_jacobian(self, rng):
        worst = 0.0
        for _ in range(20):
            k = int(rng.integers(2, 8))
            params = random_params(rng, k, [6, 4])
            n = int(rng.integers(2, 6))
            obj = ModeObjective([random_record(rng, params, [30, 10]) for _ in range(n)], params)
            nu = rng.normal(size=(n, k))
            hess = obj.evaluate(np.arange(n), nu).hessian()
            for row in range(n):
                approx = fd_jacobian(lambda x: at(obj, x, row).gradient()[0], nu[row], 1e-5)
                worst = max(worst, np.abs(hess[row] - approx).max())
        assert worst <= 1e-4

    def test_symmetric_and_negated_pd(self, rng):
        # g itself is not concave (its data term is convex); the Laplace part
        # whose inverse gives the posterior covariance is
        for _ in range(20):
            k = int(rng.integers(2, 8))
            params = random_params(rng, k, [6])
            n = int(rng.integers(2, 6))
            nu = rng.normal(scale=3.0, size=(n, k))
            obj = ModeObjective([random_record(rng, params, [50]) for _ in range(n)], params)
            for hess in obj.evaluate(np.arange(n), nu).hessian():
                assert np.abs(hess - hess.T).max() <= 1e-12 * max(1.0, np.abs(hess).max())
            for laplace in _laplace_hessian(softmax(nu.T).T, np.full(n, 50.0), params):
                assert np.abs(laplace - laplace.T).max() <= 1e-12
                np.linalg.cholesky(-laplace)  # raises if not PD


def near_smoothing_params(rng, k, vocab_sizes):
    """Random params whose rows hold entries near the M-step's smoothing floor."""
    betas = []
    for v in vocab_sizes:
        rows = rng.dirichlet(np.full(v, 0.5), size=k)
        rows[rng.random(rows.shape) < 0.3] = BETA_SMOOTHING
        betas.append(rows / rows.sum(axis=1, keepdims=True))
    root = rng.normal(size=(k, k)) / np.sqrt(k)
    return make_params(rng.normal(size=k) * 0.5, root @ root.T + 0.5 * np.eye(k), betas)


class TestFactoredPass:
    """ModeObjective's factored evaluation against the exact per-bag path, row by row."""

    def assert_matches_exact(self, objective, nu, rel=1e-12):
        rows = np.arange(len(nu))
        point = objective.evaluate(rows, nu)
        gradients, hessians = point.gradient(), point.hessian()
        for row in rows:
            value, gradient, hessian, expected, resp = exact_pass(objective, row, nu[row])
            scale = max(1.0, objective.n_total[row])
            assert abs(point.value[row] - value) <= rel * max(1.0, abs(value))
            assert np.abs(gradients[row] - gradient).max() <= rel * scale
            assert np.abs(hessians[row] - hessian).max() <= rel * scale
            assert np.abs(point.expected[row] - expected).max() <= rel * scale
            for q, q_exact in zip(point.responsibilities(row), resp):
                assert q.shape == q_exact.shape
                assert np.abs(q - q_exact).max(initial=0.0) <= rel

    @pytest.mark.parametrize("k", [2, 6, 50])
    def test_matches_exact_path(self, rng, k):
        for _ in range(10):
            params = near_smoothing_params(rng, k, [40, 25, 12])
            records = [
                random_record(rng, params, [int(n) for n in rng.integers(0, 120, size=3)])
                for _ in range(3)
            ]
            obj = ModeObjective(records, params)
            for scale in (0.5, 3.0):
                self.assert_matches_exact(obj, rng.normal(scale=scale, size=(3, k)))

    def test_underflowing_column_takes_exact_path(self):
        # token 0 of type 0 has non-negligible mass only under phenotype 1,
        # whose proportion underflows at nu_1 = -750: its column mass pi @ B
        # is 0, and the factored log would be -inf. Type 1 stays factored, and
        # so does the second record of the block, at an ordinary point.
        tiny_row = [-1000.0, 0.0]
        log_beta = [np.array([tiny_row, np.log([0.5, 0.5]), tiny_row]),
                    np.log(np.full((3, 4), 0.25))]
        params = ModelParams.create(np.zeros(3), np.eye(3), log_beta)
        obj = ModeObjective(
            [RecordBags("r", ({0: 3, 1: 2}, {2: 5})), RecordBags("s", ({0: 1, 1: 4}, {0: 2}))],
            params,
        )
        nu = np.array([[0.0, -750.0, 0.0], [0.3, -0.2, 0.1]])
        point = obj.evaluate(np.arange(2), nu)
        assert np.all(np.isfinite(point.hessian()))
        assert np.all(np.isfinite(point.value))
        assert point.responsibilities(0)[0][1, 0] == pytest.approx(1.0, rel=1e-12)
        self.assert_matches_exact(obj, nu)


class TestUpdateQNu:
    """The Gaussian q(nu) that inference returns."""

    def test_no_data_returns_prior(self, rng):
        params = random_params(rng, 4, [5])
        post = infer_one(RecordBags("r", ({},)), params, start=rng.normal(size=4))
        assert post.converged
        np.testing.assert_allclose(post.nu_hat, params.mu0, atol=1e-6)
        np.testing.assert_allclose(post.nu_cov, params.sigma0, atol=1e-6)

    def test_loaded_component_dominates_and_is_stationary(self):
        beta = [[0.97, 0.01, 0.01, 0.01], [0.01, 0.33, 0.33, 0.33]]
        params = make_params([0.0, 0.0], np.eye(2), [beta])
        record = RecordBags("r", ({0: 10},))
        post = infer_one(record, params)
        assert post.converged
        assert post.nu_hat[0] > post.nu_hat[1]
        assert np.abs(at(ModeObjective([record], params), post.nu_hat).gradient()).max() <= 1e-6

    def test_symmetric_counts_give_symmetric_mode(self):
        # swapping phenotypes 0 and 1 together with tokens 0 and 1 maps the
        # model and the record onto themselves
        beta = [[0.7, 0.2, 0.1], [0.2, 0.7, 0.1], [0.1, 0.1, 0.8]]
        params = make_params(np.zeros(3), np.eye(3), [beta])
        post = infer_one(RecordBags("r", ({0: 3, 1: 3},)), params)
        assert post.nu_hat[0] == pytest.approx(post.nu_hat[1], abs=1e-10)
        assert post.nu_hat[0] > post.nu_hat[2]

    def test_covariance_is_inverse_negated_hessian(self, rng):
        params = random_params(rng, 3, [6])
        post = infer_one(random_record(rng, params, [12]), params)
        np.testing.assert_allclose(
            post.nu_cov @ laplace_precision(post, params), np.eye(3), atol=1e-8
        )


class TestInvertNegHessian:
    def test_repair_warns_once_naming_the_ridge(self):
        # -hessian = diag(1, -0.5): nine rungs fail before ridge 1, one warning
        with pytest.warns(RuntimeWarning, match="ridge 1$") as caught:
            cov, _ = _invert_neg_hessian(np.diag([-1.0, 0.5]))
        assert len(caught) == 1
        np.testing.assert_allclose(cov, np.diag([0.5, 2.0]), rtol=1e-12)


class TestUpdateQZ:
    """The closed-form q(z) responsibilities."""

    def test_equal_eta_components_pass_through_beta(self):
        beta = np.array([[0.2, 0.8], [0.8, 0.2]]).T  # columns: token 0 -> [0.2, 0.8]
        params = make_params([0.0, 0.0], np.eye(2), [beta.T])
        resp, _ = q_z(RecordBags("r", ({0: 1},)), np.zeros(2), params)
        np.testing.assert_allclose(resp[0][:, 0], [0.2, 0.8], atol=1e-12)

    def test_uniform_beta_column_gives_softmax_of_eta(self):
        params = make_params([0.0, 0.0], np.eye(2), [np.full((2, 3), 1 / 3)])
        nu_hat = np.array([1.0, -0.5])
        resp, _ = q_z(RecordBags("r", ({1: 2},)), nu_hat, params)
        np.testing.assert_allclose(resp[0][:, 0], softmax(nu_hat), atol=1e-12)

    def test_counts_scale_expected_counts_linearly(self):
        params = make_params([0.0, 0.0], np.eye(2), [np.full((2, 3), 1 / 3)])
        _, expected = q_z(RecordBags("r", ({2: 3},)), np.zeros(2), params)
        np.testing.assert_allclose(expected[0], [1.5, 1.5], atol=1e-12)

    def test_out_of_range_token_raises(self):
        params = make_params([0.0, 0.0], np.eye(2), [np.full((2, 3), 1 / 3)])
        with pytest.raises(ValueError, match="out of range"):
            infer_one(RecordBags("r", ({7: 1},)), params)

    def test_responsibilities_sum_to_one_and_conserve_counts(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 6))
            params = random_params(rng, k, [8, 5])
            record = random_record(rng, params, [13, 7])
            resp, expected = q_z(record, rng.normal(size=k), params)
            for m, bag in enumerate(record.bags):
                assert np.abs(resp[m].sum(axis=0) - 1.0).max() <= 1e-9
                assert abs(expected[m].sum() - sum(bag.values())) <= 1e-9


class TestInferDocument:
    def test_empty_record_returns_prior(self, rng):
        params = random_params(rng, 3, [4, 4])
        post = infer_one(RecordBags("r", ({}, {})), params)
        assert post.converged
        np.testing.assert_allclose(post.proportions, softmax(params.mu0), atol=1e-9)
        np.testing.assert_allclose(post.nu_cov, params.sigma0, atol=1e-9)

    def test_concentrated_record_dominates_and_matches_enumeration(self):
        # a unit prior shrinks hard toward uniform proportions, so crossing
        # 0.9 with a handful of tokens needs a looser prior
        beta = np.array([[0.96, 0.02, 0.02], [0.02, 0.02, 0.96]])
        sigma0 = 4.0 * np.eye(2)
        params = make_params([0.0, 0.0], sigma0, [beta])
        record = RecordBags("r", ({0: 8},))
        post = infer_one(record, params)
        assert post.proportions[0] > 0.9
        oracle = enumeration_posterior_mean_proportions([0] * 8, beta,
                                                        np.zeros(2), sigma0)
        assert np.argmax(oracle) == np.argmax(post.proportions)
        assert abs(post.proportions[0] - oracle[0]) <= 0.1

    def test_type_order_irrelevant_given_symmetric_params(self, rng):
        params = random_params(rng, 3, [6, 6])
        swapped = ModelParams.create(
            params.mu0, params.sigma0, [params.log_beta[1], params.log_beta[0]]
        )
        record = random_record(rng, params, [9, 5])
        post = infer_one(record, params)
        post_swapped = infer_one(
            RecordBags(record.record_id, (record.bags[1], record.bags[0])),
            swapped,
        )
        np.testing.assert_array_equal(post.nu_hat, post_swapped.nu_hat)
        np.testing.assert_array_equal(post.proportions, post_swapped.proportions)

    def test_deterministic_bitwise(self, rng):
        params = random_params(rng, 4, [7])
        record = random_record(rng, params, [11])
        a = infer_one(record, params)
        b = infer_one(record, params)
        np.testing.assert_array_equal(a.nu_hat, b.nu_hat)
        np.testing.assert_array_equal(a.nu_cov, b.nu_cov)
        np.testing.assert_array_equal(a.expected_counts, b.expected_counts)

    def test_posterior_mode_shift_is_monotone(self):
        beta = np.array([[0.7, 0.3], [0.3, 0.7]])
        params = make_params([0.0, 0.0], np.eye(2), [beta])
        previous = -np.inf
        for count in (1, 2, 4, 8):
            post = infer_one(RecordBags("r", ({0: count},)), params)
            assert post.proportions[0] > previous
            previous = post.proportions[0]

    def test_expected_counts_conserve_totals(self, rng):
        params = random_params(rng, 4, [9, 6])
        record = random_record(rng, params, [20, 3])
        post = infer_one(record, params)
        for m, bag in enumerate(record.bags):
            assert abs(post.expected_counts[m].sum() - sum(bag.values())) <= 1e-9


    def test_mode_is_fixed_point_of_the_alternation(self, rng):
        # at the returned mode, q(z) gives expected counts s whose q(nu)
        # objective eta(nu)' s - prior has zero gradient: the mode the old
        # q(z)/q(nu) alternation converged to
        for _ in range(20):
            k = int(rng.integers(2, 9))
            params = random_params(rng, k, [10, 7])
            record = random_record(rng, params, [int(rng.integers(0, 80)), 9])
            post = infer_one(record, params)
            assert post.converged
            gradient = at(ModeObjective([record], params), post.nu_hat).gradient()
            assert np.abs(gradient).max() <= 1e-6
            s = post.expected_counts.sum(axis=0)
            q_nu_grad = s - s.sum() * softmax(post.nu_hat) - np.linalg.solve(
                params.sigma0, post.nu_hat - params.mu0
            )
            assert np.abs(q_nu_grad).max() <= 1e-6

    def test_float_floor_stop_counts_as_converged(self):
        # a million-token record: g is near -1e7, so the line search stops on
        # float rounding with the gradient above Newton's 1e-6 while the step
        # left is far below tol
        rng = np.random.default_rng(3)
        beta = rng.dirichlet(np.full(8, 0.5), size=3)
        params = make_params(np.zeros(3), np.eye(3), [beta])
        bag = {v: int(c) * 10**6 for v, c in enumerate(rng.integers(1, 10, size=8))}
        record = RecordBags("r", (bag,))
        post = infer_one(record, params)
        assert np.abs(at(ModeObjective([record], params), post.nu_hat).gradient()).max() > 1e-6
        assert post.converged

    def test_newton_cap_with_large_step_is_unconverged(self, monkeypatch):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 1)
        beta = np.array([[0.96, 0.02, 0.02], [0.02, 0.02, 0.96]])
        params = make_params([0.0, 0.0], 4.0 * np.eye(2), [beta])
        post = infer_one(RecordBags("r", ({0: 40},)), params, start=np.array([-5.0, 5.0]))
        assert post.iterations == 1
        assert not post.converged


class TestElbo:
    def test_empty_record_is_zero(self, rng):
        params = random_params(rng, 3, [4])
        post = infer_one(RecordBags("r", ({},)), params)
        assert post.elbo == pytest.approx(0.0, abs=1e-9)

    def test_matches_term_by_term_expansion(self, rng):
        worst = 0.0
        for k in (2, 5, 25):
            for _ in range(10):
                params = random_params(rng, k, [9, 5, 3])
                record = random_record(rng, params, [int(n) for n in rng.integers(0, 40, 3)])
                post = infer_one(record, params, start=rng.normal(size=k))
                reference = term_by_term_elbo(record, post, params)
                worst = max(worst, abs(post.elbo - reference) / max(1.0, abs(reference)))
        assert worst <= 1e-12

    def test_below_monte_carlo_log_likelihood(self):
        beta = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        params = make_params([0.0, 0.0], np.eye(2), [beta])
        record = RecordBags("r", ({0: 1, 1: 1, 2: 1},))
        post = infer_one(record, params)
        bound = post.elbo
        loglik, se = mc_log_likelihood([record.bags[0]], [beta], np.zeros(2), np.eye(2))
        assert bound <= loglik + 3 * se


class TestDocPosteriorInvariants:
    def test_nu_cov_symmetric_pd(self, rng):
        for _ in range(10):
            params = random_params(rng, 4, [8])
            record = random_record(rng, params, [15])
            post = infer_one(record, params)
            np.testing.assert_allclose(post.nu_cov, post.nu_cov.T, atol=1e-12)
            np.linalg.cholesky(post.nu_cov)

    def test_proportions_are_softmax_of_mode(self, rng):
        params = random_params(rng, 5, [6])
        record = random_record(rng, params, [10])
        post = infer_one(record, params)
        np.testing.assert_array_equal(post.proportions, softmax(post.nu_hat))

    def test_size_does_not_grow_with_record_length(self, rng):
        params = random_params(rng, 4, [2000])
        sizes = []
        for n_tokens in (10, 1000):
            post = infer_one(random_record(rng, params, [n_tokens]), params)
            sizes.append(sum(v.nbytes for v in vars(post).values() if isinstance(v, np.ndarray)))
        assert sizes[0] == sizes[1]


def mixed_block(rng, k):
    """Params and one record of each kind a block must keep apart, at K = k.

    Type 0 gives token 0 to phenotype 1 alone (log beta -1000 elsewhere);
    type 1 is random over 2K tokens. The records are an empty one, three
    ordinary ones, a record whose token 0 sits under an underflowing phenotype
    1 at its start (column mass below MIN_COLUMN_MASS), a record of 10**12
    tokens whose gradient cannot resolve below Newton's tolerance, so that
    float rounding of its value stops the line search, and one that starts
    far from its mode.
    """
    shared = np.log(np.full(3, 1.0 / 3.0))
    type0 = np.array([[-1000.0, *shared]] * k)
    type0[1] = np.log([0.5, 0.5 / 3, 0.5 / 3, 0.5 / 3])
    type1 = rng.dirichlet(np.full(2 * k, 0.5), size=k)
    root = rng.normal(size=(k, k)) / np.sqrt(k)
    params = ModelParams.create(rng.normal(size=k) * 0.5, root @ root.T + 0.5 * np.eye(k),
                                [type0, np.log(type1)])
    heavy = np.rint(1e12 * softmax(rng.normal(size=k)) @ type1).astype(int)
    records = {
        "empty": RecordBags("e", ({}, {})),
        "underflow": RecordBags("u", ({0: 3, 1: 2}, {2: 5})),
        "float-floor": RecordBags("f", ({}, {v: int(c) for v, c in enumerate(heavy) if c})),
        "far": RecordBags("far", ({1: 400}, {0: 400, 1: 300})),
    }
    for d in range(3):
        records[f"o{d}"] = RecordBags(f"o{d}", (
            {int(v): 2 for v in rng.integers(1, 4, size=3)},
            {int(v): 1 + d for v in rng.integers(0, 2 * k, size=6)},
        ))
    starts = {name: params.mu0 for name in records}
    starts["underflow"] = np.where(np.arange(k) == 1, -750.0, 0.0)
    starts["far"] = np.where(np.arange(k) % 2, 50.0, -50.0)
    return params, records, starts


class TestBlock:
    """A record's ascent inside a block is its ascent alone."""

    @pytest.mark.parametrize("k", [2, 6, 50])
    def test_records_in_a_block_match_their_lone_inference(self, rng, k, monkeypatch):
        params, records, starts = mixed_block(rng, k)
        # start the ordinary and float-floor records where they stop alone,
        # so that under a budget of three iterations they stop by their own
        # rule while "far" runs out of iterations
        for name in ("float-floor", "o0", "o1", "o2"):
            starts[name] = infer_one(records[name], params, starts[name]).nu_hat
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 3)
        names = list(records)
        block = ModeObjective([records[name] for name in names], params)
        together = numerics.newton_ascent(block.evaluate, [starts[name] for name in names])
        lone = {
            name: numerics.newton_ascent(
                ModeObjective([records[name]], params).evaluate, [starts[name]]
            )
            for name in names
        }
        for row, name in enumerate(names):
            assert together.status[row] == lone[name].status[0], name
            assert together.iterations[row] == lone[name].iterations[0], name
            assert np.abs(together.x[row] - lone[name].x[0]).max() <= 1e-6, name
        status = dict(zip(names, together.status))
        assert status["empty"] == status["o0"] == status["o1"] == status["o2"] == "converged"
        assert status["far"] == "max_iters"
        assert status["float-floor"] == "line_search_failure"
        # the underflowing record starts on the exact path
        mass = softmax(starts["underflow"]) @ np.exp(params.log_beta[0][:, 0])
        assert mass < MIN_COLUMN_MASS

        posteriors, _ = infer_block([records[name] for name in names], params,
                                    [starts[name] for name in names])
        for post, name in zip(posteriors, names):
            alone = infer_one(records[name], params, starts[name])
            assert post.converged == alone.converged
            assert np.abs(post.nu_hat - alone.nu_hat).max() <= 1e-6


class TestColdStart:
    """The default start, EM steps past the prior mean, reaches the modes a start at mu0 does."""

    @staticmethod
    def assert_same_modes(records, params):
        """Infer ``records`` from the default start and from mu0; return both posteriors."""
        cold, cold_mode = infer_block(records, params)
        warm, warm_mode = infer_block(records, params, np.tile(params.mu0, (len(records), 1)))
        assert all(post.converged for post in cold + warm)
        np.testing.assert_allclose(cold_mode.value, warm_mode.value, rtol=1e-12, atol=0)
        np.testing.assert_allclose(cold_mode.pi, warm_mode.pi, rtol=0, atol=1e-7)
        return cold, warm

    @staticmethod
    def assert_on_prior_ridge(objective, starts):
        """The data term is flat along the ones vector, so g's slope along it
        at each start is the prior's, and the shift makes it 0."""
        point = objective.evaluate(np.arange(len(starts)), starts)
        slope = point.gradient().sum(axis=1)
        assert np.abs(slope).max() <= 1e-9 * max(1.0, objective.n_total.max())

    @staticmethod
    def k50_block(seed):
        params, vocabularies = k50_params()
        corpus, _ = sample_corpus(params, 8, [400] * 4, seed, vocabularies=vocabularies)
        return params, list(corpus.records)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k50_blocks_reach_the_mu0_modes_in_fewer_iterations(self, seed):
        params, records = self.k50_block(seed)
        cold, warm = self.assert_same_modes(records, params)
        assert sum(post.iterations for post in cold) < sum(post.iterations for post in warm)
        objective = ModeObjective(records, params)
        self.assert_on_prior_ridge(objective, _cold_starts(objective)[0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k50_em_steps_reach_the_log_e_modes_with_fewer_hessians(self, seed, monkeypatch):
        params, records = self.k50_block(seed)
        hessian_rows = []
        hessian = Evaluation.hessian

        def counted_hessian(evaluation):
            hessian_rows.append(evaluation.rows.size)
            return hessian(evaluation)

        monkeypatch.setattr(Evaluation, "hessian", counted_hessian)
        runs = {}
        for steps in (0, COLD_START_EM_STEPS):  # 0: the log E start alone
            monkeypatch.setattr(variational, "COLD_START_EM_STEPS", steps)
            hessian_rows.clear()
            posteriors, mode = infer_block(records, params)
            runs[steps] = posteriors, mode, sum(hessian_rows)
        (log_e, log_e_mode, log_e_hessians) = runs[0]
        (stepped, stepped_mode, stepped_hessians) = runs[COLD_START_EM_STEPS]
        assert [post.converged for post in stepped] == [post.converged for post in log_e]
        np.testing.assert_allclose(stepped_mode.pi, log_e_mode.pi, rtol=0, atol=1e-8)
        np.testing.assert_allclose([post.nu_hat for post in stepped],
                                   [post.nu_hat for post in log_e], rtol=0, atol=1e-5)
        np.testing.assert_allclose([post.elbo for post in stepped],
                                   [post.elbo for post in log_e], rtol=1e-9, atol=0)
        assert sum(post.iterations for post in stepped) < sum(post.iterations for post in log_e)
        assert stepped_hessians < log_e_hessians

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k50_em_steps_never_lower_g_and_stay_on_the_prior_ridge(self, seed, monkeypatch):
        params, records = self.k50_block(seed)
        objective = ModeObjective(records, params)
        rows = np.arange(len(records))
        values = []
        for steps in range(COLD_START_EM_STEPS + 1):
            monkeypatch.setattr(variational, "COLD_START_EM_STEPS", steps)
            starts, point = _cold_starts(objective)
            # the evaluation handed to the ascent is the one at the starts
            assert np.array_equal(point.rows, rows)
            assert np.array_equal(point.value, objective.evaluate(rows, starts).value)
            self.assert_on_prior_ridge(objective, starts)
            values.append(point.value)
        rises = np.diff(values, axis=0)
        assert (rises >= 0).all()
        assert (rises[0] > 0).all()

    @pytest.mark.parametrize("scale", [0.1, np.nan])
    def test_em_steps_that_lower_g_or_are_not_finite_are_not_taken(self, scale, monkeypatch):
        # a curvature 10x too flat sends every step far past the mode, where g
        # is lower; a nan curvature gives nan steps, which are not evaluated
        params, records = self.k50_block(0)
        objective = ModeObjective(records, params)
        monkeypatch.setattr(variational, "COLD_START_EM_STEPS", 0)
        log_e, _ = _cold_starts(objective)
        monkeypatch.setattr(variational, "COLD_START_EM_STEPS", 3)
        laplace_hessian = variational._laplace_hessian
        monkeypatch.setattr(variational, "_laplace_hessian",
                            lambda *args: scale * laplace_hessian(*args))
        starts, point = _cold_starts(objective)
        assert np.array_equal(starts, log_e)
        assert np.array_equal(point.value, objective.evaluate(np.arange(len(records)), log_e).value)

    def test_em_steps_that_barely_cut_the_gradient_are_not_taken(self, monkeypatch):
        # near-uniform topics, as training starts from: q(z) is close to pi
        # for every token, so the step to log E cuts no gradient by half
        rng = np.random.default_rng(0)
        params = make_params(np.zeros(6), np.eye(6), [rng.dirichlet(np.full(30, 1000.0), size=6)])
        records = [random_record(rng, params, [400], f"r{d}") for d in range(5)]
        objective = ModeObjective(records, params)
        starts, _ = _cold_starts(objective)
        monkeypatch.setattr(variational, "COLD_START_EM_STEPS", 0)
        log_e, _ = _cold_starts(objective)
        assert np.array_equal(starts, log_e)
        monkeypatch.setattr(variational, "COLD_START_EM_STEPS", 3)
        monkeypatch.setattr(variational, "COLD_START_MIN_CONTRACTION", 0.0)
        stepped, _ = _cold_starts(objective)
        assert not np.array_equal(stepped, log_e)

    def test_a_singular_prior_curvature_leaves_the_log_e_starts(self, monkeypatch):
        # 2**55 tokens: N pi_k (1 - pi_k) = 2**53 at pi = (1/2, 1/2), where
        # adding sigma0_inv's 1 rounds away, so -H_L is exactly singular
        params = make_params([0.0, 0.0], np.eye(2), [[[0.4, 0.1, 0.4, 0.1],
                                                      [0.1, 0.4, 0.1, 0.4]]])
        records = [RecordBags("huge", ({v: 2**53 for v in range(4)},))]
        objective = ModeObjective(records, params)
        starts, point = _cold_starts(objective)
        monkeypatch.setattr(variational, "COLD_START_EM_STEPS", 0)
        log_e, _ = _cold_starts(objective)
        assert np.array_equal(starts, log_e)
        assert np.array_equal(point.value, objective.evaluate([0], starts).value)
        (post,), _ = infer_block(records, params)
        assert np.isfinite(post.nu_hat).all()

    def test_edge_records_start_finite_and_reach_the_mu0_modes(self):
        # phenotype 2 gives tokens 0 and 1 of both types a probability that
        # underflows to 0 (log beta -800), so a record of only those tokens
        # has no expected count under it at mu0
        type0 = np.log([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6], [1.0, 1.0, 1.0]])
        type1 = np.log([[0.25] * 4, [0.1, 0.2, 0.3, 0.4], [1.0, 1.0, 0.5, 0.5]])
        type0[2, :2] = type1[2, :2] = -800.0
        params = ModelParams.create([0.3, -0.2, 0.1], [[1.0, 0.4, 0.0], [0.4, 2.0, 0.3],
                                                       [0.0, 0.3, 0.5]], [type0, type1])
        records = [
            RecordBags("empty", ({}, {})),
            RecordBags("empty-bag", ({}, {0: 2, 3: 5})),
            RecordBags("underflow", ({0: 4, 1: 2}, {1: 3})),
        ]
        objective = ModeObjective(records, params)
        at_mu0 = objective.evaluate(np.arange(3), np.tile(params.mu0, (3, 1)))
        assert at_mu0.expected.sum(axis=1)[2, 2] == 0.0
        starts, _ = _cold_starts(objective)
        assert np.isfinite(starts).all()
        assert np.array_equal(starts[0], params.mu0)
        assert np.array_equal(starts[2], params.mu0)
        assert not np.array_equal(starts[1], params.mu0)
        self.assert_on_prior_ridge(ModeObjective(records[1:2], params), starts[1:2])
        self.assert_same_modes(records, params)

    def test_explicit_starts_are_used_as_given(self, rng, monkeypatch):
        params = random_params(rng, 5, [6, 4])
        records = [random_record(rng, params, [10, 5], f"r{d}") for d in range(3)]
        starts = rng.normal(size=(3, 5))
        cold_starts, _ = _cold_starts(ModeObjective(records, params))
        assert not np.array_equal(cold_starts, np.tile(params.mu0, (3, 1)))
        # with no iteration allowed, every record stops where it started
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 0)
        for given, expected in ((starts, starts), (None, cold_starts)):
            posteriors, _ = infer_block(records, params, given)
            assert np.array_equal([post.nu_hat for post in posteriors], expected)


class TestCrawlingRecord:
    """A K=50 record on few distinct tokens that damped Newton does not finish."""

    def test_cold_start_reports_the_record_unconverged_at_the_cap(self):
        params, record = crawling_k50_record()
        assert sum(record.bags[0].values()) == 42_000_000 and len(record.bags[0]) == 8
        (post,), _ = infer_block([record], params)
        assert not post.converged
        assert post.iterations == numerics.NEWTON_MAX_ITERS
