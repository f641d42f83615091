"""Per-record inference: the mode objective and its derivatives, q(nu), q(z), the ELBO."""

import math

import numpy as np
import pytest

from phenotopics import numerics
from phenotopics.corpus import RecordBags
from phenotopics.numerics import softmax
from phenotopics.variational import (
    ModelParams,
    ModeObjective,
    _bag_arrays,
    _invert_neg_hessian,
    _laplace_hessian,
    _responsibilities,
    infer_document,
)

from .conftest import make_params, random_params, random_record
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


def objective(params, bags):
    return ModeObjective(RecordBags("r", tuple(bags)), params)


def q_z(record, nu, params):
    """q(z) columns and expected counts of ``record`` at log proportions ``nu``."""
    resp, expected, _ = _responsibilities(*_bag_arrays(record, params), nu, params)
    return resp, expected


def laplace_precision(post, params):
    """N (diag(pi) - pi pi') + sigma0_inv at the returned mode, from its definition."""
    n_total = post.expected_counts.sum()
    pi = softmax(post.nu_hat)
    return n_total * (np.diag(pi) - np.outer(pi, pi)) + np.linalg.inv(params.sigma0)


class TestObjective:
    def test_zero_counts_leave_prior_term(self):
        params = make_params([0.0, 0.0], np.eye(2), [np.full((2, 4), 0.25)])
        assert objective(params, [{}]).value(np.array([3.0, -1.0])) == pytest.approx(
            -5.0, abs=1e-12
        )

    def test_hand_evaluated_single_count(self):
        # log sum_k exp(0 + log 0.25) - 1 * log 2 = log 0.5 - log 2
        params = make_params([0.0, 0.0], np.eye(2), [np.full((2, 4), 0.25)])
        value = objective(params, [{0: 1}]).value(np.zeros(2))
        assert value == pytest.approx(-2.0 * math.log(2), abs=1e-12)

    def test_matches_independent_reimplementation(self, rng):
        # direct transcription: mixture log likelihood of every token plus the
        # Gaussian log prior, kept separate on purpose
        for _ in range(10):
            k = int(rng.integers(2, 6))
            params = random_params(rng, k, [7, 4])
            record = random_record(rng, params, [15, 6])
            nu = rng.normal(size=k)
            pi = np.exp(nu) / np.exp(nu).sum()
            expected = -0.5 * (nu - params.mu0) @ np.linalg.inv(params.sigma0) @ (
                nu - params.mu0
            )
            for bag, lb in zip(record.bags, params.log_beta):
                for v, c in bag.items():
                    expected += c * np.log(pi @ np.exp(lb[:, v]))
            value = ModeObjective(record, params).value(nu)
            assert value == pytest.approx(expected, rel=1e-9)


class TestGradient:
    def test_stationary_at_prior_mean_without_data(self, rng):
        params = random_params(rng, 3, [5])
        np.testing.assert_allclose(
            objective(params, [{}]).gradient(params.mu0), np.zeros(3), atol=1e-12
        )

    def test_hand_evaluated(self):
        # q(z) of token 0 at nu=0 is (0.75, 0.25): expected counts (3, 1)
        # minus N pi = (2, 2), with no prior pull at the prior mean
        params = make_params([0.0, 0.0], np.eye(2), [[[0.75, 0.25], [0.25, 0.75]]])
        grad = objective(params, [{0: 4}]).gradient(np.zeros(2))
        np.testing.assert_allclose(grad, [1.0, -1.0], atol=1e-12)

    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for k in (2, 5, 25):
            for _ in range(20):
                params = random_params(rng, k, [9])
                obj = ModeObjective(random_record(rng, params, [int(rng.integers(1, 60))]), params)
                nu = rng.normal(scale=2.0, size=k)
                grad = obj.gradient(nu)
                approx = finite_difference_gradient(obj.value, nu, 1e-6)
                rel = np.abs(grad - approx).max() / max(1.0, np.abs(approx).max())
                worst = max(worst, rel)
        assert worst <= 1e-5


class TestHessian:
    def test_no_data_reduces_to_prior_precision(self, rng):
        params = random_params(rng, 4, [5])
        np.testing.assert_allclose(
            objective(params, [{}]).hessian(rng.normal(size=4)),
            -params.sigma0_inv,
            atol=1e-12,
        )

    def test_matches_finite_difference_jacobian(self, rng):
        worst = 0.0
        for _ in range(20):
            k = int(rng.integers(2, 8))
            params = random_params(rng, k, [6, 4])
            obj = ModeObjective(random_record(rng, params, [30, 10]), params)
            nu = rng.normal(size=k)
            approx = fd_jacobian(obj.gradient, nu, 1e-5)
            worst = max(worst, np.abs(obj.hessian(nu) - approx).max())
        assert worst <= 1e-4

    def test_symmetric_and_negated_pd(self, rng):
        # g itself is not concave (its data term is convex); the Laplace part
        # whose inverse gives the posterior covariance is
        for _ in range(20):
            k = int(rng.integers(2, 8))
            params = random_params(rng, k, [6])
            nu = rng.normal(scale=3.0, size=k)
            hess = ModeObjective(random_record(rng, params, [50]), params).hessian(nu)
            assert np.abs(hess - hess.T).max() <= 1e-12 * max(1.0, np.abs(hess).max())
            laplace = _laplace_hessian(softmax(nu), 50.0, params)
            assert np.abs(laplace - laplace.T).max() <= 1e-12
            np.linalg.cholesky(-laplace)  # raises if not PD


class TestUpdateQNu:
    """The Gaussian q(nu) that infer_document returns."""

    def test_no_data_returns_prior(self, rng):
        params = random_params(rng, 4, [5])
        post = infer_document(RecordBags("r", ({},)), params, nu_init=rng.normal(size=4))
        assert post.converged
        np.testing.assert_allclose(post.nu_hat, params.mu0, atol=1e-6)
        np.testing.assert_allclose(post.nu_cov, params.sigma0, atol=1e-6)

    def test_loaded_component_dominates_and_is_stationary(self):
        beta = [[0.97, 0.01, 0.01, 0.01], [0.01, 0.33, 0.33, 0.33]]
        params = make_params([0.0, 0.0], np.eye(2), [beta])
        record = RecordBags("r", ({0: 10},))
        post = infer_document(record, params)
        assert post.converged
        assert post.nu_hat[0] > post.nu_hat[1]
        assert np.abs(ModeObjective(record, params).gradient(post.nu_hat)).max() <= 1e-6

    def test_symmetric_counts_give_symmetric_mode(self):
        # swapping phenotypes 0 and 1 together with tokens 0 and 1 maps the
        # model and the record onto themselves
        beta = [[0.7, 0.2, 0.1], [0.2, 0.7, 0.1], [0.1, 0.1, 0.8]]
        params = make_params(np.zeros(3), np.eye(3), [beta])
        post = infer_document(RecordBags("r", ({0: 3, 1: 3},)), params)
        assert post.nu_hat[0] == pytest.approx(post.nu_hat[1], abs=1e-10)
        assert post.nu_hat[0] > post.nu_hat[2]

    def test_covariance_is_inverse_negated_hessian(self, rng):
        params = random_params(rng, 3, [6])
        post = infer_document(random_record(rng, params, [12]), params)
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
            infer_document(RecordBags("r", ({7: 1},)), params)

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
        post = infer_document(RecordBags("r", ({}, {})), params)
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
        post = infer_document(record, params, tol=1e-6)
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
        post = infer_document(record, params, tol=1e-8)
        post_swapped = infer_document(
            RecordBags(record.record_id, (record.bags[1], record.bags[0])),
            swapped,
            tol=1e-8,
        )
        np.testing.assert_array_equal(post.nu_hat, post_swapped.nu_hat)
        np.testing.assert_array_equal(post.proportions, post_swapped.proportions)

    def test_deterministic_bitwise(self, rng):
        params = random_params(rng, 4, [7])
        record = random_record(rng, params, [11])
        a = infer_document(record, params)
        b = infer_document(record, params)
        np.testing.assert_array_equal(a.nu_hat, b.nu_hat)
        np.testing.assert_array_equal(a.nu_cov, b.nu_cov)
        np.testing.assert_array_equal(a.expected_counts, b.expected_counts)

    def test_posterior_mode_shift_is_monotone(self):
        beta = np.array([[0.7, 0.3], [0.3, 0.7]])
        params = make_params([0.0, 0.0], np.eye(2), [beta])
        previous = -np.inf
        for count in (1, 2, 4, 8):
            post = infer_document(RecordBags("r", ({0: count},)), params, tol=1e-8)
            assert post.proportions[0] > previous
            previous = post.proportions[0]

    def test_expected_counts_conserve_totals(self, rng):
        params = random_params(rng, 4, [9, 6])
        record = random_record(rng, params, [20, 3])
        post = infer_document(record, params)
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
            post = infer_document(record, params)
            assert post.converged
            assert np.abs(ModeObjective(record, params).gradient(post.nu_hat)).max() <= 1e-6
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
        post = infer_document(record, params)
        assert np.abs(ModeObjective(record, params).gradient(post.nu_hat)).max() > 1e-6
        assert post.converged

    def test_newton_cap_with_large_step_is_unconverged(self, monkeypatch):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 1)
        beta = np.array([[0.96, 0.02, 0.02], [0.02, 0.02, 0.96]])
        params = make_params([0.0, 0.0], 4.0 * np.eye(2), [beta])
        post = infer_document(RecordBags("r", ({0: 40},)), params, nu_init=np.array([-5.0, 5.0]))
        assert post.iterations == 1
        assert not post.converged


class TestElbo:
    def test_empty_record_is_zero(self, rng):
        params = random_params(rng, 3, [4])
        post = infer_document(RecordBags("r", ({},)), params)
        assert post.elbo == pytest.approx(0.0, abs=1e-9)

    def test_matches_term_by_term_expansion(self, rng):
        worst = 0.0
        for k in (2, 5, 25):
            for _ in range(10):
                params = random_params(rng, k, [9, 5, 3])
                record = random_record(rng, params, [int(n) for n in rng.integers(0, 40, 3)])
                post = infer_document(record, params, nu_init=rng.normal(size=k))
                reference = term_by_term_elbo(record, post, params)
                worst = max(worst, abs(post.elbo - reference) / max(1.0, abs(reference)))
        assert worst <= 1e-12

    def test_below_monte_carlo_log_likelihood(self):
        beta = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        params = make_params([0.0, 0.0], np.eye(2), [beta])
        record = RecordBags("r", ({0: 1, 1: 1, 2: 1},))
        post = infer_document(record, params, tol=1e-8)
        bound = post.elbo
        loglik, se = mc_log_likelihood([record.bags[0]], [beta], np.zeros(2), np.eye(2))
        assert bound <= loglik + 3 * se


class TestDocPosteriorInvariants:
    def test_nu_cov_symmetric_pd(self, rng):
        for _ in range(10):
            params = random_params(rng, 4, [8])
            record = random_record(rng, params, [15])
            post = infer_document(record, params)
            np.testing.assert_allclose(post.nu_cov, post.nu_cov.T, atol=1e-12)
            np.linalg.cholesky(post.nu_cov)

    def test_proportions_are_softmax_of_mode(self, rng):
        params = random_params(rng, 5, [6])
        record = random_record(rng, params, [10])
        post = infer_document(record, params)
        np.testing.assert_array_equal(post.proportions, softmax(post.nu_hat))

    def test_size_does_not_grow_with_record_length(self, rng):
        params = random_params(rng, 4, [2000])
        sizes = []
        for n_tokens in (10, 1000):
            post = infer_document(random_record(rng, params, [n_tokens]), params)
            sizes.append(sum(v.nbytes for v in vars(post).values() if isinstance(v, np.ndarray)))
        assert sizes[0] == sizes[1]
