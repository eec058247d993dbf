import math

import numpy as np
import pytest

from ordmixed import (
    Cluster,
    Dataset,
    FixedEffects,
    LinkFamily,
    NoRandomEffect,
    ParameterVector,
    UnivariateRandomEffect,
    category_probabilities,
    conditional_cluster_loglik,
    gauss_hermite,
    marginal_cluster_loglik,
    total_loglik,
)
from ordmixed.likelihood import LoglikKernel, multinomial_log_coefficient


def make_cluster(counts, covariates=()):
    return Cluster(covariates=np.array(covariates, dtype=float), counts=np.array(counts))


class TestConditional:
    def test_single_observation(self):
        cl = make_cluster([1, 0, 0])
        ll = conditional_cluster_loglik(cl, np.array([0.2, 0.3, 0.5]))
        assert ll == pytest.approx(math.log(0.2), abs=1e-12)

    def test_zero_probability_with_zero_count_drops(self):
        cl = make_cluster([10, 0, 0])
        ll = conditional_cluster_loglik(cl, np.array([1.0, 0.0, 0.0]))
        assert ll == pytest.approx(0.0, abs=1e-12)

    def test_zero_probability_with_positive_count_is_minus_inf(self):
        cl = make_cluster([9, 1, 0])
        ll = conditional_cluster_loglik(cl, np.array([1.0, 0.0, 0.0]))
        assert ll == -np.inf

    def test_exact_factorial_oracle(self):
        # oracle: exact integer factorials
        cl = make_cluster([2, 3, 5])
        coef = math.factorial(10) // (
            math.factorial(2) * math.factorial(3) * math.factorial(5)
        )
        expected = (
            math.log(coef)
            + 2 * math.log(0.2)
            + 3 * math.log(0.3)
            + 5 * math.log(0.5)
        )
        ll = conditional_cluster_loglik(cl, np.array([0.2, 0.3, 0.5]))
        assert ll == pytest.approx(expected, abs=1e-12)
        assert multinomial_log_coefficient(cl.counts) == pytest.approx(
            math.log(coef), abs=1e-10
        )


def simple_params(sigma=None):
    fe = FixedEffects(intercepts=[-1.0, 0.5], slopes=[0.8])
    re = NoRandomEffect() if sigma is None else UnivariateRandomEffect(sigma=sigma)
    return ParameterVector(fixed=fe, re=re)


class TestMarginal:
    def test_sigma_zero_equals_conditional(self):
        cl = make_cluster([2, 3, 5], [0.7])
        params = simple_params(sigma=0.0)
        rule = gauss_hermite(17)
        marg = marginal_cluster_loglik(cl, params, LinkFamily.PROPORTIONAL_ODDS, rule)
        probs = category_probabilities(
            LinkFamily.PROPORTIONAL_ODDS, np.array([-1.0 + 0.56, 0.5 + 0.56])
        )
        cond = conditional_cluster_loglik(cl, probs)
        assert marg == pytest.approx(cond, abs=1e-12)

    def test_order_one_rule_equals_conditional_at_zero(self):
        cl = make_cluster([2, 3, 5], [0.7])
        rule = gauss_hermite(1)
        for sigma in (0.3, 1.5):
            params = simple_params(sigma=sigma)
            marg = marginal_cluster_loglik(cl, params, LinkFamily.CONTINUATION_RATIO, rule)
            probs = category_probabilities(
                LinkFamily.CONTINUATION_RATIO, np.array([-1.0 + 0.56, 0.5 + 0.56])
            )
            assert marg == pytest.approx(conditional_cluster_loglik(cl, probs), abs=1e-12)

    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_monte_carlo_oracle(self, link):
        # oracle: plain Monte Carlo with a large standard-normal sample
        rng = np.random.default_rng(42)
        draws = rng.standard_normal(200_000)
        sigma = 0.6
        params = simple_params(sigma=sigma)
        rule = gauss_hermite(30)
        cl = make_cluster([2, 3, 5], [0.7])
        deltas = np.array([-1.0 + 0.56, 0.5 + 0.56])[None, :] + sigma * draws[:, None]
        probs = category_probabilities(link, deltas)
        with np.errstate(divide="ignore", invalid="ignore"):
            logmass = (cl.counts * np.log(probs)).sum(axis=1)
        mass = np.exp(multinomial_log_coefficient(cl.counts) + logmass)
        mc_mean = mass.mean()
        mc_se = mass.std(ddof=1) / math.sqrt(draws.size)
        exact = math.exp(marginal_cluster_loglik(cl, params, link, rule))
        assert abs(exact - mc_mean) < 3.0 * mc_se

    def test_quadrature_convergence_order_30_vs_40(self):
        # published strawberry random-effect parameter values
        fe = FixedEffects(
            intercepts=[-2.388, -0.750],
            slopes=[0.142, -0.177, 0.789, 0.692, 1.138, 0.750, 0.869, 0.107],
        )
        params = ParameterVector(fixed=fe, re=UnivariateRandomEffect(sigma=0.671))
        from ordmixed import strawberry_dataset
        from ordmixed.likelihood import cluster_logliks

        ds = strawberry_dataset()
        ll30 = cluster_logliks(ds, params, LinkFamily.PROPORTIONAL_ODDS, gauss_hermite(30))
        ll40 = cluster_logliks(ds, params, LinkFamily.PROPORTIONAL_ODDS, gauss_hermite(40))
        assert np.max(np.abs(ll30 - ll40)) <= 1e-6


class TestTotal:
    def test_single_cluster_equals_per_cluster_value(self):
        cl = make_cluster([2, 3, 5], [0.7])
        ds = Dataset(clusters=(cl,))
        params = simple_params(sigma=0.4)
        rule = gauss_hermite(21)
        total = total_loglik(ds, params, LinkFamily.ADJACENT_CATEGORIES, rule)
        single = marginal_cluster_loglik(cl, params, LinkFamily.ADJACENT_CATEGORIES, rule)
        assert total == pytest.approx(single, abs=1e-12)

    def test_additivity_over_split(self):
        rng = np.random.default_rng(3)
        clusters = tuple(
            make_cluster(rng.multinomial(10, [0.3, 0.3, 0.4]), [float(rng.normal())])
            for _ in range(10)
        )
        params = simple_params(sigma=0.5)
        rule = gauss_hermite(15)
        whole = total_loglik(Dataset(clusters=clusters), params, LinkFamily.PROPORTIONAL_ODDS, rule)
        first = total_loglik(Dataset(clusters=clusters[:4]), params, LinkFamily.PROPORTIONAL_ODDS, rule)
        second = total_loglik(Dataset(clusters=clusters[4:]), params, LinkFamily.PROPORTIONAL_ODDS, rule)
        assert whole == pytest.approx(first + second, abs=1e-12)

    def test_invariant_under_reordering(self):
        rng = np.random.default_rng(4)
        clusters = [
            make_cluster(rng.multinomial(8, [0.2, 0.5, 0.3]), [float(rng.normal())])
            for _ in range(12)
        ]
        params = simple_params(sigma=0.7)
        rule = gauss_hermite(19)
        a = total_loglik(Dataset(clusters=tuple(clusters)), params, LinkFamily.CONTINUATION_RATIO, rule)
        b = total_loglik(
            Dataset(clusters=tuple(reversed(clusters))), params, LinkFamily.CONTINUATION_RATIO, rule
        )
        assert a == pytest.approx(b, abs=1e-10)

    def test_homogeneous_bypasses_rule(self):
        cl = make_cluster([2, 3, 5], [0.7])
        ds = Dataset(clusters=(cl,))
        params = simple_params()
        probs = category_probabilities(
            LinkFamily.PROPORTIONAL_ODDS, np.array([-1.0 + 0.56, 0.5 + 0.56])
        )
        assert total_loglik(ds, params, LinkFamily.PROPORTIONAL_ODDS) == pytest.approx(
            conditional_cluster_loglik(cl, probs), abs=1e-12
        )

    def test_infeasible_proposal_propagates_minus_inf(self):
        cl = make_cluster([2, 3, 5])
        ds = Dataset(clusters=(cl,))
        fe = FixedEffects(intercepts=[0.5, -0.5], slopes=np.empty(0))
        params = ParameterVector(fixed=fe, re=NoRandomEffect())
        assert total_loglik(ds, params, LinkFamily.PROPORTIONAL_ODDS) == -np.inf


class TestMarginalAndScore:
    @pytest.fixture(scope="class")
    def kernel(self):
        rng = np.random.default_rng(5)
        clusters = tuple(
            make_cluster(rng.multinomial(8, [0.3, 0.3, 0.4]), rng.normal(size=2))
            for _ in range(12)
        )
        return LoglikKernel(Dataset(clusters=clusters), LinkFamily.PROPORTIONAL_ODDS)

    def test_value_is_the_summed_marginal(self, kernel):
        rule = gauss_hermite(15)
        args = (np.array([-0.8, 0.6]), np.array([0.3, -0.2]), 1.2 * rule.nodes, rule.weights)
        r = kernel.marginal_and_score(*args)
        assert r.loglik == float(kernel.marginal(*args).sum())
        np.testing.assert_allclose(r.posterior.sum(axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(r.slot_score.sum(axis=0), r.node_score.sum(axis=0), rtol=1e-10)

    def test_one_node_at_zero_is_the_conditional(self, kernel):
        c, b = np.array([-0.8, 0.6]), np.array([0.3, -0.2])
        r = kernel.marginal_and_score(c, b, np.zeros(1), np.ones(1))
        assert r.loglik == pytest.approx(float(kernel.conditional(c, b).sum()), rel=1e-14)
        np.testing.assert_array_equal(r.posterior, np.ones((12, 1)))

    def test_infeasible_nodes_get_zero_weight(self, kernel):
        # slot-wise offsets that reverse the cutpoints at two of three nodes
        offsets = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, -2.0]])
        r = kernel.marginal_and_score(
            np.array([-0.8, 0.6]), np.array([0.3, -0.2]), offsets, np.full(3, 1 / 3)
        )
        np.testing.assert_array_equal(r.posterior[:, 1:], 0.0)
        assert np.all(np.isfinite(r.slot_score)) and np.all(np.isfinite(r.node_score))
        np.testing.assert_array_equal(r.node_score[1:], 0.0)
