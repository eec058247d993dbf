import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

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
    strawberry_dataset,
    total_loglik,
)
from ordmixed import likelihood
from ordmixed.likelihood import LoglikKernel, cluster_logliks, multinomial_log_coefficient
from ordmixed.model import (
    curvature_pairs,
    log_category_probabilities,
    log_multinomial_coefficients,
    slot_stages,
    slot_terms,
)
from ordmixed.quadrature import standard_tensor_grid


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
        # rows sorted by (pattern, counts) make the sum independent of the order
        assert a == b

    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_parameters_without_slopes_take_no_covariates(self, link):
        """An intercept model's parameters, on a dataset with covariates:
        each cluster's value is the full model's at zero slopes."""
        ds, rule = strawberry_dataset(), gauss_hermite(15)
        fe = FixedEffects(intercepts=[-1.0, 0.5], slopes=np.empty(0))
        intercept = ParameterVector(fixed=fe, re=UnivariateRandomEffect(sigma=0.6))
        zero = ParameterVector(fixed=replace(fe, slopes=np.zeros(8)), re=intercept.re)
        np.testing.assert_array_equal(
            cluster_logliks(ds, intercept, link, rule), cluster_logliks(ds, zero, link, rule)
        )
        # the intercept model's 35 rows and the full model's 48 sum in their own order
        assert total_loglik(ds, intercept, link, rule) == pytest.approx(
            total_loglik(ds, zero, link, rule), rel=1e-14
        )

    def test_a_slope_count_other_than_all_or_none_raises(self):
        fe = FixedEffects(intercepts=[-1.0, 0.5], slopes=np.zeros(3))
        params = ParameterVector(fixed=fe, re=NoRandomEffect())
        with pytest.raises(ValueError, match="3 slopes, but the dataset has 8 covariates"):
            total_loglik(strawberry_dataset(), params, LinkFamily.PROPORTIONAL_ODDS)

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


def _posterior(kernel, intercepts, slopes, node_offsets, weights):
    """Each row's posterior weights over shared node offsets, from its node
    log-likelihoods and the log weights."""
    with np.errstate(divide="ignore"):
        ll = kernel.node_logliks(intercepts, slopes, node_offsets)
        log_mass = ll + np.log(weights)
    mass = np.exp(log_mass - log_mass.max(axis=1, keepdims=True))
    return mass / mass.sum(axis=1, keepdims=True)


def _slot_score(kernel, intercepts, slopes, offsets, weights):
    """``louis_moments`` with identity node features, whose ``mean`` (n, K-1)
    is each cluster's posterior-averaged score with respect to its boundary
    predictors."""
    k1 = kernel.n_boundaries
    features = np.broadcast_to(np.eye(k1), (len(weights), k1, k1))
    return kernel.louis_moments(intercepts, slopes, offsets, weights, features)


class TestPosteriorScore:
    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(5)
        clusters = tuple(
            make_cluster(rng.multinomial(8, [0.3, 0.3, 0.4]), rng.normal(size=2))
            for _ in range(12)
        )
        return Dataset(clusters=clusters)

    @pytest.fixture(scope="class")
    def kernel(self, dataset):
        return LoglikKernel(dataset, LinkFamily.PROPORTIONAL_ODDS)

    def test_value_is_the_summed_marginal(self, dataset, kernel):
        rule = gauss_hermite(15)
        offsets = 1.2 * rule.nodes[:, None]
        args = (np.array([-0.8, 0.6]), np.array([0.3, -0.2]), offsets, rule.weights)
        r = _slot_score(kernel, *args)
        assert r.loglik == float(kernel.marginal(*args).sum())
        np.testing.assert_allclose(_posterior(kernel, *args).sum(axis=1), 1.0, rtol=1e-12)
        _, slot = _wrapper_kernel_oracle(LinkFamily.PROPORTIONAL_ODDS, dataset, *args)
        np.testing.assert_allclose(r.mean[kernel.rows.index], slot, rtol=1e-10, atol=1e-12)

    def test_one_node_at_zero_is_the_conditional(self, kernel):
        c, b = np.array([-0.8, 0.6]), np.array([0.3, -0.2])
        r = _slot_score(kernel, c, b, np.zeros((1, 2)), np.ones(1))
        conditional = kernel.conditional_terms(c, b, np.zeros((len(kernel.rows.first), 2)))
        assert r.loglik == pytest.approx(float(conditional.loglik.sum()), rel=1e-14)
        np.testing.assert_allclose(r.mean, conditional.score, rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(
            _posterior(kernel, c, b, np.zeros((1, 2)), np.ones(1)), np.ones((12, 1))
        )

    @pytest.mark.parametrize(
        "offsets",
        [
            # slot-wise offsets that reverse the cutpoints at some nodes
            [[0.0, 0.0], [1.0, -1.0], [2.0, -2.0]],
            [[1.5, -1.5], [0.0, 0.0], [0.3, 0.1], [-2.0, 2.0]],
            [[0.0, 0.0], [-0.7, -0.7], [0.9, -0.9]],
        ],
    )
    def test_infeasible_nodes_get_zero_weight(self, dataset, kernel, offsets):
        offsets = np.array(offsets)
        c = np.array([-0.8, 0.6])
        infeasible = np.diff(c + offsets, axis=1)[:, 0] < 0
        weights = np.full(offsets.shape[0], 1.0 / offsets.shape[0])
        r = _slot_score(kernel, c, np.array([0.3, -0.2]), offsets, weights)
        posterior = _posterior(kernel, c, np.array([0.3, -0.2]), offsets, weights)
        assert np.isfinite(r.loglik)
        np.testing.assert_array_equal(posterior[:, infeasible], 0.0)
        assert np.all(posterior[:, ~infeasible] > 0.0)
        for moment in (r.mean, r.second):
            assert np.all(np.isfinite(moment))
        # the infeasible nodes' scores are not part of the posterior mean
        _, slot = _wrapper_kernel_oracle(
            LinkFamily.PROPORTIONAL_ODDS, dataset, c, np.array([0.3, -0.2]), offsets, weights
        )
        np.testing.assert_allclose(r.mean[kernel.rows.index], slot, rtol=1e-12, atol=1e-12)


def _wrapper_kernel_oracle(link, dataset, c, b, offsets, weights):
    """Each cluster's node log-likelihoods and posterior mean score from
    the (..., K) wrappers on cluster-major (n, Q, K-1) predictors, without
    the multinomial constant, at (Q, K-1) node offsets or (n, Q, K-1)
    per-cluster ones."""
    x = dataset.covariate_matrix
    deltas = c[None, None, :] + (x @ b)[:, None, None] + np.asarray(offsets, dtype=float)
    logp, feasible = log_category_probabilities(link, deltas)
    y = dataset.count_matrix[:, None, :]
    with np.errstate(invalid="ignore"):
        ll = np.where(y > 0, y * logp, 0.0).sum(axis=-1)
    ll = np.where(feasible, ll, -np.inf)
    post = np.exp(ll - ll.max(axis=1, keepdims=True)) * weights
    post /= post.sum(axis=1, keepdims=True)
    score = slot_terms(link, np.moveaxis(deltas, -1, 0), np.moveaxis(y, -1, 0).astype(float)).score
    score = np.where(feasible[..., None], np.moveaxis(score, 0, -1), 0.0)
    return ll, (post[..., None] * score).sum(axis=1)


class TestSlotMajorKernel:
    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(8)
        # category 2 is empty in some clusters, so its 0 log 0 mask is exercised
        return Dataset(
            clusters=tuple(
                make_cluster(rng.multinomial(6, [0.4, 0.15, 0.45]), rng.normal(size=3))
                for _ in range(9)
            )
        )

    @pytest.mark.parametrize("kind", ["univariate", "bivariate"])
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_matches_the_wrappers_on_cluster_major_arrays(self, dataset, link, kind):
        rng = np.random.default_rng([9, list(LinkFamily).index(link)])
        kernel = LoglikKernel(dataset, link)
        assert np.any(kernel.y[:, 1] == 0)
        c, b = np.array([-0.6, 0.7]), rng.normal(scale=0.4, size=3)
        if kind == "univariate":
            rule = gauss_hermite(7)
            offsets, weights = 0.9 * rule.nodes[:, None], rule.weights
        else:
            offsets, weights = rng.normal(scale=0.8, size=(11, 2)), np.full(11, 1.0 / 11)
        ll, slot = _wrapper_kernel_oracle(link, dataset, c, b, offsets, weights)
        index = kernel.rows.index
        np.testing.assert_allclose(kernel.node_logliks(c, b, offsets)[index], ll, rtol=1e-13, atol=1e-13)
        r = _slot_score(kernel, c, b, offsets, weights)
        assert r.loglik == float(kernel.marginal(c, b, offsets, weights).sum())
        np.testing.assert_allclose(r.mean[index], slot, rtol=1e-12, atol=1e-12)

    def test_equal_po_predictors(self):
        clusters = (make_cluster([3, 0, 2]), make_cluster([1, 1, 1]))
        kernel = LoglikKernel(Dataset(clusters=clusters), LinkFamily.PROPORTIONAL_ODDS)
        nodes = np.array([-1.0, 0.0, 1.0])
        ll = kernel.node_logliks(np.array([0.2, 0.2]), np.empty(0), nodes[:, None])[kernel.rows.index]
        # cluster 1 has probabilities (F, 0, 1 - F) with F the logistic
        # function at the shared predictor; cluster 2 needs the empty category
        f = 1.0 / (1.0 + np.exp(-(0.2 + nodes)))
        np.testing.assert_allclose(ll[0], 3 * np.log(f) + 2 * np.log1p(-f), rtol=1e-13)
        np.testing.assert_array_equal(ll[1], -np.inf)

    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_a_covariate_free_kernel_is_a_full_kernel_at_zero_slopes(self, dataset, link):
        c = np.array([-0.6, 0.7])
        narrow = LoglikKernel(dataset, link, covariates=False)
        full = LoglikKernel(dataset, link)
        assert narrow.pattern_covariates.shape == (1, 0) and full.pattern_covariates.flags.c_contiguous
        zero = np.zeros((dataset.n_clusters, 2))
        np.testing.assert_array_equal(
            narrow.conditional_at(c, np.empty(0), zero[narrow.rows.first])[narrow.rows.index],
            full.conditional_at(c, np.zeros(3), zero[full.rows.first])[full.rows.index],
        )
        rule = gauss_hermite(7)
        offsets = 0.9 * rule.nodes[:, None]
        np.testing.assert_array_equal(
            narrow.marginal(c, np.empty(0), offsets, rule.weights)[narrow.rows.index],
            full.marginal(c, np.zeros(3), offsets, rule.weights)[full.rows.index],
        )

    @pytest.mark.parametrize("covariates", [True, False], ids=["full", "intercept"])
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_conditional_at_shared_offsets_is_the_per_row_call(self, link, covariates):
        """Offsets (1, K-1) shared by every row give each row's value, as
        the same offsets repeated for every row do: on strawberry the full
        kernel has 48 rows in pattern order and the intercept kernel 35."""
        ds = strawberry_dataset()
        kernel = LoglikKernel(ds, link, covariates)
        n_rows = len(kernel.rows.first)
        assert n_rows == (48 if covariates else 35)
        c = np.array([-1.2, 0.5])
        b = np.linspace(-0.4, 0.6, ds.n_covariates) if covariates else np.empty(0)
        shared = np.array([[0.3, -0.2]])
        got = kernel.conditional_at(c, b, shared)
        want = kernel.conditional_at(c, b, np.repeat(shared, n_rows, axis=0))
        assert got.shape == (n_rows,)
        np.testing.assert_array_equal(got, want)

    def test_log_coefficients_match_the_per_cluster_function(self, dataset):
        kernel = LoglikKernel(dataset, LinkFamily.PROPORTIONAL_ODDS)
        expected = [multinomial_log_coefficient(cl.counts) for cl in dataset.clusters]
        np.testing.assert_array_equal(kernel.log_coef, np.asarray(expected)[kernel.rows.first])

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_log_coefficients_match_scipy_gammaln(self, k):
        # oracle: log N! - sum log y_k! by scipy's log-gamma, on totals up to 2,000
        rng = np.random.default_rng(k)
        totals = np.concatenate([np.arange(1, 60), rng.integers(60, 2001, size=200)])
        counts = np.stack([rng.multinomial(n, rng.dirichlet(np.ones(k))) for n in totals])
        expected = gammaln(totals + 1.0) - gammaln(counts + 1.0).sum(axis=1)
        got = log_multinomial_coefficients(counts)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-10)



def _arrays(result):
    """The arrays of a kernel result: a named tuple's fields, or itself."""
    if isinstance(result, tuple):
        return tuple(np.asarray(a) for a in result)
    return (result,)


def _features(nodes, n_boundaries=2):
    """Node features for ``louis_moments``: the intercepts, the linear
    predictor and a scale of the (Q,) nodes shared by every slot."""
    features = np.zeros((nodes.size, n_boundaries, n_boundaries + 2))
    features[:, :, :n_boundaries] = np.eye(n_boundaries)
    features[:, :, n_boundaries] = 1.0
    features[:, :, n_boundaries + 1] = nodes[:, None]
    return features


class TestWorkspace:
    @pytest.fixture(scope="class")
    def large(self):
        # 960 clusters of 50 over the 48-plot design, the benchmark's shape
        rng = np.random.default_rng(11)
        x = np.tile(strawberry_dataset().covariate_matrix, (20, 1))
        counts = rng.multinomial(50, [0.3, 0.25, 0.45], size=x.shape[0])
        return Dataset(clusters=tuple(make_cluster(y, row) for y, row in zip(counts, x)))

    @staticmethod
    def _calls(dataset):
        """Every kernel method at node counts 30, 1, 40 and 30 again, each
        time at another scale of the nodes, with per-row offsets for the
        one-node passes."""
        c, b = np.array([-0.6, 0.4]), np.linspace(-0.3, 0.3, dataset.n_covariates)
        n_rows = len(dataset.distinct_clusters(True).first)
        eb = np.random.default_rng(2).normal(size=(n_rows, 2))
        calls = []
        groups = ((1.2, 30, eb), (1.0, 1, eb[:, :1]), (0.8, 40, eb), (1.5, 30, np.zeros_like(eb)))
        for scale, q, eb_offsets in groups:
            rule = gauss_hermite(q)
            nodes = scale * rule.nodes
            offsets = nodes[:, None]
            calls += [
                ("louis_moments", (c, b, offsets, rule.weights, _features(nodes))),
                ("node_logliks", (c, b, offsets)),
                ("conditional_at", (c, b, eb_offsets)),
                ("conditional_terms", (c, b, scale * eb)),
                ("marginal", (c, b, offsets, rule.weights)),
            ]
        return calls

    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_interleaved_calls_match_a_fresh_kernel(self, large, link):
        kernel = LoglikKernel(large, link)
        for method, args in self._calls(large):
            got = _arrays(getattr(kernel, method)(*args))
            want = _arrays(getattr(LoglikKernel(large, link), method)(*args))
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_returned_arrays_are_not_the_workspace(self, large):
        kernel = LoglikKernel(large, LinkFamily.PROPORTIONAL_ODDS)
        calls = self._calls(large)
        results = [_arrays(getattr(kernel, method)(*args)) for method, args in calls]
        kept = [tuple(a.copy() for a in r) for r in results]
        # later calls leave earlier results as they were ...
        for r, k in zip(results, kept):
            for a, b in zip(r, k):
                np.testing.assert_array_equal(a, b)
        # ... and writing into a result does not reach the next call
        for (method, args), r, k in zip(calls, results, kept):
            for a in r:
                a[...] = np.nan
            for a, b in zip(_arrays(getattr(kernel, method)(*args)), k):
                np.testing.assert_array_equal(a, b)

    def test_a_warm_call_allocates_only_its_results(self, large):
        kernel = LoglikKernel(large, LinkFamily.PROPORTIONAL_ODDS)
        rule = gauss_hermite(30)
        args = (np.array([-0.6, 0.4]), np.full(large.n_covariates, 0.1),
                1.2 * rule.nodes[:, None], rule.weights)
        _slot_score(kernel, *args)
        plane = 8 * large.n_clusters * rule.order
        tracemalloc.start()
        try:
            _slot_score(kernel, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * plane

    def test_a_warm_intercept_only_call_allocates_only_its_results(self, large):
        # every cluster shares one predictor row
        kernel = LoglikKernel(large, LinkFamily.PROPORTIONAL_ODDS, covariates=False)
        rule = gauss_hermite(30)
        args = (np.array([-0.6, 0.4]), np.empty(0), 1.2 * rule.nodes[:, None], rule.weights)
        _slot_score(kernel, *args)
        assert kernel._workspace(rule.order).blocks[0][3] is not None
        plane = 8 * large.n_clusters * rule.order
        tracemalloc.start()
        try:
            _slot_score(kernel, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * plane

    @pytest.mark.parametrize("kind", ["univariate", "bivariate"])
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_row_blocks_match_one_block(self, monkeypatch, link, kind):
        ds = strawberry_dataset()
        c, b = np.array([-1.2, 0.5]), np.linspace(-0.4, 0.6, ds.n_covariates)
        if kind == "univariate":
            rule = gauss_hermite(20)
            offsets, weights = 0.8 * rule.nodes[:, None], rule.weights
        else:
            # slot-wise offsets that reverse the PO cutpoints at some nodes
            offsets, weights = standard_tensor_grid(6)
            offsets = offsets @ np.array([[1.3, 0.0], [-0.4, 0.9]]).T
        features = _features(np.linspace(-1.0, 1.0, len(weights)))
        eb = np.random.default_rng(4).normal(size=(ds.n_clusters, 2))
        whole = LoglikKernel(ds, link)
        one_posterior = _posterior(whole, c, b, offsets, weights)
        one_moments = whole.louis_moments(c, b, offsets, weights, features)
        one_terms = whole.conditional_terms(c, b, eb)
        monkeypatch.setattr(likelihood, "_BLOCK_ELEMENTS", 9 * len(weights))
        kernel = LoglikKernel(ds, link)
        np.testing.assert_array_equal(_posterior(kernel, c, b, offsets, weights), one_posterior)
        assert len(kernel._workspace(len(weights)).blocks) == 6
        np.testing.assert_array_equal(
            kernel.node_logliks(c, b, offsets), LoglikKernel(ds, link).node_logliks(c, b, offsets)
        )
        moments = kernel.louis_moments(c, b, offsets, weights, features)
        assert moments.loglik == pytest.approx(one_moments.loglik, rel=1e-12)
        for got, want in zip(moments[1:], one_moments[1:]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        # one node per cluster: 9 elements make the same 6 blocks
        monkeypatch.setattr(likelihood, "_BLOCK_ELEMENTS", 9)
        kernel = LoglikKernel(ds, link)
        for got, want in zip(kernel.conditional_terms(c, b, eb), one_terms):
            np.testing.assert_array_equal(got, want)
        assert len(kernel._workspace(1).blocks) == 6


class TestPerClusterNodeOffsets:
    """Offsets (rows, Q, K-1): a node set of each row's own, the layout of
    nodes centred on each distinct cluster."""

    @staticmethod
    def _results(kernel, c, b, offsets, weights, features):
        return [
            kernel.node_logliks(c, b, offsets),
            kernel.marginal(c, b, offsets, weights),
            *kernel.louis_moments(c, b, offsets, weights, features),
        ]

    @pytest.mark.parametrize("n_blocks", [1, 6])
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_match_shared_nodes_and_the_wrappers(self, monkeypatch, link, n_blocks):
        ds = strawberry_dataset()
        rng = np.random.default_rng([12, list(LinkFamily).index(link)])
        c, b = np.array([-1.2, 0.5]), np.linspace(-0.4, 0.6, ds.n_covariates)
        # slot-wise offsets that reverse the PO cutpoints at some nodes
        nodes, weights = standard_tensor_grid(6)
        shared = nodes @ np.array([[1.3, 0.0], [-0.4, 0.9]]).T
        features = _features(np.linspace(-1.0, 1.0, len(weights)))
        if n_blocks > 1:
            monkeypatch.setattr(likelihood, "_BLOCK_ELEMENTS", 9 * len(weights))
        kernel = LoglikKernel(ds, link)
        assert len(kernel._workspace(len(weights)).blocks) == n_blocks
        # the shared nodes repeated for every row give each row the bits of
        # the shared pass
        first = kernel.rows.first
        repeated = np.broadcast_to(shared, (len(first), *shared.shape))
        got = self._results(kernel, c, b, repeated, weights, features)
        want = self._results(kernel, c, b, shared, weights, features)
        got_loglik, want_loglik = got.pop(2), want.pop(2)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        # each pass sums the rows in row order
        assert got_loglik == float(got[1].sum()) and want_loglik == float(want[1].sum())
        # nodes of each cluster's own, each row at those of its first cluster
        offsets = shared + rng.normal(scale=0.4, size=(ds.n_clusters, *shared.shape))
        ll, slot = _wrapper_kernel_oracle(link, ds, c, b, offsets, weights)
        offsets, ll, slot = offsets[first], ll[first], slot[first]
        np.testing.assert_allclose(kernel.node_logliks(c, b, offsets), ll, rtol=1e-13, atol=1e-13)
        r = _slot_score(kernel, c, b, offsets, weights)
        assert np.isfinite(r.loglik)
        assert r.loglik == float(kernel.marginal(c, b, offsets, weights).sum())
        np.testing.assert_allclose(r.mean, slot, rtol=1e-12, atol=1e-12)
        moments = kernel.louis_moments(c, b, offsets, weights, features)
        assert moments.loglik == pytest.approx(r.loglik, rel=1e-14)
        # the features' first two columns are the intercepts, whose mean is the slot score
        np.testing.assert_allclose(moments.mean[:, :2], slot, rtol=1e-12, atol=1e-12)

    @staticmethod
    def _shared_kernel(link, k, kind):
        """30 clusters on 6 covariate rows of 0, 1 and 0.5, five clusters
        each in shuffled order, counts with empty categories, the second
        cluster of each pattern a copy of the first, and a kernel on the
        dataset's covariates or, for ``intercept``, on none."""
        rng = np.random.default_rng([31, k, list(LinkFamily).index(link)])
        rows = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0.5], [0.5, 0, 1]])
        pattern = rng.permutation(np.repeat(np.arange(6), 5))
        x = rows[pattern]
        counts = rng.multinomial(6, np.full(k, 1.0 / k), size=30)
        counts[0, 1], counts[0, 0] = 0, counts[0, 0] + counts[0, 1]
        for p in range(6):
            first, second = np.flatnonzero(pattern == p)[:2]
            counts[second] = counts[first]
        ds = Dataset(clusters=tuple(make_cluster(y, row) for y, row in zip(counts, x)))
        assert ds.n_patterns == 6 and np.any(counts == 0)
        return LoglikKernel(ds, link, covariates=kind == "patterns")

    @pytest.mark.parametrize("block_rows", [None, 2])
    @pytest.mark.parametrize("kind", ["patterns", "intercept"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_shared_rows_match_every_rows_own(self, monkeypatch, link, k, kind, block_rows):
        """At shared offsets a pass evaluates each distinct cluster once, and
        the rows of one pattern in a row block run the link's count-free
        steps once: with or without that sharing the results have the same
        bits, and the value passes and the one-node terms are those of
        every cluster at the same offsets given per cluster."""
        rule = gauss_hermite(9)
        monkeypatch.setattr(likelihood, "_SHARED_ELEMENTS", 0)
        if block_rows is not None:
            monkeypatch.setattr(likelihood, "_BLOCK_ELEMENTS", block_rows * rule.order)
        shared_calls = []

        def spied(*args):
            shared_calls.append(len(args) > 5 and args[5] is not None)
            return slot_stages(*args)

        monkeypatch.setattr(likelihood, "slot_stages", spied)
        kernel = self._shared_kernel(link, k, kind)
        rows = kernel.rows
        n, m, k1 = kernel.y.shape[0], len(rows.first), k - 1
        assert m < n and rows.multiplicity.sum() == n
        np.testing.assert_array_equal(kernel.y[rows.first][rows.index], kernel.y)
        # increasing intercepts and slot-wise offsets that reverse the PO
        # cutpoints at some nodes; dyadic slopes, so that x b is exact
        c = np.linspace(-1.0, 1.0, k1)
        b = np.array([0.25, -0.5, 0.75])[: kernel.pattern_covariates.shape[1]]
        shared = rule.nodes[:, None] * np.linspace(1.2, -0.6, k1)
        if k1 > 1:
            assert np.any(np.diff(c + shared, axis=1) < 0)
        features = _features(rule.nodes, k1)
        blocks = kernel._workspace(rule.order).blocks
        assert len(blocks) == (1 if block_rows is None else -(-m // block_rows))
        assert any(block[3] is not None for block in blocks)
        shared_calls.clear()
        got = self._results(kernel, c, b, shared, rule.weights, features)
        assert any(shared_calls)
        monkeypatch.setattr(likelihood, "_SHARED_ELEMENTS", 2**62)
        own = self._shared_kernel(link, k, kind)
        shared_calls.clear()
        want = self._results(own, c, b, shared, rule.weights, features)
        assert not any(shared_calls)
        monkeypatch.setattr(likelihood, "_SHARED_ELEMENTS", 0)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        # every row at the same offsets given per row, which evaluates every
        # row on its own
        repeated = np.broadcast_to(shared, (m, *shared.shape))
        shared_calls.clear()
        np.testing.assert_array_equal(got[0], kernel.node_logliks(c, b, repeated))
        assert not any(shared_calls)
        # (the node sums of the marginal are matrix products, whose rounding
        # may depend on where a row sits)
        np.testing.assert_allclose(got[1], kernel.marginal(c, b, repeated, rule.weights), rtol=1e-14)
        # the rows' total log-likelihood weighs each by its multiplicity
        per_row = kernel.louis_moments(c, b, repeated, rule.weights, features)
        assert got[2] == float((got[1] * rows.multiplicity).sum())
        assert got[2] == pytest.approx(per_row.loglik, rel=1e-14)
        for g, w in zip(got[3:], per_row[1:]):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13)
        # the one-node pass of a homogeneous fit, and the same per row
        shared_calls.clear()
        terms = kernel.conditional_terms(c, b, np.zeros((1, k1)))
        assert any(shared_calls)
        for g, w in zip(terms, kernel.conditional_terms(c, b, np.zeros((m, k1)))):
            np.testing.assert_array_equal(g, w)

    def test_rows_of_one_pattern_share_their_predictors_bit_for_bit(self, monkeypatch):
        """On column-major covariate matrices with repeated rows, where the
        matrix product x b often rounds two equal rows apart, the
        predictors are formed once per pattern on the kernel's C-contiguous
        pattern matrix: the shared-rows path runs and gives each cluster the
        bits of its own row."""
        monkeypatch.setattr(likelihood, "_SHARED_ELEMENTS", 0)
        shared_calls = []

        def spied(*args):
            shared_calls.append(len(args) > 5 and args[5] is not None)
            return slot_stages(*args)

        monkeypatch.setattr(likelihood, "slot_stages", spied)
        rule = gauss_hermite(9)
        offsets = 0.8 * rule.nodes[:, None]
        for seed in range(20):
            rng = np.random.default_rng([47, seed])
            p = int(rng.integers(3, 9))
            x = np.asfortranarray(rng.normal(size=(6, p))[rng.permutation(np.repeat(np.arange(6), 5))])
            counts = rng.multinomial(6, [0.3, 0.3, 0.4], size=30)
            ds = Dataset(clusters=tuple(make_cluster(y, row) for y, row in zip(counts, x)))
            kernel = LoglikKernel(ds, LinkFamily.PROPORTIONAL_ODDS)
            assert kernel.pattern_covariates.flags.c_contiguous and ds.n_patterns == 6
            c, b = np.array([-0.5, 0.5]), rng.normal(scale=0.5, size=p)
            n_rows = len(kernel.rows.first)
            repeated = np.broadcast_to(offsets, (n_rows, *offsets.shape))
            shared_calls.clear()
            got = kernel.node_logliks(c, b, offsets)
            assert shared_calls == [True]
            np.testing.assert_array_equal(got, kernel.node_logliks(c, b, repeated))
            for g, w in zip(kernel.conditional_terms(c, b, np.zeros((1, 2))),
                            kernel.conditional_terms(c, b, np.zeros((n_rows, 2)))):
                np.testing.assert_array_equal(g, w)


class TestFloor:
    """``louis_moments`` with a floor: a pass whose log-likelihood is
    certainly below it stops at that bound."""

    @pytest.mark.parametrize("n_blocks", [1, 6])
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_a_pass_below_its_floor_returns_its_bound_alone(self, monkeypatch, link, n_blocks):
        ds = strawberry_dataset()
        c, b = np.array([-1.2, 0.5]), np.linspace(-0.4, 0.6, ds.n_covariates)
        rule = gauss_hermite(20)
        offsets, weights = 0.8 * rule.nodes[:, None], rule.weights
        features = _features(rule.nodes)
        if n_blocks > 1:
            monkeypatch.setattr(likelihood, "_BLOCK_ELEMENTS", 8 * len(weights))
        kernel = LoglikKernel(ds, link)
        assert len(kernel._workspace(len(weights)).blocks) == n_blocks
        full = kernel.louis_moments(c, b, offsets, weights, features)
        marginal = kernel.marginal(c, b, offsets, weights)
        done = [marginal[:hi].sum() for _, hi, _, _ in kernel._workspace(len(weights)).blocks]
        for floor in (full.loglik + 1.0, 0.5 * full.loglik):
            stopped = kernel.louis_moments(c, b, offsets, weights, features, floor)
            assert stopped.mean is None and stopped.second is None
            # an upper bound of the log-likelihood, below the floor: the
            # log-likelihood of the blocks done when the bound fell below it
            assert full.loglik <= stopped.loglik < floor
            expected = next(value for value in done if value < floor - 1e-8 * abs(floor))
            assert stopped.loglik == pytest.approx(expected, abs=1e-12)
        if n_blocks > 1:
            assert done[-2] < 0.5 * full.loglik  # the second floor stops before the last block
        # a floor the pass reaches changes nothing
        for floor in (full.loglik, full.loglik - 1.0):
            reached = kernel.louis_moments(c, b, offsets, weights, features, floor)
            for got, want in zip(reached, full):
                np.testing.assert_array_equal(got, want)


class TestOtherCategoryCounts:
    """Every kernel pass at K = 2, 4 and 5, where the boundary axis of the
    slot-major arrays has another length than the K = 3 of the fixtures,
    with a univariate effect and a cluster that has an empty category."""

    @staticmethod
    def _setup(k, link):
        rng = np.random.default_rng([21, k, list(LinkFamily).index(link)])
        counts = rng.multinomial(9, np.full(k, 1.0 / k), size=8)
        counts[0, 1] = 0  # an empty category in the first cluster
        counts[0, 0] += 1
        dataset = Dataset(clusters=tuple(make_cluster(y, rng.normal(size=2)) for y in counts))
        # increasing intercepts keep every proportional-odds node feasible
        c = np.linspace(-1.0, 1.0, k - 1)
        rule = gauss_hermite(9)
        return dataset, LoglikKernel(dataset, link), c, np.array([0.3, -0.2]), rule.nodes, rule.weights

    @staticmethod
    def _score(kernel, c, b, nodes, weights, point):
        """The summed ``marginal`` and, by the chain rule, the score in the
        coordinates (intercepts, a shift of every predictor, the effect's
        scale) at ``point``: from the slot scores of ``_slot_score``, and
        for the scale from the posterior weights and each node's
        conditional score."""
        k1, n = c.size, len(kernel.rows.first)
        shift, scale = point[k1], point[k1 + 1]
        offsets = np.repeat(scale * nodes[:, None] + shift, k1, axis=1)
        r = _slot_score(kernel, point[:k1], b, offsets, weights)
        loglik = float(kernel.marginal(point[:k1], b, offsets, weights).sum())
        assert r.loglik == pytest.approx(loglik, rel=1e-14)
        node_score = np.stack([
            kernel.conditional_terms(point[:k1], b, np.broadcast_to(o, (n, k1))).score.sum(axis=1)
            for o in offsets
        ], axis=1)
        posterior = _posterior(kernel, point[:k1], b, offsets, weights)
        return loglik, np.r_[r.mean.sum(axis=0), r.mean.sum(), ((posterior * node_score) @ nodes).sum()]

    @pytest.mark.parametrize("link", list(LinkFamily))
    @pytest.mark.parametrize("k", [2, 4, 5])
    def test_louis_moments_and_score_match_differences(self, k, link):
        _, kernel, c, b, nodes, weights = self._setup(k, link)
        k1 = k - 1
        point = np.r_[c, 0.0, 0.8]
        features = np.zeros((nodes.size, k1, k1 + 2))
        features[:, :, :k1] = np.eye(k1)
        features[:, :, k1] = 1.0
        features[:, :, k1 + 1] = nodes[:, None]
        m = kernel.louis_moments(c, b, np.repeat(0.8 * nodes[:, None], k1, axis=1), weights, features)
        hess = (m.second - m.mean[:, :, None] * m.mean[:, None, :]).sum(axis=0)
        loglik, score = self._score(kernel, c, b, nodes, weights, point)
        assert m.loglik == pytest.approx(loglik, rel=1e-14)
        np.testing.assert_allclose(m.mean.sum(axis=0), score, rtol=1e-12, atol=1e-12)
        h = 1e-5
        value_differences, score_differences = np.empty(point.size), np.empty((point.size, point.size))
        for j in range(point.size):
            up, down = point.copy(), point.copy()
            up[j] += h
            down[j] -= h
            (l_up, s_up), (l_down, s_down) = (self._score(kernel, c, b, nodes, weights, p) for p in (up, down))
            value_differences[j] = (l_up - l_down) / (2 * h)
            score_differences[:, j] = (s_up - s_down) / (2 * h)
        np.testing.assert_allclose(score, value_differences, rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(hess, score_differences, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("link", list(LinkFamily))
    @pytest.mark.parametrize("k", [2, 4, 5])
    def test_conditional_terms_match_slot_terms_row_by_row(self, k, link):
        dataset, kernel, c, b, _, _ = self._setup(k, link)
        first = kernel.rows.first
        offsets = np.random.default_rng(k).normal(scale=0.1, size=(len(first), k - 1))
        terms = kernel.conditional_terms(c, b, offsets)
        pairs = curvature_pairs(link, k - 1)
        for r, i in enumerate(first):
            y = kernel.y[i]
            d = c + dataset.covariate_matrix[i] @ b + offsets[r]
            row = slot_terms(link, d[:, None], y[:, None], curvature=True)
            logp = row.logp[:, 0]
            expected = kernel.log_coef[r] + np.sum(np.where(y > 0, y * logp, 0.0))
            assert terms.loglik[r] == pytest.approx(expected, rel=1e-13)
            np.testing.assert_allclose(terms.score[r], row.score[:, 0], rtol=1e-13, atol=1e-13)
            hess = np.zeros((k - 1, k - 1))
            for (p, q), plane in zip(pairs, row.curvature):
                hess[p, q] = hess[q, p] = plane[0]
            np.testing.assert_allclose(terms.curvature[r], hess, rtol=1e-13, atol=1e-13)
