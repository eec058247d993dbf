from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordmixed import (
    BivariateRandomEffect,
    Cluster,
    Dataset,
    FixedEffects,
    InfeasibleParametersError,
    LinkFamily,
    NoRandomEffect,
    ParameterVector,
    UnivariateRandomEffect,
    category_probabilities,
    factorial_design,
    linear_predictors,
    recover_predictors,
)
from ordmixed.datasets import strawberry_dataset
from ordmixed.estimation import _Parameterization
from ordmixed.model import curvature_pairs, log_category_probabilities, slot_terms

ALL_LINKS = list(LinkFamily)


def feasible_deltas(link, values):
    d = np.array(values, dtype=float)
    if link is LinkFamily.PROPORTIONAL_ODDS:
        d = np.sort(d)
    return d


delta_lists = st.lists(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False), min_size=1, max_size=5
)


class TestLinearPredictors:
    def test_zero_covariates_and_effects(self):
        fe = FixedEffects(intercepts=[-2.0, -1.0], slopes=np.zeros(3))
        out = linear_predictors(fe, np.zeros(3), np.zeros(2))
        np.testing.assert_allclose(out, [-2.0, -1.0])

    def test_indicator_sum_matches_hand_total(self):
        # strawberry-style coefficients: male 2, female 2, block 2 selected
        fe = FixedEffects(
            intercepts=[-2.388, -0.750],
            slopes=[0.142, -0.177, 0.789, 0.692, 1.138, 0.750, 0.869, 0.107],
        )
        x = np.array([1, 0, 1, 0, 0, 1, 0, 0], dtype=float)
        out = linear_predictors(fe, x, np.zeros(2))
        np.testing.assert_allclose(out, [-0.707, 0.931], atol=1e-12)

    def test_random_effect_additivity(self):
        fe = FixedEffects(
            intercepts=[-2.388, -0.750],
            slopes=[0.142, -0.177, 0.789, 0.692, 1.138, 0.750, 0.869, 0.107],
        )
        x = np.array([1, 0, 1, 0, 0, 1, 0, 0], dtype=float)
        out = linear_predictors(fe, x, np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, [-0.207, 1.431], atol=1e-12)

    def test_dimension_mismatch(self):
        fe = FixedEffects(intercepts=[0.0, 1.0], slopes=[1.0])
        with pytest.raises(ValueError):
            linear_predictors(fe, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            linear_predictors(fe, np.zeros(1), np.zeros(3))


class TestCategoryProbabilities:
    def test_proportional_odds_equal_cutpoints(self):
        probs = category_probabilities(LinkFamily.PROPORTIONAL_ODDS, np.zeros(2))
        np.testing.assert_allclose(probs, [0.5, 0.0, 0.5], atol=1e-15)

    def test_adjacent_categories_symmetry(self):
        probs = category_probabilities(LinkFamily.ADJACENT_CATEGORIES, np.zeros(2))
        np.testing.assert_allclose(probs, np.ones(3) / 3, atol=1e-15)

    def test_continuation_ratio_repeated_halving(self):
        probs = category_probabilities(LinkFamily.CONTINUATION_RATIO, np.zeros(2))
        np.testing.assert_allclose(probs, [0.5, 0.25, 0.25], atol=1e-15)

    def test_proportional_odds_strawberry_intercepts(self):
        # oracle: high-precision expit arithmetic via mpmath
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        d1, d2 = "-2.171", "-0.669"
        g1 = 1 / (1 + mp.e ** (-mp.mpf(d1)))
        g2 = 1 / (1 + mp.e ** (-mp.mpf(d2)))
        expected = [float(g1), float(g2 - g1), float(1 - g2)]
        probs = category_probabilities(
            LinkFamily.PROPORTIONAL_ODDS, np.array([-2.171, -0.669])
        )
        np.testing.assert_allclose(probs, expected, atol=1e-14)
        np.testing.assert_allclose(probs, [0.10239, 0.23631, 0.66130], atol=5e-5)

    def test_proportional_odds_infeasible_raises(self):
        with pytest.raises(InfeasibleParametersError):
            category_probabilities(LinkFamily.PROPORTIONAL_ODDS, np.array([0.5, -0.5]))

    def test_binary_case(self):
        for link in ALL_LINKS:
            probs = category_probabilities(link, np.array([0.3]))
            assert probs.shape == (2,)
            assert probs.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("link", ALL_LINKS)
    @given(values=delta_lists)
    @settings(max_examples=60, deadline=None)
    def test_sum_to_one_and_bounds(self, link, values):
        d = feasible_deltas(link, values)
        probs = category_probabilities(link, d)
        assert np.all(probs >= 0.0)
        assert np.all(probs <= 1.0)
        assert abs(probs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("link", ALL_LINKS)
    @given(values=delta_lists)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, link, values):
        d = feasible_deltas(link, values)
        if link is LinkFamily.PROPORTIONAL_ODDS:
            # distinct cut points keep middle probabilities away from log(0)
            d = d + 1e-4 * np.arange(d.size)
        probs = category_probabilities(link, d)
        recovered = recover_predictors(link, probs)
        np.testing.assert_allclose(recovered, d, atol=1e-10, rtol=0)

    @pytest.mark.parametrize("link", [LinkFamily.PROPORTIONAL_ODDS, LinkFamily.CONTINUATION_RATIO])
    @given(values=delta_lists, shift=st.floats(min_value=0.01, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_shift_moves_mass_to_lower_categories(self, link, values, shift):
        d = feasible_deltas(link, values)
        lo = np.cumsum(category_probabilities(link, d))
        hi = np.cumsum(category_probabilities(link, d + shift))
        assert np.all(hi >= lo - 1e-12)

    def test_batched_evaluation_matches_rows(self):
        rng = np.random.default_rng(5)
        d = np.sort(rng.normal(size=(7, 2)), axis=1)
        batch = category_probabilities(LinkFamily.PROPORTIONAL_ODDS, d)
        for i in range(7):
            row = category_probabilities(LinkFamily.PROPORTIONAL_ODDS, d[i])
            np.testing.assert_allclose(batch[i], row, atol=1e-15)


def slot_score(link, d, counts):
    """The score of ``slot_terms`` at one predictor vector d (K-1,) with
    counts (K,)."""
    return slot_terms(link, d[:, None], counts[:, None]).score[:, 0]


class TestPredictorScore:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(ALL_LINKS),
        st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=4),
        st.lists(st.integers(min_value=0, max_value=6), min_size=5, max_size=5),
    )
    def test_matches_central_differences(self, link, values, count_list):
        d = np.array(values)
        if link is LinkFamily.PROPORTIONAL_ODDS:
            # spread the sorted predictors so no category has vanishing mass
            d = np.sort(d) + 0.2 * np.arange(d.size)
        counts = np.array(count_list[: d.size + 1], dtype=float)

        def loglik(delta):
            return float(counts @ log_category_probabilities(link, delta)[0])

        score = slot_score(link, d, counts)
        h = 1e-6
        for k in range(d.size):
            up, dn = d.copy(), d.copy()
            up[k] += h
            dn[k] -= h
            assert score[k] == pytest.approx((loglik(up) - loglik(dn)) / (2 * h), abs=1e-5)

    def test_broadcasts_over_nodes(self):
        d = np.array([[-1.0, 0.5], [-0.2, 1.5], [0.0, 0.1]])
        counts = np.array([2.0, 0.0, 5.0])
        for link in ALL_LINKS:
            batch = slot_terms(link, d.T, counts[:, None]).score.T
            rows = [slot_score(link, d[i], counts) for i in range(3)]
            np.testing.assert_allclose(batch, np.array(rows), rtol=1e-14)

    @pytest.mark.parametrize("d", [[-800.0, -799.0], [799.0, 800.0], [-800.0, 800.0]])
    @pytest.mark.parametrize("link", ALL_LINKS)
    def test_extreme_predictors_stay_finite(self, link, d):
        d = np.array(d)
        logp, feasible = log_category_probabilities(link, d)
        assert feasible and np.all(np.isfinite(logp))
        assert np.logaddexp.reduce(logp) == pytest.approx(0.0, abs=1e-12)
        score = slot_score(link, d, np.array([3.0, 2.0, 4.0]))
        assert np.all(np.isfinite(score))

    def test_equal_po_predictors_empty_the_middle_category(self):
        logp, feasible = log_category_probabilities(LinkFamily.PROPORTIONAL_ODDS, np.array([0.4, 0.4]))
        assert feasible and logp[1] == -np.inf
        np.testing.assert_allclose(np.exp(logp[[0, 2]]).sum(), 1.0, rtol=1e-15)


def curvature_matrix(link, d, counts):
    """The curvature of ``slot_terms`` at one predictor vector, as a
    symmetric (K-1, K-1) matrix."""
    terms = slot_terms(link, d[:, None], counts[:, None])
    hess = np.zeros((d.size, d.size))
    for (k, l), plane in zip(curvature_pairs(link, d.size), terms.curvature, strict=True):
        hess[k, l] = hess[l, k] = plane[0]
    return hess


class TestCurvature:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(ALL_LINKS),
        st.lists(st.floats(min_value=-800.0, max_value=800.0), min_size=1, max_size=4),
        st.lists(st.integers(min_value=0, max_value=6), min_size=5, max_size=5),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    @example(LinkFamily.PROPORTIONAL_ODDS, [-800.0, 800.0], [0, 4, 0], 1e-3)
    @example(LinkFamily.PROPORTIONAL_ODDS, [800.0, 800.0, 800.0], [3, 0, 2, 5], 1e-3)
    @example(LinkFamily.ADJACENT_CATEGORIES, [800.0, -800.0, 3.0], [0, 2, 0, 5], 1e-3)
    @example(LinkFamily.CONTINUATION_RATIO, [-800.0, 0.5, 800.0], [2, 0, 1, 0], 1e-3)
    @example(LinkFamily.PROPORTIONAL_ODDS, [-790.0, -795.0], [0, 2, 0, 0, 0], 2.0**-7)
    def test_matches_central_differences_of_the_score(self, link, values, count_list, gap):
        d = np.array(values)
        if link is LinkFamily.PROPORTIONAL_ODDS:
            # equal draws become predictors ``gap`` apart, so that the steps
            # below stay feasible
            d = np.sort(d) + gap * np.arange(d.size)
        counts = np.array(count_list[: d.size + 1], dtype=float)

        def score(delta):
            return slot_score(link, delta, counts)

        hess = curvature_matrix(link, d, counts)
        h = 1e-6
        if link is LinkFamily.PROPORTIONAL_ODDS:
            # a step below the smallest spacing keeps the predictors ordered
            h *= np.diff(d).min(initial=1.0)
        oracle = np.empty_like(hess)
        for l in range(d.size):
            up, dn = d.copy(), d.copy()
            up[l] += h
            dn[l] -= h
            # the step as represented, which at |d| = 800 is not exactly 2h
            oracle[:, l] = (score(up) - score(dn)) / (up[l] - dn[l])
        assert np.all(np.isfinite(hess))
        np.testing.assert_allclose(hess, oracle, rtol=1e-5, atol=1e-5 * (1.0 + np.abs(oracle).max()))

    def test_equal_po_predictors_give_no_finite_curvature(self):
        # the middle category has zero probability and a count: the
        # log-likelihood is -inf, and so are the score and curvature
        d, counts = np.array([0.4, 0.4]), np.array([3.0, 1.0, 2.0])
        assert not np.any(np.isfinite(slot_score(LinkFamily.PROPORTIONAL_ODDS, d, counts)))
        with np.errstate(invalid="ignore"):
            hess = curvature_matrix(LinkFamily.PROPORTIONAL_ODDS, d, counts)
        assert not np.any(np.isfinite(hess))

    def test_equal_po_predictors_with_an_empty_middle_category_are_finite(self):
        # with no count there, the log-likelihood is 3 log F(d1) + 2 log(1 - F(d2))
        d, counts = np.array([0.4, 0.4]), np.array([3.0, 0.0, 2.0])
        f = 1.0 / (1.0 + np.exp(-0.4))
        score = slot_score(LinkFamily.PROPORTIONAL_ODDS, d, counts)
        np.testing.assert_allclose(score, [3.0 * (1.0 - f), -2.0 * f], rtol=1e-14)
        hess = curvature_matrix(LinkFamily.PROPORTIONAL_ODDS, d, counts)
        np.testing.assert_allclose(hess, np.diag([-3.0, -2.0]) * f * (1.0 - f), rtol=1e-14)

    def test_structure_of_the_planes(self):
        d, counts = np.array([-1.0, 0.0, 1.0, 2.0]), np.array([1.0, 2.0, 0.0, 3.0, 1.0])
        pairs = {
            LinkFamily.PROPORTIONAL_ODDS: {(k, l) for k in range(4) for l in (k, k + 1) if l < 4},
            LinkFamily.ADJACENT_CATEGORIES: {(k, l) for k in range(4) for l in range(k, 4)},
            LinkFamily.CONTINUATION_RATIO: {(k, k) for k in range(4)},
        }
        for link, expected in pairs.items():
            listed = curvature_pairs(link, 4)
            assert set(listed) == expected and len(listed) == len(expected)
            assert listed == tuple(sorted(listed))  # row by row
            terms = slot_terms(link, d[:, None], counts[:, None])
            assert terms.curvature.shape == (len(expected), 1)


EFFECTS = [
    NoRandomEffect(),
    UnivariateRandomEffect(0.7),
    UnivariateRandomEffect(2.5),
    *(BivariateRandomEffect(0.7, 1.8, rho) for rho in (-0.999, -0.3, 0.0, 0.6, 0.9999)),
]


class TestLoadingDerivatives:
    """Each random-effect class's loading A (K-1, dim) = sum_e a_e E_e and
    the derivatives of its free entries a in the optimizer's unconstrained
    coordinates."""

    @staticmethod
    def _packed(effect, k1=2):
        param = _Parameterization(k1, (), type(effect))
        fixed = FixedEffects(intercepts=np.linspace(-1.0, 1.0, k1), slopes=np.zeros(0))
        theta = param.pack(ParameterVector(fixed=fixed, re=effect))
        return param, theta

    @pytest.mark.parametrize("effect", EFFECTS, ids=repr)
    def test_match_central_differences(self, effect):
        k1 = 2
        param, theta = self._packed(effect, k1)
        tail = theta[param.n_fixed :]
        patterns = effect.entry_patterns(k1)
        first = effect.entry_derivatives()
        second = effect.entry_second_derivatives()
        n, e = len(effect.names), len(effect.entries())
        assert effect.loading(k1).shape == (k1, effect.dim)
        assert patterns.shape == (e, k1, effect.dim) and set(np.unique(patterns)) <= {0.0, 1.0}
        np.testing.assert_array_equal(effect.loading(k1), np.einsum("e,ekd->kd", effect.entries(), patterns))
        assert first.shape == (e, n)
        assert second.shape == (e, n, n)
        h = 1e-6
        for i in range(n):
            up, dn = tail.copy(), tail.copy()
            up[i] += h
            dn[i] -= h
            at_up, at_dn = param.random_effect(up), param.random_effect(dn)
            np.testing.assert_allclose(
                first[:, i], (at_up.entries() - at_dn.entries()) / (2 * h), atol=1e-7
            )
            np.testing.assert_allclose(
                second[:, :, i],
                (at_up.entry_derivatives() - at_dn.entry_derivatives()) / (2 * h),
                atol=1e-7,
            )

    @pytest.mark.parametrize("effect", EFFECTS, ids=repr)
    def test_pack_unpack_round_trip(self, effect):
        param, theta = self._packed(effect)
        assert param.names[param.n_fixed :] == effect.names
        assert type(param.unpack(theta).re) is type(effect)
        values = astuple(effect)
        np.testing.assert_allclose(astuple(param.unpack(theta).re), values, rtol=1e-12)
        np.testing.assert_allclose(param.reported(theta)[param.n_fixed :], values, rtol=1e-12)
        np.testing.assert_allclose(param.unpack(theta).re.loading(2), effect.loading(2), rtol=1e-12)
        # the delta method's Jacobian is the derivative of the reported values
        h = 1e-6
        for i in range(param.n_fixed, param.size):
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            slope = (param.reported(up)[i] - param.reported(dn)[i]) / (2 * h)
            assert param.delta_jacobian(theta)[i] == pytest.approx(slope, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("k1", [1, 3, 4])
    def test_univariate_loading_is_sigma_in_every_slot(self, k1):
        effect = UnivariateRandomEffect(0.7)
        np.testing.assert_array_equal(effect.loading(k1), np.full((k1, 1), 0.7))
        np.testing.assert_array_equal(effect.entry_patterns(k1)[0], np.ones((k1, 1)))
        np.testing.assert_array_equal(effect.entry_derivatives(), [effect.entries()])
        with pytest.raises(ValueError, match="exactly 3 categories"):
            BivariateRandomEffect(0.7, 0.5, 0.1).loading(k1)

    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    def test_finite_at_perfect_correlation(self, rho):
        effect = BivariateRandomEffect(0.7, 1.8, rho)
        np.testing.assert_array_equal(effect.loading(2), [[0.7, 0.0], [rho * 1.8, 0.0]])
        derivs = effect.entry_derivatives()
        assert np.all(np.isfinite(derivs))
        np.testing.assert_array_equal(derivs[:, 2], np.zeros(3))
        second = effect.entry_second_derivatives()
        assert np.all(np.isfinite(second))
        np.testing.assert_array_equal(second[:, 2], np.zeros((3, 3)))


class TestDataModel:
    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            Cluster(covariates=np.zeros(2), counts=np.array([1, -1, 0]))
        with pytest.raises(ValueError):
            Cluster(covariates=np.zeros(2), counts=np.array([0, 0, 0]))
        with pytest.raises(ValueError):
            Cluster(covariates=np.zeros(2), counts=np.array([0.5, 1.5, 0.0]))

    def test_dataset_requires_consistent_shapes(self):
        a = Cluster(covariates=np.zeros(2), counts=np.array([1, 2, 3]))
        b = Cluster(covariates=np.zeros(3), counts=np.array([1, 2, 3]))
        c = Cluster(covariates=np.zeros(2), counts=np.array([1, 2]))
        with pytest.raises(ValueError):
            Dataset(clusters=(a, b))
        with pytest.raises(ValueError):
            Dataset(clusters=(a, c))
        with pytest.raises(ValueError):
            Dataset(clusters=())

    def test_matrices_are_consistent(self):
        a = Cluster(covariates=np.array([1.0, 0.0]), counts=np.array([1, 2, 3]))
        b = Cluster(covariates=np.array([0.0, 1.0]), counts=np.array([4, 0, 2]))
        ds = Dataset(clusters=(a, b))
        assert ds.covariate_matrix.shape == (2, 2)
        assert ds.count_matrix.tolist() == [[1, 2, 3], [4, 0, 2]]
        assert ds.sizes.tolist() == [6, 6]
        assert ds.total_observations == 12

    def test_covariate_patterns_index_the_distinct_rows(self):
        x = np.tile(factorial_design()[0], (3, 1))[np.random.default_rng(3).permutation(144)]
        ds = Dataset(clusters=tuple(Cluster(covariates=row, counts=np.array([1, 1])) for row in x))
        first, index = ds.covariate_patterns
        assert ds.covariate_patterns is ds.covariate_patterns  # computed once
        assert ds.n_patterns == len(first) == 48
        np.testing.assert_array_equal(x[first][index], x)
        # each pattern's first cluster
        assert [int(np.flatnonzero(index == j)[0]) for j in range(48)] == first.tolist()
        assert not first.flags.writeable and not index.flags.writeable

    def test_distinct_clusters_index_pattern_and_counts(self, monkeypatch):
        rng = np.random.default_rng(5)
        x = np.tile(factorial_design()[0], (4, 1))[rng.permutation(192)]
        counts = rng.multinomial(3, [0.2, 0.3, 0.5], size=192)
        ds = Dataset(clusters=tuple(Cluster(covariates=row, counts=y) for row, y in zip(x, counts)))
        calls, unique = [], np.unique

        def counted(ar, *args, **kwargs):
            calls.append(np.shape(ar))
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        found = [ds.distinct_clusters(covariates) for covariates in (True, False, True)]
        monkeypatch.undo()
        # one np.unique of the covariates, then one lookup for the models
        # with covariates and one for those without, each made once and kept
        assert calls == [(192, 8), (192,), (192,)]
        assert found[2] is found[0]
        pattern = ds.covariate_patterns.index
        for (first, multiplicity, index, *_), key in zip(found, (pattern, np.zeros(192, dtype=int))):
            # a cluster of each distinct (key, counts) row, each cluster's row
            rows = np.column_stack([key, counts])
            assert len(first) == len(np.unique(rows, axis=0)) < 192
            np.testing.assert_array_equal(rows[first][index], rows)
            np.testing.assert_array_equal(multiplicity, np.bincount(index))
            # sorted by the key, then by the counts
            assert [tuple(r) for r in rows[first]] == sorted(tuple(r) for r in rows[first])
            assert not any(a.flags.writeable for a in (first, multiplicity, index))

    @pytest.mark.parametrize("repeats", [1, 4])
    def test_distinct_clusters_carry_their_patterns(self, repeats):
        """Each row's covariate pattern is the pattern of its first cluster,
        0 without covariates, and each pattern's first row is where the
        sorted patterns step up."""
        rng = np.random.default_rng(9)
        x = np.tile(factorial_design()[0], (repeats, 1))[rng.permutation(48 * repeats)]
        counts = rng.multinomial(3, [0.2, 0.3, 0.5], size=48 * repeats)
        ds = Dataset(clusters=tuple(Cluster(covariates=row, counts=y) for row, y in zip(x, counts)))
        for covariates in (True, False):
            rows = ds.distinct_clusters(covariates)
            want = ds.covariate_patterns.index[rows.first] if covariates else np.zeros(len(rows.first))
            np.testing.assert_array_equal(rows.pattern, want)
            firsts = [int(np.flatnonzero(rows.pattern == j)[0]) for j in range(rows.pattern[-1] + 1)]
            np.testing.assert_array_equal(rows.starts, firsts)
            assert len(rows.starts) == (ds.n_patterns if covariates else 1)
            assert not rows.pattern.flags.writeable and not rows.starts.flags.writeable

    def test_clusters_of_patterns_of_their_own_are_the_distinct_clusters(self, monkeypatch):
        """Where every cluster has a covariate pattern of its own, the
        distinct clusters of a model with covariates are the patterns, with
        the index np.unique would give, and need no lookup of their own."""
        ds = strawberry_dataset()
        calls, unique = [], np.unique

        def counted(ar, *args, **kwargs):
            calls.append(np.shape(ar))
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        first, multiplicity, index, *_ = ds.distinct_clusters(True)
        monkeypatch.undo()
        assert calls == [(48, 8)]
        patterns = ds.covariate_patterns
        np.testing.assert_array_equal(first, patterns.first)
        np.testing.assert_array_equal(index, patterns.index)
        np.testing.assert_array_equal(multiplicity, np.ones(48))
        assert not any(a.flags.writeable for a in (first, multiplicity, index))
        rows = np.column_stack([patterns.index, ds.count_matrix])
        _, want_first, want_index = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(index, want_index.reshape(-1))

    def test_n_patterns_counts_distinct_covariate_vectors(self):
        # the 48 plots of the 3 x 4 x 4 factorial design, once and tiled 20 times
        assert strawberry_dataset().n_patterns == 48
        x = np.tile(factorial_design()[0], (20, 1))
        tiled = Dataset(clusters=tuple(Cluster(covariates=row, counts=np.array([1, 1, 1])) for row in x))
        assert tiled.n_clusters == 960
        assert tiled.n_patterns == 48
