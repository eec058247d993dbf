import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from ordmixed import (
    BivariateRandomEffect,
    Cluster,
    Dataset,
    FitOptions,
    LinkFamily,
    UnivariateRandomEffect,
    aic,
    chi_squared_survival,
    fit,
    fit_intercept_model,
    gof_report,
    icc,
    likelihood_ratio_C,
    pearson_chi2,
)
from ordmixed.gof import DegenerateCellError, InconsistentFitsError, LOGISTIC_VARIANCE, expected_counts
from ordmixed.simulation import SimulationDesign, generate_dataset, study_true_parameters

ACL = LinkFamily.ADJACENT_CATEGORIES
PO = LinkFamily.PROPORTIONAL_ODDS
FAST = FitOptions(standard_errors=False)


class TestChiSquaredSurvival:
    def test_at_zero(self):
        assert chi_squared_survival(0.0, 5) == pytest.approx(1.0, abs=1e-14)

    def test_df2_closed_form(self):
        # oracle: for two degrees of freedom the survival is exp(-x/2)
        for x in (2 * math.log(2.0), 0.1, 1.0, 7.5, 40.0):
            assert chi_squared_survival(x, 2) == pytest.approx(
                math.exp(-x / 2.0), abs=1e-10
            )
        assert chi_squared_survival(2 * math.log(2.0), 2) == pytest.approx(0.5, abs=1e-12)

    def test_published_spot_values(self):
        assert chi_squared_survival(70.0, 86) == pytest.approx(0.895, abs=5e-4)
        assert chi_squared_survival(146.1, 86) < 5e-4

    @pytest.mark.parametrize("df", list(range(1, 61)))
    def test_matches_scipy_chi2_sf(self, df):
        # oracle: scipy's incomplete gamma function, wherever the survival
        # is a normal float well above underflow
        x = np.append(np.linspace(0.0, 200.0, 801), np.inf)
        expected = chi2.sf(x, df)
        got = np.array([chi_squared_survival(float(v), df) for v in x])
        keep = expected > 1e-250
        np.testing.assert_allclose(got[keep], expected[keep], rtol=1e-12, atol=0)
        assert np.all(got[~keep] < 1e-249)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chi_squared_survival(-1.0, 5)
        with pytest.raises(ValueError):
            chi_squared_survival(1.0, 0)
        with pytest.raises(ValueError):
            chi_squared_survival(1.0, 2.5)


class TestAic:
    def test_arithmetic(self):
        class Dummy:
            loglik = -182.05
            n_parameters = 10

        assert aic(Dummy()) == pytest.approx(384.1, abs=1e-12)


class TestIcc:
    def test_zero_sigma(self):
        value, se, p, ci = icc(UnivariateRandomEffect(sigma=0.0), np.array([[0.01]]))
        assert value == 0.0

    def test_published_univariate_value_and_se(self):
        # oracle: delta-method arithmetic at the published fit
        sigma, se_sigma = 0.671, 0.141
        value, se, p, ci = icc(
            UnivariateRandomEffect(sigma=sigma), np.array([[se_sigma**2]])
        )
        v = sigma**2
        expect_value = v / (v + LOGISTIC_VARIANCE)
        expect_se = (
            2 * sigma * LOGISTIC_VARIANCE / (v + LOGISTIC_VARIANCE) ** 2
        ) * se_sigma
        assert value == pytest.approx(expect_value, abs=1e-12)
        assert se == pytest.approx(expect_se, abs=1e-12)
        assert value == pytest.approx(0.120, abs=5e-4)
        assert se == pytest.approx(0.045, abs=5e-4)
        assert ci == (pytest.approx(value - 1.96 * se), pytest.approx(value + 1.96 * se))

    @pytest.mark.parametrize(
        "s1,s2,rho,published",
        [
            (0.609, 0.738, 0.933, 0.348),
            (0.404, 0.652, 0.493, 0.205),
            (0.634, 0.636, 0.884, 0.316),
        ],
    )
    def test_bivariate_formula_reproduces_published_values(self, s1, s2, rho, published):
        value, *_ = icc(BivariateRandomEffect(s1, s2, rho))
        assert value == pytest.approx(published, abs=5e-4)

    def test_missing_covariance_flags_unavailable(self):
        value, se, p, ci = icc(UnivariateRandomEffect(sigma=0.5))
        assert se is None and p is None and ci is None

    @given(
        lo=st.floats(min_value=0.01, max_value=2.0),
        bump=st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_sigma_and_bounded(self, lo, bump):
        a, *_ = icc(UnivariateRandomEffect(sigma=lo))
        b, *_ = icc(UnivariateRandomEffect(sigma=lo + bump))
        assert 0.0 <= a < 1.0
        assert b > a

    def test_delta_se_within_bootstrap_band(self):
        # parametric bootstrap on a small synthetic fit: the delta-method SE
        # must land within a factor of 1.5 of the resampling SE
        from ordmixed.model import FixedEffects, ParameterVector

        true = ParameterVector(
            fixed=FixedEffects(
                intercepts=[-1.0, 0.3], slopes=[0.5, -0.4, 0.3, 0.2, -0.1, 0.4]
            ),
            re=UnivariateRandomEffect(sigma=0.8),
        )
        design = SimulationDesign(
            link=ACL,
            true_params=true,
            factors=(("g", 4), ("h", 4)),
            cluster_size=12,
            fits=((ACL, "univariate"),),
            replications=1,
            seed=99,
        )
        base_data = generate_dataset(design, 0)
        opts = FitOptions(quadrature_order=12)
        base_fit = fit(base_data, ACL, "univariate", opts)
        from ordmixed.gof import variance_component_covariance

        value, delta_se, *_ = icc(
            base_fit.estimates.re, variance_component_covariance(base_fit)
        )
        boot_design = SimulationDesign(
            link=ACL,
            true_params=base_fit.estimates,
            factors=(("g", 4), ("h", 4)),
            cluster_size=12,
            fits=((ACL, "univariate"),),
            replications=200,
            seed=100,
        )
        fast = FitOptions(quadrature_order=12, standard_errors=False)
        values = []
        for b in range(200):
            sample = generate_dataset(boot_design, b)
            refit = fit(sample, ACL, "univariate", fast)
            if refit.converged:
                values.append(icc(refit.estimates.re)[0])
        boot_se = float(np.std(values, ddof=1))
        assert delta_se < 1.5 * boot_se
        assert boot_se < 1.5 * delta_se


def balanced_dataset():
    counts = np.array([3, 3, 3])
    clusters = tuple(
        Cluster(covariates=np.array([float(i % 2)]), counts=counts) for i in range(6)
    )
    return Dataset(clusters=clusters)


class TestPearsonChi2:
    def test_perfect_fit_is_zero(self):
        ds = balanced_dataset()
        result = fit(ds, ACL, "none", FAST)
        stat, df, p = pearson_chi2(ds, result, ACL)
        assert stat == pytest.approx(0.0, abs=1e-10)
        assert df == (3 - 1) * 2 - 3
        assert p == pytest.approx(1.0, abs=1e-8)

    def test_invariant_under_cluster_reorder_and_nonnegative(self):
        rng = np.random.default_rng(8)
        clusters = tuple(
            Cluster(
                covariates=np.array([float(i % 3 == 0)]),
                counts=rng.multinomial(10, [0.3, 0.4, 0.3]),
            )
            for i in range(12)
        )
        ds = Dataset(clusters=clusters)
        result = fit(ds, PO, "none", FAST)
        stat, _, _ = pearson_chi2(ds, result, PO)
        flipped = Dataset(clusters=tuple(reversed(clusters)))
        result2 = fit(flipped, PO, "none", FAST)
        stat2, _, _ = pearson_chi2(flipped, result2, PO)
        assert stat >= 0.0
        assert stat == pytest.approx(stat2, abs=1e-6)

    def test_degenerate_cell_error_lists_cells(self):
        ds = balanced_dataset()
        result = fit(ds, PO, "none", FAST)
        # force a zero expected middle cell via equal cut points
        from ordmixed.model import FixedEffects, NoRandomEffect, ParameterVector
        from dataclasses import replace

        rigged = replace(
            result,
            estimates=ParameterVector(
                fixed=FixedEffects(intercepts=[0.0, 0.0], slopes=[0.0]),
                re=NoRandomEffect(),
            ),
        )
        with pytest.raises(DegenerateCellError) as err:
            pearson_chi2(ds, rigged, PO)
        assert len(err.value.cells) == 6


class TestLikelihoodRatio:
    def test_identical_fits_give_zero(self):
        ds = balanced_dataset()
        result = fit(ds, ACL, "none", FAST)
        stat, df, p = likelihood_ratio_C(result, result)
        assert stat == 0.0
        assert df == 0

    def test_inconsistent_fits_raise(self):
        from dataclasses import replace

        ds = balanced_dataset()
        full = fit(ds, ACL, "none", FAST)
        intercept = fit_intercept_model(ds, ACL, "none", FAST)
        with pytest.raises(InconsistentFitsError):
            likelihood_ratio_C(intercept, full)  # reversed nesting
        other = fit(ds, PO, "none", FAST)
        with pytest.raises(InconsistentFitsError):
            likelihood_ratio_C(other, intercept)
        # intercept log-likelihood above the full model beyond rounding noise
        rigged = replace(intercept, loglik=full.loglik + 0.5)
        with pytest.raises(InconsistentFitsError):
            likelihood_ratio_C(full, rigged)

    def test_df_counts_slopes(self):
        rng = np.random.default_rng(9)
        clusters = tuple(
            Cluster(
                covariates=np.array([float(i % 2), float(i % 3)]),
                counts=rng.multinomial(15, [0.25, 0.4, 0.35]),
            )
            for i in range(12)
        )
        ds = Dataset(clusters=clusters)
        full = fit(ds, PO, "none", FAST)
        intercept = fit_intercept_model(ds, PO, "none", FAST)
        stat, df, p = likelihood_ratio_C(full, intercept)
        assert df == 2
        assert stat >= 0.0


class TestAverageAicOrdering:
    def test_random_effect_aic_wins_on_heterogeneous_data(self):
        # data generated with a cluster effect: the homogeneous AIC should
        # exceed the univariate-RE AIC on average across replications
        design = SimulationDesign(
            link=PO,
            true_params=study_true_parameters(0.6),
            fits=((PO, "none"),),
            replications=15,
            seed=7,
        )
        fast = FitOptions(quadrature_order=12, standard_errors=False)
        diffs = []
        for r in range(design.replications):
            ds = generate_dataset(design, r)
            homog = fit(ds, PO, "none", fast)
            mixed = fit(ds, PO, "univariate", fast)
            diffs.append(aic(homog) - aic(mixed))
        assert np.mean(diffs) > 0


class TestGofReport:
    def test_report_assembles_all_panels(self):
        rng = np.random.default_rng(10)
        clusters = tuple(
            Cluster(
                covariates=np.array([float(i % 2)]),
                counts=rng.multinomial(20, [0.3, 0.4, 0.3]),
            )
            for i in range(16)
        )
        ds = Dataset(clusters=clusters)
        full = fit(ds, ACL, "univariate", FitOptions(quadrature_order=15))
        intercept = fit_intercept_model(
            ds, ACL, "univariate", FitOptions(quadrature_order=15, standard_errors=False)
        )
        report = gof_report(ds, full, intercept)
        assert report.chi2 >= 0
        assert report.C >= 0
        assert report.chi2_df == 2 * 2 - 3
        assert report.C_df == 1
        assert 0 <= report.chi2_p <= 1
        assert report.icc is not None and 0 <= report.icc < 1
        assert report.aic == pytest.approx(-2 * full.loglik + 2 * 4)

    @pytest.mark.parametrize("structure", ["none", "univariate"])
    def test_an_unknown_prediction_is_refused_for_either_kind_of_fit(self, structure):
        ds = balanced_dataset()
        opts = FitOptions(quadrature_order=15, standard_errors=False)
        full = fit(ds, ACL, structure, opts)
        intercept = fit_intercept_model(ds, ACL, structure, opts)
        for call in (
            lambda: expected_counts(ds, full, ACL, "median"),
            lambda: pearson_chi2(ds, full, ACL, "median"),
            lambda: gof_report(ds, full, intercept, "median"),
        ):
            with pytest.raises(ValueError, match="unknown prediction method: 'median'"):
                call()
