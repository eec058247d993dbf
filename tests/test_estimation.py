import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import softmax

import ordmixed
from ordmixed import (
    Cluster,
    CovarianceUnavailableError,
    Dataset,
    EstimationDegenerateError,
    FitOptions,
    LinkFamily,
    empirical_bayes,
    fit,
    fit_intercept_model,
    numerical_covariance,
    predict_random_effects,
    strawberry_dataset,
    total_loglik,
)
from ordmixed import estimation, likelihood
from ordmixed.estimation import (
    _ATANH_RHO_BOUND,
    _LOG_SIGMA_ZERO,
    _central_gradient,
    _clipped_covariance,
    _information,
    _inverse_information,
    _newton_step,
    _Objective,
    _Parameterization,
    _starting_point,
)
from ordmixed.likelihood import LoglikKernel, model_kernel
from ordmixed.model import (
    RANDOM_EFFECTS,
    BivariateRandomEffect,
    FixedEffects,
    ParameterVector,
    UnivariateRandomEffect,
    category_probabilities,
)
from ordmixed.quadrature import bivariate_rule, gauss_hermite, standard_tensor_grid
from ordmixed.simulation import (
    SimulationDesign,
    factorial_design,
    generate_dataset,
    study_true_parameters,
)

PO = LinkFamily.PROPORTIONAL_ODDS
FAST = FitOptions(standard_errors=False)
RE_STRUCTURES = tuple(RANDOM_EFFECTS)


@pytest.fixture(scope="module")
def strawberry():
    return strawberry_dataset()


@pytest.fixture(scope="module")
def po_univariate(strawberry):
    return fit(strawberry, PO, "univariate")


def test_import_loads_no_scipy_process_pool_or_tables():
    # the runtime needs numpy alone; scipy serves the tests as an oracle. The
    # process pool of run_study's workers and the published tables of the
    # CLI's reproduce load only when those run
    unused = ("scipy", "concurrent.futures.process", "ordmixed.published")
    code = f"import sys, ordmixed, ordmixed.cli; print([m for m in sys.modules if m.startswith({unused})])"
    env = {**os.environ, "PYTHONPATH": str(Path(ordmixed.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"


class TestNumericalCovariance:
    def test_scalar_quadratic(self):
        cov = numerical_covariance(lambda t: -0.5 * t[0] ** 2, np.array([0.0]))
        assert cov[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_diagonal_quadratic(self):
        def objective(t):
            return -0.5 * (2.0 * t[0] ** 2 + 4.0 * t[1] ** 2)

        cov = numerical_covariance(objective, np.array([0.3, -0.2]))
        np.testing.assert_allclose(cov, np.diag([0.5, 0.25]), atol=1e-6)

    def test_indefinite_raises_with_eigenvalues(self):
        with pytest.raises(CovarianceUnavailableError) as err:
            numerical_covariance(lambda t: 0.5 * t[0] ** 2, np.array([1.0]))
        assert err.value.eigenvalues.shape == (1,)
        assert err.value.eigenvalues[0] < 0

    def test_gradient_argument_gives_the_same_matrix(self):
        def objective(t):
            return -0.5 * (2.0 * t[0] ** 2 + t[0] * t[1] + 4.0 * t[1] ** 2)

        def gradient(t):
            return -0.5 * np.array([4.0 * t[0] + t[1], t[0] + 8.0 * t[1]])

        at = np.array([0.3, -0.2])
        np.testing.assert_allclose(
            numerical_covariance(objective, at, gradient=gradient),
            numerical_covariance(objective, at),
            atol=1e-7,
        )

    def test_singular_information_gets_pseudo_inverse(self):
        # the objective ignores t[1]: the information is diag(2, 0)
        with pytest.raises(CovarianceUnavailableError) as err:
            numerical_covariance(lambda t: -(t[0] ** 2), np.array([0.5, 1.0]))
        np.testing.assert_allclose(err.value.information, np.diag([2.0, 0.0]), atol=1e-6)
        np.testing.assert_allclose(
            _clipped_covariance(err.value.information), np.diag([0.5, 0.0]), atol=1e-6
        )


class TestFit:
    def test_degenerate_category_raises(self):
        clusters = tuple(
            Cluster(covariates=np.empty(0), counts=np.array([3, 7, 0]))
            for _ in range(4)
        )
        with pytest.raises(EstimationDegenerateError):
            fit(Dataset(clusters=clusters), PO, "none")

    def test_bivariate_requires_three_categories(self):
        clusters = tuple(
            Cluster(covariates=np.empty(0), counts=np.array([3, 2, 1, 4]))
            for _ in range(4)
        )
        with pytest.raises(ValueError):
            fit(Dataset(clusters=clusters), PO, "bivariate")

    def test_ci_is_exactly_plus_minus_1p96_se(self, po_univariate):
        r = po_univariate
        np.testing.assert_array_equal(r.ci_lower, r.values - 1.96 * r.se)
        np.testing.assert_array_equal(r.ci_upper, r.values + 1.96 * r.se)

    def test_covariance_symmetric_positive_semidefinite(self, po_univariate):
        cov = po_univariate.covariance
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() > -1e-10

    def test_options_validation(self):
        with pytest.raises(ValueError):
            FitOptions(quadrature_order=0)

    @pytest.mark.parametrize("structure", ["univariate", "bivariate"])
    def test_order_one_cannot_identify_a_random_effect(self, strawberry, structure):
        with pytest.raises(ValueError, match="quadrature order of at least 2, got 1"):
            fit(strawberry, PO, structure, FitOptions(quadrature_order=1))

    def test_order_one_fits_a_homogeneous_model(self, strawberry):
        one = fit(strawberry, PO, "none", FitOptions(quadrature_order=1))
        assert one.converged
        assert one.loglik == fit(strawberry, PO, "none").loglik

    def test_fit_at_the_iteration_cap_has_not_converged(self):
        # a runaway sigma1 of 26 whose log-likelihood is so flat that the
        # scaled gradient passes the convergence test at Newton's 50th step
        design = SimulationDesign(
            PO, study_true_parameters(3.0), fits=((PO, "none"),), cluster_size=2,
            replications=10, seed=1,
        )
        result = fit(generate_dataset(design, 5), LinkFamily.CONTINUATION_RATIO, "bivariate", FAST)
        assert result.diagnostics["optimizer_message"] == "Newton: reached 50 iterations"
        assert result.diagnostics["gradient_max_scaled"] < estimation._GRAD_TOL
        assert result["sigma1"] > 20.0
        assert not result.converged

    def test_clusters_of_one_observation_do_not_converge(self):
        # a runaway sigma: the log-likelihood keeps rising as sigma grows
        design = SimulationDesign(
            PO, study_true_parameters(0.0), fits=((PO, "none"),), cluster_size=1,
            replications=10, seed=0,
        )
        result = fit(generate_dataset(design, 0), PO, "univariate")
        assert not result.converged
        assert result.diagnostics["optimizer_message"].startswith("Newton: reached")

    def test_gradient_small_at_optimum(self, strawberry, po_univariate):
        param = _Parameterization(2, strawberry.slope_names(), UnivariateRandomEffect)
        loglik = _marginal_value(_Objective(LoglikKernel(strawberry, PO), param, 30))
        theta = param.pack(po_univariate.estimates)
        grad = _central_gradient(loglik, theta)
        scaled = np.abs(grad) * np.maximum(1.0, np.abs(theta)) / max(1.0, abs(po_univariate.loglik))
        assert np.max(scaled) < 1e-3

    def test_profile_perturbations_decrease_loglik(self, strawberry, po_univariate):
        best = po_univariate.loglik
        est = po_univariate.estimates
        rule = gauss_hermite(30)
        for i in (0, 4, 9):
            for sign in (-1.0, 1.0):
                fe = est.fixed
                if i < 2:
                    intercepts = fe.intercepts.copy()
                    intercepts[i] += 0.1 * sign
                    slopes = fe.slopes
                else:
                    intercepts = fe.intercepts
                    slopes = fe.slopes.copy()
                    slopes[i - 2] += 0.1 * sign
                moved = ParameterVector(
                    fixed=FixedEffects(intercepts=intercepts, slopes=slopes), re=est.re
                )
                assert total_loglik(strawberry, moved, PO, rule) < best
        for sign in (-1.0, 1.0):
            moved = ParameterVector(
                fixed=est.fixed,
                re=UnivariateRandomEffect(sigma=est.re.sigma + 0.1 * sign),
            )
            assert total_loglik(strawberry, moved, PO, rule) < best

    def test_fit_invariant_under_cluster_permutation(self, strawberry):
        rng = np.random.default_rng(11)
        perm = rng.permutation(strawberry.n_clusters)
        shuffled = Dataset(
            clusters=tuple(strawberry.clusters[i] for i in perm),
            covariate_names=strawberry.covariate_names,
        )
        a = fit(strawberry, LinkFamily.ADJACENT_CATEGORIES, "univariate", FAST)
        b = fit(shuffled, LinkFamily.ADJACENT_CATEGORIES, "univariate", FAST)
        np.testing.assert_allclose(a.values, b.values, atol=1e-5)

    def test_random_effect_fit_at_least_homogeneous(self, strawberry, po_univariate):
        homog = fit(strawberry, PO, "none", FAST)
        assert po_univariate.loglik >= homog.loglik - 1e-6

    def test_sigma_zero_data_collapses_to_homogeneous(self):
        design = SimulationDesign(
            link=PO,
            true_params=study_true_parameters(0.0),
            fits=((PO, "none"),),
            replications=1,
            seed=123,
        )
        ds = generate_dataset(design, 0)
        homog = fit(ds, PO, "none", FAST)
        mixed = fit(ds, PO, "univariate", FAST)
        assert mixed.estimates.re.sigma < 0.15
        np.testing.assert_allclose(
            mixed.values[:10], homog.values, atol=0.05
        )

    @pytest.mark.parametrize("structure", ["univariate", "bivariate"])
    def test_variance_components_at_zero_have_no_standard_error(self, structure):
        design = SimulationDesign(
            link=PO,
            true_params=study_true_parameters(0.0),
            fits=((PO, "none"),),
            replications=1,
            seed=77,
        )
        result = fit(generate_dataset(design, 0), PO, structure)
        zeroed = [i for i, name in enumerate(result.names) if name in ("sigma", "sigma1", "sigma2")]
        assert set(result.diagnostics["boundary"]) >= {result.names[i] for i in zeroed}
        np.testing.assert_array_equal(result.values[zeroed], 0.0)
        for column in (result.se, result.ci_lower, result.ci_upper, result.p_values):
            assert np.all(np.isnan(column[zeroed]))
        others = [i for i in range(result.n_parameters) if i not in zeroed]
        assert np.all(np.isfinite(result.se[others]))

    def test_infeasible_starting_values_raise_clearly(self, strawberry):
        bad = ParameterVector(
            fixed=FixedEffects(intercepts=[2.0, -2.0], slopes=np.zeros(8)),
        )
        opts = FitOptions(starting_values=bad, standard_errors=False)
        with pytest.raises(ValueError, match="no feasible starting point"):
            fit(strawberry, PO, "none", opts)

    def test_explicit_starting_values_are_honored(self, strawberry, po_univariate):
        opts = FitOptions(starting_values=po_univariate.estimates, standard_errors=False)
        warm = fit(strawberry, PO, "univariate", opts)
        assert warm.converged
        np.testing.assert_allclose(warm.values, po_univariate.values, atol=1e-4)
        assert warm.n_evaluations < po_univariate.n_evaluations

    @pytest.mark.parametrize("model", ["full", "intercept"])
    @pytest.mark.parametrize("structure", ["univariate", "bivariate"])
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_homogeneous_starting_values_replace_the_nested_fit(
        self, strawberry, link, structure, model
    ):
        """The homogeneous estimates given as starting values, and the
        homogeneous maximum that the dataset keeps from its homogeneous fit,
        start the fit where its nested fit would: the same fit, without the
        nested fit's passes."""
        # the cold and warm fits each on a dataset object of its own, whose
        # memo is empty; the remembered fit after the homogeneous fit on one
        fitter = fit if model == "full" else fit_intercept_model
        dataset = replace(strawberry)
        homogeneous = fitter(dataset, link, "none", FAST)
        cold = fitter(replace(strawberry), link, structure)
        warm = fitter(replace(strawberry), link, structure, FitOptions(starting_values=homogeneous.estimates))
        remembered = fitter(dataset, link, structure)
        for started in (warm, remembered):
            np.testing.assert_array_equal(started.values, cold.values)
            np.testing.assert_array_equal(started.se, cold.se)
            assert (started.loglik, started.iterations) == (cold.loglik, cold.iterations)
            assert started.n_evaluations == cold.n_evaluations - homogeneous.n_evaluations

    def test_the_panel_finds_each_homogeneous_maximum_once(self, strawberry, monkeypatch):
        """Over the strawberry panel, in its order (homogeneous, univariate,
        bivariate per link, each full and intercept), the homogeneous
        Newton runs once per (link, covariates): the homogeneous fits write
        the dataset's memo, and every random-effect fit reads it."""
        found, newton = [], estimation._newton

        def counted(objective, theta, bounds):
            if not objective.param.effect.dim:
                found.append((objective.kernel.link, bool(objective.param.n_slopes)))
            return newton(objective, theta, bounds)

        monkeypatch.setattr(estimation, "_newton", counted)
        dataset = replace(strawberry)
        for link in LinkFamily:
            for structure in ("none", "univariate", "bivariate"):
                for fitter in (fit, fit_intercept_model):
                    fitter(dataset, link, structure, FAST)
        assert len(found) == len(set(found)) == 6
        assert set(found) == set(dataset.homogeneous_maxima)
        for start in dataset.homogeneous_maxima.values():
            assert not (start.fixed.intercepts.flags.writeable or start.fixed.slopes.flags.writeable)

    def test_fits_from_starting_values_write_no_memo(self, strawberry, po_univariate):
        dataset = replace(strawberry)
        homogeneous = fit(replace(strawberry), PO, "none", FAST)
        for start in (homogeneous.estimates, po_univariate.estimates):
            opts = FitOptions(starting_values=start, standard_errors=False)
            fit(dataset, PO, "none", opts)
            fit(dataset, PO, "univariate", opts)
        assert dataset.homogeneous_maxima == {}

    def test_homogeneous_starting_values_must_match_the_model(self, strawberry):
        short = ParameterVector(fixed=FixedEffects(intercepts=[-1.0, 1.0], slopes=np.zeros(3)))
        with pytest.raises(ValueError, match="do not match the model dimensions"):
            fit(strawberry, PO, "univariate", FitOptions(starting_values=short))


def _marginal_value(objective):
    """The objective's log-likelihood alone, the sum of
    ``LoglikKernel.marginal``'s rows at the objective's node offsets, each
    weighted by its multiplicity."""

    def value(theta):
        c, b, tail = objective.param.split(theta)
        offsets = objective._offsets(tail)[0]
        kernel = objective.kernel
        return (kernel.marginal(c, b, offsets, objective.weights) * kernel.rows.multiplicity).sum()

    return value


def _random_theta(rng, param, edge=False):
    """A proposal with increasing cutpoints; ``edge`` puts the standard
    deviations just above the sigma = 0 report threshold and |rho| near 1."""
    c1 = rng.uniform(-2.5, -0.5)
    cutpoints = [c1, c1 + rng.uniform(0.3, 2.0)]
    slopes = rng.normal(0.0, 0.5, param.n_slopes)
    if param.effect is UnivariateRandomEffect:
        tail = [_LOG_SIGMA_ZERO + 0.5 if edge else rng.uniform(-1.5, 1.0)]
    elif param.effect is BivariateRandomEffect:
        tail = [rng.uniform(-1.5, 0.7), rng.uniform(-1.5, 0.7), rng.uniform(-3.0, 3.0)]
        if edge:
            tail = [_LOG_SIGMA_ZERO + 0.5, tail[1], rng.choice([-1, 1]) * (_ATANH_RHO_BOUND - 6)]
    else:
        tail = []
    return np.concatenate([cutpoints, slopes, tail])


class TestAnalyticScore:
    @pytest.mark.parametrize("model", ["full", "intercept"])
    @pytest.mark.parametrize("structure", RE_STRUCTURES)
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_matches_central_differences(self, strawberry, link, structure, model):
        names = strawberry.slope_names() if model == "full" else ()
        param = _Parameterization(2, names, RANDOM_EFFECTS[structure])
        kernel = LoglikKernel(strawberry, link, covariates=bool(names))
        order = 12 if structure == "bivariate" else 30
        objective = _Objective(kernel, param, order)
        value = _marginal_value(objective)
        rng = np.random.default_rng([3, len(names), RE_STRUCTURES.index(structure)])
        for edge in (False, False, False, True):
            theta = _random_theta(rng, param, edge)
            loglik, score, _ = objective.full(theta)
            assert loglik == pytest.approx(value(theta), rel=1e-12)
            oracle = _central_gradient(value, theta)
            # relative to the largest component: near sigma = 0 the
            # variance component's own derivative is below the oracle's noise
            assert np.max(np.abs(score - oracle)) <= 1e-6 * max(1.0, np.max(np.abs(oracle)))

    @pytest.mark.parametrize("structure", ["none", "univariate"])
    def test_decreasing_po_cutpoints_are_infeasible(self, strawberry, structure):
        param = _Parameterization(2, strawberry.slope_names(), RANDOM_EFFECTS[structure])
        objective = _Objective(LoglikKernel(strawberry, PO), param, 30)
        theta = np.concatenate([[1.0, -1.0], np.zeros(param.n_slopes), [0.0] * param.n_variance])
        one = objective.full(theta)
        assert one.loglik == -np.inf and not one.finite()
        opts = FitOptions(starting_values=param.unpack(theta))
        with pytest.raises(ValueError, match="no feasible starting point"):
            fit(strawberry, PO, structure, opts)

    @pytest.mark.parametrize("newton_iterations", [50, 1], ids=["newton", "give-up"])
    @pytest.mark.parametrize("structure", ["none", "univariate"])
    def test_n_evaluations_counts_every_score_call(
        self, strawberry, monkeypatch, structure, newton_iterations
    ):
        calls, passes = [], []
        for method in ("louis_moments", "conditional_terms"):
            original = getattr(LoglikKernel, method)

            def counted(self, *args, _original=original):
                calls.append(method)
                return _original(self, *args)

            monkeypatch.setattr(LoglikKernel, method, counted)
        full = _Objective.full

        def recorded(self, theta, floor=None):
            passes.append((theta, full(self, theta, floor)))
            return passes[-1][1]

        monkeypatch.setattr(_Objective, "full", recorded)
        # one Newton step is too few for any strawberry fit, the nested
        # homogeneous start fit too; a dataset object of its own makes the
        # nested fit run, and keeps its capped maximum out of the fixture's memo
        monkeypatch.setattr(estimation, "_NEWTON_ITERATIONS", newton_iterations)
        result = fit(replace(strawberry), PO, structure)
        assert result.n_evaluations == len(calls) == len(passes)
        assert result.diagnostics["information_passes"] == len(calls)
        message = result.diagnostics["optimizer_message"]
        if newton_iterations == 1:
            assert not result.converged and result.iterations == 1
            assert message == "Newton: reached 1 iterations"
        else:
            assert result.converged and message.startswith("Newton: decrement")
        # the estimate is the point of the last pass, whose information
        # gives the standard errors
        theta, last = passes[-1]
        param = _Parameterization(2, strawberry.slope_names(), RANDOM_EFFECTS[structure])
        np.testing.assert_array_equal(result.values, param.reported(theta))
        assert result.loglik == last.loglik
        jac = param.delta_jacobian(theta)
        expected = np.sqrt(np.diag(_inverse_information(last.information)) * jac**2)
        np.testing.assert_array_equal(result.se, expected)

    @pytest.mark.parametrize("model", ["full", "intercept"])
    @pytest.mark.parametrize("structure", RE_STRUCTURES)
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_information_matches_differences_of_the_score(self, strawberry, link, structure, model):
        names = strawberry.slope_names() if model == "full" else ()
        param = _Parameterization(2, names, RANDOM_EFFECTS[structure])
        kernel = LoglikKernel(strawberry, link, covariates=bool(names))
        objective = _Objective(kernel, param, 12 if structure == "bivariate" else 30)
        # the points of test_matches_central_differences; the edge point has
        # |atanh rho| = 6, or log sigma near the zero threshold
        rng = np.random.default_rng([3, len(names), RE_STRUCTURES.index(structure)])
        for edge in (False, False, False, True):
            theta = _random_theta(rng, param, edge)
            oracle = _information(lambda t: objective.full(t).score, theta)
            info = objective.full(theta).information
            assert np.max(np.abs(info - oracle)) <= 1e-6 * np.max(np.abs(oracle))

    def test_standard_errors_match_differenced_values(self, strawberry, po_univariate):
        param = _Parameterization(2, strawberry.slope_names(), UnivariateRandomEffect)
        value = _marginal_value(_Objective(LoglikKernel(strawberry, PO), param, 30))
        theta = param.pack(po_univariate.estimates)
        jac = param.delta_jacobian(theta)
        se = np.sqrt(np.diag(numerical_covariance(value, theta)) * jac**2)
        np.testing.assert_allclose(po_univariate.se, se, rtol=1e-4)

    @pytest.mark.parametrize("model", ["full", "intercept"])
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_homogeneous_one_pass_information_is_louis(self, strawberry, link, model):
        names = strawberry.slope_names() if model == "full" else ()
        param = _Parameterization(2, names, RANDOM_EFFECTS["none"])
        kernel = LoglikKernel(strawberry, link, covariates=bool(names))
        objective = _Objective(kernel, param, 1)
        rng = np.random.default_rng([5, len(names)])
        for _ in range(3):
            theta = _random_theta(rng, param)
            one = objective.full(theta)
            loglik, score, info = objective._louis(theta)
            assert one.loglik == pytest.approx(loglik, rel=1e-14)
            np.testing.assert_allclose(one.score, score, rtol=0, atol=1e-10 * np.abs(score).max())
            np.testing.assert_allclose(one.information, info, rtol=0, atol=1e-10 * np.abs(info).max())

    def test_overflowing_standard_deviation_is_infeasible(self, strawberry):
        param = _Parameterization(2, strawberry.slope_names(), UnivariateRandomEffect)
        objective = _Objective(LoglikKernel(strawberry, PO), param, 30)
        theta = np.concatenate([[-1.0, 1.0], np.zeros(param.n_slopes), [800.0]])
        one = objective.full(theta)
        assert one.loglik == -np.inf and not one.finite()
        np.testing.assert_array_equal(one.score, np.zeros(param.size))
        assert objective.passes == 0


class TestFixedFeatures:
    """The Louis pass's node features [I | E_e z_q] in the loading's free
    entries: built once per fit, read-only, and exact at the edges of the
    bivariate parameter space."""

    @pytest.mark.parametrize("structure", ["univariate", "bivariate"])
    def test_pair_products_are_built_once_per_fit(self, strawberry, monkeypatch, structure):
        built = []
        original = likelihood._pair_products

        def counted(*args):
            built.append(args[0])
            return original(*args)

        monkeypatch.setattr(likelihood, "_pair_products", counted)
        result = fit(strawberry, PO, structure, FAST)
        assert result.converged and len(built) == 1
        assert not built[0].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            built[0][0, 0, 0] = 1.0

    @pytest.mark.parametrize("structure", ["univariate", "bivariate"])
    def test_reused_pair_products_match_fresh_ones(self, strawberry, structure):
        param = _Parameterization(2, strawberry.slope_names(), RANDOM_EFFECTS[structure])
        kernel = LoglikKernel(strawberry, PO)
        objective = _Objective(kernel, param, 12 if structure == "bivariate" else 30)
        theta = _random_theta(np.random.default_rng(11), param)
        c, b, tail = param.split(theta)
        offsets = objective._offsets(tail)[0]
        args = (c, b, offsets, objective.weights)
        first = kernel.louis_moments(*args, objective._features)
        again = kernel.louis_moments(*args, objective._features)
        fresh = LoglikKernel(strawberry, PO).louis_moments(*args, objective._features.copy())
        for moments in (again, fresh):
            for got, want in zip(moments, first):
                np.testing.assert_array_equal(got, want)
        # writeable features are read afresh on every call
        writeable = objective._features.copy()
        kernel.louis_moments(*args, writeable)
        writeable *= 2.0
        second = LoglikKernel(strawberry, PO).louis_moments(*args, writeable).second
        np.testing.assert_array_equal(kernel.louis_moments(*args, writeable).second, second)

    @pytest.mark.parametrize(
        "tail",
        [
            [0.2, -0.4, math.atanh(0.999)],
            [-0.3, 0.1, -math.atanh(0.9999)],
            [-11.5, 0.3, 0.4],
            [0.1, -11.5, -0.6],
        ],
        ids=["rho 0.999", "rho -0.9999", "sigma1 near the floor", "sigma2 near the floor"],
    )
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_bivariate_score_and_information_match_differences(self, strawberry, link, tail):
        param = _Parameterization(2, strawberry.slope_names(), BivariateRandomEffect)
        objective = _Objective(LoglikKernel(strawberry, link), param, 12)
        slopes = np.random.default_rng(7).normal(0.0, 0.3, param.n_slopes)
        theta = np.concatenate([[-1.2, 0.6], slopes, tail])
        value = _marginal_value(objective)
        loglik, score, info = objective.full(theta)
        assert loglik == pytest.approx(value(theta), rel=1e-12)
        oracle = _central_gradient(value, theta)
        assert np.max(np.abs(score - oracle)) <= 1e-6 * max(1.0, np.max(np.abs(oracle)))
        oracle = _information(lambda t: objective.full(t).score, theta)
        assert np.max(np.abs(info - oracle)) <= 1e-6 * np.max(np.abs(oracle))


class TestObjectiveAtOtherK:
    """The objective's score and information at K = 2 and 4, where the
    Jacobian has another number of boundary rows than strawberry's K = 3,
    for the homogeneous and the univariate objective, each as a full model
    and as an intercept-only model, whose Jacobian has no slope columns."""

    @pytest.mark.parametrize("model", ["full", "intercept"])
    @pytest.mark.parametrize("structure", ["none", "univariate"])
    @pytest.mark.parametrize("link", list(LinkFamily))
    @pytest.mark.parametrize("k", [2, 4])
    def test_score_and_information_match_differences(self, k, link, structure, model):
        rng = np.random.default_rng([29, k, list(LinkFamily).index(link)])
        counts = rng.multinomial(12, np.full(k, 1.0 / k), size=30)
        x = rng.normal(size=(30, 3))
        dataset = Dataset(clusters=tuple(Cluster(covariates=row, counts=y) for row, y in zip(x, counts)))
        names = dataset.slope_names() if model == "full" else ()
        param = _Parameterization(k - 1, names, RANDOM_EFFECTS[structure])
        kernel = LoglikKernel(dataset, link, covariates=bool(names))
        objective = _Objective(kernel, param, 20)
        value = _marginal_value(objective)
        # increasing intercepts keep every proportional-odds node feasible
        theta = np.concatenate(
            [np.linspace(-1.0, 1.0, k - 1), rng.normal(0.0, 0.3, len(names)), [-0.3] * param.n_variance]
        )
        loglik, score, info = objective.full(theta)
        assert loglik == pytest.approx(value(theta), rel=1e-12)
        oracle = _central_gradient(value, theta)
        assert np.max(np.abs(score - oracle)) <= 1e-6 * max(1.0, np.max(np.abs(oracle)))
        oracle = _information(lambda t: objective.full(t).score, theta)
        assert np.max(np.abs(info - oracle)) <= 1e-6 * np.max(np.abs(oracle))


class TestNewton:
    @pytest.mark.parametrize("model", ["full", "intercept"])
    @pytest.mark.parametrize("structure", RE_STRUCTURES)
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_strawberry_fits_match_lbfgsb(self, strawberry, link, structure, model):
        """Newton decides each strawberry fit, at the maximum that L-BFGS-B
        finds from the same start on the same log-likelihood and score."""
        names = strawberry.slope_names() if model == "full" else ()
        newton = (fit if model == "full" else fit_intercept_model)(strawberry, link, structure)
        param = _Parameterization(2, names, RANDOM_EFFECTS[structure])
        kernel = LoglikKernel(strawberry, link, covariates=bool(names))
        objective = _Objective(kernel, param, 12 if structure == "bivariate" else 30)
        theta0, _ = _starting_point(strawberry, link, FitOptions(), param, names, kernel)

        def negative(theta):
            one = objective.full(theta)
            return (-one.loglik, -one.score) if one.finite() else (1e10, np.zeros(theta.size))

        options = dict(maxiter=500, ftol=1e-13, gtol=1e-7, maxcor=25, maxls=60)
        res = minimize(negative, theta0, jac=True, method="L-BFGS-B",
                       bounds=list(zip(*param.bounds())), options=options)
        assert newton.converged
        assert newton.diagnostics["optimizer_message"].startswith("Newton: decrement")
        assert newton.loglik == pytest.approx(-res.fun, abs=1e-8)
        np.testing.assert_allclose(newton.values, param.reported(res.x), rtol=0, atol=1e-5)
        jac = param.delta_jacobian(res.x)
        se = np.sqrt(np.diag(_inverse_information(objective.full(res.x).information)) * jac**2)
        np.testing.assert_allclose(newton.se, se, rtol=0, atol=1e-5)

    def test_the_floor_leaves_a_halving_fit_bit_identical(self, large_clusters, monkeypatch):
        """Trials that the line search rejects stop at their log-likelihood;
        the fit is the same bits, with the same passes, as when every trial
        makes the whole pass."""
        stopped, louis = [], LoglikKernel.louis_moments

        def counted(self, *args):
            moments = louis(self, *args)
            stopped.append(moments.mean is None)
            return moments

        monkeypatch.setattr(LoglikKernel, "louis_moments", counted)
        crl = LinkFamily.CONTINUATION_RATIO
        # each fit on a dataset object of its own, so both run the nested fit
        floored = fit(replace(large_clusters), crl, "univariate", FAST)
        assert any(stopped)
        full = _Objective.full
        monkeypatch.setattr(_Objective, "full", lambda self, theta, floor=None: full(self, theta))
        stopped.clear()
        whole = fit(replace(large_clusters), crl, "univariate", FAST)
        assert stopped and not any(stopped)
        for name in ("loglik", "converged", "iterations", "n_evaluations", "diagnostics"):
            assert getattr(floored, name) == getattr(whole, name)
        np.testing.assert_array_equal(floored.values, whole.values)

    @pytest.mark.parametrize("structure", ["univariate", "bivariate"])
    def test_sigma_zero_data_reports_its_boundary_under_newton(self, structure):
        design = SimulationDesign(
            link=PO,
            true_params=study_true_parameters(0.0),
            fits=((PO, "none"),),
            replications=1,
            seed=77,
        )
        result = fit(generate_dataset(design, 0), PO, structure)
        assert result.converged
        assert result.diagnostics["optimizer_message"].startswith("Newton")
        stds = {"sigma", "sigma1", "sigma2"} & set(result.names)
        assert set(result.diagnostics["boundary"]) >= stds

    # the log-likelihoods of the fits below before the floor step was tried:
    # 23-28 Newton iterations, each lowering log sigma by about 0.5
    SIGMA_ZERO_LOGLIK = {
        (PO, "univariate"): -147.1662184934209,
        (PO, "bivariate"): -147.1662184933394,
        (LinkFamily.ADJACENT_CATEGORIES, "univariate"): -147.2631029666701,
        (LinkFamily.ADJACENT_CATEGORIES, "bivariate"): -147.2631029664035,
        (LinkFamily.CONTINUATION_RATIO, "univariate"): -147.561974039025,
        (LinkFamily.CONTINUATION_RATIO, "bivariate"): -147.5619740390797,
    }

    @pytest.mark.parametrize("link, structure", list(SIGMA_ZERO_LOGLIK), ids=str)
    def test_sigma_zero_fits_take_the_floor_in_a_few_iterations(self, link, structure):
        design = SimulationDesign(
            link=PO,
            true_params=study_true_parameters(0.0),
            fits=((PO, "none"),),
            replications=1,
            seed=77,
        )
        result = fit(generate_dataset(design, 0), link, structure)
        assert result.converged and result.iterations <= 10
        assert result.diagnostics["optimizer_message"].startswith("Newton")
        assert result.diagnostics["boundary"] == tuple(
            {"univariate": ("sigma",), "bivariate": ("sigma1", "sigma2")}[structure]
        )
        assert result.loglik == pytest.approx(self.SIGMA_ZERO_LOGLIK[link, structure], abs=1e-8)

    def test_floor_step_is_refused_where_the_maximum_is_inside(self):
        # log sigma passes -3 on its way down to the optimum at sigma 0.027,
        # where the log-likelihood exceeds its value at the floor
        design = SimulationDesign(
            link=PO, true_params=study_true_parameters(0.6), fits=((PO, "none"),),
            replications=20, seed=0,
        )
        ds = generate_dataset(design, 15)
        acl = LinkFamily.ADJACENT_CATEGORIES
        start = fit(ds, acl, "none", FAST).estimates
        result = fit(ds, acl, "univariate", FitOptions(standard_errors=False, starting_values=start))
        assert "boundary" not in result.diagnostics
        assert result["sigma"] == pytest.approx(0.027068, abs=1e-6)
        assert result.loglik == pytest.approx(-149.73213234924083, abs=1e-8)

    def test_indefinite_information_gets_the_eigenvalue_modified_step(self):
        info = np.diag([4.0, -2.0, 1e-12])
        g = np.array([1.0, 1.0, 1.0])
        direction, decrement, null_score = estimation._ascent_direction(g, info)
        assert decrement is None and null_score is None
        np.testing.assert_allclose(direction, [0.25, 0.5, 1.0 / (4.0 * 1e-6)])
        direction, decrement, null_score = estimation._ascent_direction(g, np.diag([4.0, 2.0, 1.0]))
        np.testing.assert_allclose(direction, [0.25, 0.5, 1.0])
        assert decrement == pytest.approx(1.75) and null_score is None

    def test_positive_definite_direction_matches_a_cholesky_solve(self):
        rng = np.random.default_rng(3)
        for size in (1, 4, 11):
            a = rng.normal(size=(size, size))
            info = a @ a.T + 0.1 * np.eye(size)
            g = rng.normal(size=size)
            expected = cho_solve(cho_factor(info), g)
            direction, decrement, null_score = estimation._ascent_direction(g, info)
            np.testing.assert_allclose(direction, expected, rtol=1e-10, atol=0)
            assert decrement == pytest.approx(g @ expected, rel=1e-12) and null_score is None

    def test_semidefinite_information_gives_the_identified_decrement(self):
        # a null direction at 45 degrees in the last two coordinates
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, -1.0]]) / [1.0, 2**0.5, 2**0.5]
        info = basis @ np.diag([4.0, 2.0, -1e-13]) @ basis.T  # not positive definite
        g = np.array([1.0, 1.0, 0.5])
        direction, decrement, null_score = estimation._ascent_direction(g, info)
        # g = (1, 1.5 / sqrt 2, 0.5 / sqrt 2) in the eigenbasis
        assert decrement == pytest.approx(0.25 + 1.125 / 2.0)
        np.testing.assert_allclose(null_score, [0.0, 0.25, -0.25], atol=1e-15)
        np.testing.assert_allclose(direction, basis @ ([1.0, 1.5 / 2**0.5, 0.5 / 2**0.5] / np.array([4.0, 2.0, 4e-6])))


class TestInterceptModel:
    def test_no_covariate_variation_matches_full_fit(self):
        rng = np.random.default_rng(2)
        clusters = tuple(
            Cluster(covariates=np.zeros(2), counts=rng.multinomial(12, [0.3, 0.4, 0.3]))
            for _ in range(10)
        )
        ds = Dataset(clusters=clusters)
        full = fit(ds, LinkFamily.CONTINUATION_RATIO, "none", FAST)
        intercept = fit_intercept_model(ds, LinkFamily.CONTINUATION_RATIO, "none", FAST)
        assert full.loglik == pytest.approx(intercept.loglik, abs=1e-7)
        np.testing.assert_allclose(full.values[:2], intercept.values, atol=1e-4)
        # the slopes are unidentified, so the information is singular: Newton
        # decides on the identified directions, where the L-BFGS-B fallback
        # took 152 passes to the same log-likelihood
        assert full.diagnostics["optimizer_message"].startswith("Newton"), full.diagnostics
        assert full.converged and full.n_evaluations <= 10
        assert full.loglik == pytest.approx(-32.51128591274233, abs=1e-8)
        with_se = fit(ds, LinkFamily.CONTINUATION_RATIO, "none")
        assert with_se.diagnostics["covariance_note"].startswith("pseudo-inverse")

    def test_keeps_random_effect_structure(self, strawberry):
        intercept = fit_intercept_model(strawberry, PO, "univariate", FAST)
        assert intercept.re_structure == "univariate"
        assert intercept.names == ("c1", "c2", "sigma")
        assert intercept.n_fixed_parameters == 2


class TestEmpiricalBayes:
    def test_balanced_cluster_predicts_zero(self):
        # counts exactly matching the zero-deviation expected proportions
        fe = FixedEffects(intercepts=[0.0, 0.0], slopes=np.empty(0))
        params = ParameterVector(fixed=fe, re=UnivariateRandomEffect(sigma=0.8))
        probs = category_probabilities(LinkFamily.ADJACENT_CATEGORIES, np.zeros(2))
        counts = np.round(probs * 9).astype(int)  # (3, 3, 3)
        ds = Dataset(clusters=(Cluster(covariates=np.empty(0), counts=counts),))
        eps = predict_random_effects(ds, params, LinkFamily.ADJACENT_CATEGORIES)
        assert abs(eps[0, 0]) < 1e-6

    def test_sigma_to_zero_shrinks_to_prior(self):
        fe = FixedEffects(intercepts=[-1.0, 0.5], slopes=np.empty(0))
        cl = Cluster(covariates=np.empty(0), counts=np.array([9, 1, 0]))
        ds = Dataset(clusters=(cl,))
        for sigma, bound in ((1e-12, 0.0), (0.05, 0.02)):
            params = ParameterVector(fixed=fe, re=UnivariateRandomEffect(sigma=sigma))
            eps = predict_random_effects(ds, params, PO)
            assert abs(eps[0, 0]) <= bound

    def test_count_weighted_mean_is_centered(self, strawberry, po_univariate):
        eps = predict_random_effects(strawberry, po_univariate.estimates, PO)
        weights = strawberry.sizes / strawberry.sizes.sum()
        assert abs(float(weights @ eps[:, 0])) < 0.15

    def test_single_cluster_wrapper(self, strawberry, po_univariate):
        eps = empirical_bayes(strawberry.clusters[0], po_univariate, PO)
        all_eps = predict_random_effects(strawberry, po_univariate.estimates, PO)
        assert eps.shape == (2,)
        np.testing.assert_allclose(eps, all_eps[0], atol=1e-6)

    def test_posterior_mean_close_to_mode_for_moderate_sigma(self, strawberry, po_univariate):
        mode = predict_random_effects(strawberry, po_univariate.estimates, PO, "mode")
        mean = predict_random_effects(strawberry, po_univariate.estimates, PO, "mean")
        assert np.max(np.abs(mode - mean)) < 0.2

    @pytest.mark.parametrize("structure", ["univariate", "bivariate"])
    def test_posterior_mean_matches_a_softmax_oracle(self, strawberry, random_effect_fits, structure):
        estimates = random_effect_fits[PO, structure]
        k1 = strawberry.n_categories - 1
        z, weights = standard_tensor_grid(estimation._EB_ORDER[estimates.re.dim], estimates.re.dim)
        offsets = z @ estimates.re.loading(k1).T
        fe = estimates.fixed
        kernel = LoglikKernel(strawberry, PO)
        grid_ll = kernel.node_logliks(fe.intercepts, fe.slopes, offsets)[kernel.rows.index]
        expected = softmax(grid_ll + np.log(weights), axis=1) @ offsets
        mean = predict_random_effects(strawberry, estimates, PO, "mean")
        np.testing.assert_allclose(mean, expected, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("method", ["mode", "mean"])
    def test_an_intercept_fit_predicts_as_the_full_model_at_zero_slopes(self, strawberry, method):
        estimates = fit_intercept_model(strawberry, PO, "univariate", FAST).estimates
        zero = ParameterVector(fixed=FixedEffects(estimates.fixed.intercepts, np.zeros(8)), re=estimates.re)
        np.testing.assert_array_equal(
            predict_random_effects(strawberry, estimates, PO, method),
            predict_random_effects(strawberry, zero, PO, method),
        )

    def test_requires_random_effect(self, strawberry):
        homog = fit(strawberry, PO, "none", FAST)
        with pytest.raises(ValueError):
            predict_random_effects(strawberry, homog.estimates, PO)

    @pytest.mark.parametrize("r", [1, 2])
    def test_newton_step_matches_the_row_loop(self, r):
        rng = np.random.default_rng(r)
        grad = rng.normal(size=(40, r))
        a = rng.normal(size=(40, r, r))
        hess = -(a @ a.transpose(0, 2, 1)) - 0.1 * np.eye(r)
        hess[3] = -hess[3]  # ascent fails: the step falls back to the gradient
        hess[5, 0, 0] = np.nan
        expected = _newton_step_reference(grad, hess)
        np.testing.assert_array_equal(_newton_step(grad, hess), expected)
        hess[7] = 0.0  # singular: the batched solve fails and rows are solved one by one
        np.testing.assert_array_equal(_newton_step(grad, hess), _newton_step_reference(grad, hess))
        np.testing.assert_array_equal(_newton_step(grad, hess)[7], grad[7])


@pytest.fixture(scope="module")
def large_clusters():
    """960 clusters of 50 on the 48-plot factorial design drawn at the study's
    true parameters with sigma 1.5, as the benchmark's large_clusters
    workload builds them for seed 0, block 0."""
    x = np.tile(factorial_design()[0], (20, 1))
    truth = study_true_parameters(1.5)
    rng = np.random.default_rng(np.random.SeedSequence([0, 0]))
    eps = truth.re.sigma * rng.standard_normal(x.shape[0])
    deltas = truth.fixed.intercepts[None, :] + (x @ truth.fixed.slopes + eps)[:, None]
    counts = rng.multinomial(50, category_probabilities(PO, deltas))
    return Dataset(clusters=tuple(Cluster(covariates=row, counts=y) for row, y in zip(x, counts)))


@pytest.fixture(scope="module")
def random_effect_fits(strawberry):
    return {
        (link, structure): fit(strawberry, link, structure, FAST).estimates
        for link in LinkFamily
        for structure in ("univariate", "bivariate")
    }


class TestEmpiricalBayesRows:
    """Empirical Bayes on large_clusters' intercept model: 960 clusters on
    399 distinct count vectors, predicted once per row."""

    @pytest.fixture(scope="class")
    def intercept_fit(self, large_clusters):
        return fit_intercept_model(large_clusters, PO, "univariate", FAST)

    def test_offsets_for_the_clusters_raise_a_typed_error(self, large_clusters, intercept_fit):
        kernel = model_kernel(large_clusters, intercept_fit.estimates, PO)
        assert len(kernel.rows.first) == 399
        c, b = intercept_fit.estimates.fixed.intercepts, np.empty(0)
        with pytest.raises(ValueError, match=r"offsets for 960 rows, but the kernel has 399: .*rows\.first"):
            kernel.conditional_terms(c, b, np.zeros((960, 2)))

    def test_clusters_of_one_row_get_the_same_modes(self, large_clusters, intercept_fit):
        rows = model_kernel(large_clusters, intercept_fit.estimates, PO).rows
        assert rows.multiplicity.max() > 1
        modes = predict_random_effects(large_clusters, intercept_fit.estimates, PO)
        np.testing.assert_array_equal(modes, modes[rows.first][rows.index])

    def test_a_row_predicts_as_its_cluster_alone(self, large_clusters, intercept_fit):
        rows = model_kernel(large_clusters, intercept_fit.estimates, PO).rows
        modes = predict_random_effects(large_clusters, intercept_fit.estimates, PO)
        sample = np.random.default_rng(3).choice(len(rows.first), size=40, replace=False)
        for i in rows.first[sample]:
            alone = empirical_bayes(large_clusters.clusters[i], intercept_fit, PO)
            np.testing.assert_allclose(modes[i], alone, rtol=0, atol=1e-10)

    def test_the_mode_passes_evaluate_the_rows(self, large_clusters, intercept_fit, monkeypatch):
        seen = []
        original = LoglikKernel.conditional_terms

        def counted(self, intercepts, slopes, offsets):
            terms = original(self, intercepts, slopes, offsets)
            seen.append(len(terms.loglik))
            return terms

        monkeypatch.setattr(LoglikKernel, "conditional_terms", counted)
        modes = predict_random_effects(large_clusters, intercept_fit.estimates, PO)
        assert modes.shape == (960, 2)
        assert set(seen) == {399}


class TestPosteriorModes:
    @pytest.mark.parametrize("structure", ["univariate", "bivariate"])
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_match_the_differencing_newton_loop(self, strawberry, random_effect_fits, link, structure):
        params = random_effect_fits[link, structure]
        modes = predict_random_effects(strawberry, params, link)
        np.testing.assert_allclose(modes, _modes_reference(strawberry, params, link), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_match_the_differencing_newton_loop_on_large_clusters(self, large_clusters, link):
        params = study_true_parameters(1.5)
        modes = predict_random_effects(large_clusters, params, link)
        np.testing.assert_allclose(
            modes, _modes_reference(large_clusters, params, link), rtol=0, atol=1e-8
        )

    # the mean integrates on a 25 x 25 grid against 40 nodes for one effect
    @pytest.mark.parametrize("method, atol", [("mode", 1e-8), ("mean", 1e-4)])
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_rank_one_cholesky_loading_is_the_shared_deviation(
        self, strawberry, random_effect_fits, link, method, atol
    ):
        params = random_effect_fits[link, "univariate"]
        sigma = params.re.sigma
        perfect = ParameterVector(fixed=params.fixed, re=BivariateRandomEffect(sigma, sigma, 1.0))
        np.testing.assert_allclose(
            predict_random_effects(strawberry, perfect, link, method),
            predict_random_effects(strawberry, params, link, method),
            rtol=0,
            atol=atol,
        )

    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_gradient_vanishes_within_ten_iterations(self, large_clusters, monkeypatch, link):
        params = study_true_parameters(1.5)
        sigma, fe = params.re.sigma, params.fixed
        gradients = []
        original = LoglikKernel.conditional_terms

        def recorded(self, intercepts, slopes, offsets):
            terms = original(self, intercepts, slopes, offsets)
            # the log posterior's gradient in z = offset / sigma
            gradients.append(np.max(np.abs(sigma * terms.score.sum(axis=1) - offsets[:, 0] / sigma)))
            return terms

        monkeypatch.setattr(LoglikKernel, "conditional_terms", recorded)
        modes = predict_random_effects(large_clusters, params, link)
        assert len(gradients) <= 10 and gradients[-1] < 1e-8
        kernel = LoglikKernel(large_clusters, link)
        modes = modes[kernel.rows.first]
        at_mode = original(kernel, fe.intercepts, fe.slopes, modes)
        assert np.max(np.abs(sigma * at_mode.score.sum(axis=1) - modes[:, 0] / sigma)) < 1e-8

    # design seed 5, clusters of 2: converged fits where Newton steps without
    # step control, from the posterior-mean seeds, stop short of the mode
    @pytest.mark.parametrize(
        "generator, sigma, replication, link, structure",
        [
            (PO, 1.5, 1, LinkFamily.CONTINUATION_RATIO, "bivariate"),
            (LinkFamily.CONTINUATION_RATIO, 1.5, 2, LinkFamily.ADJACENT_CATEGORIES, "bivariate"),
            (LinkFamily.ADJACENT_CATEGORIES, 3.0, 3, PO, "univariate"),
            (LinkFamily.ADJACENT_CATEGORIES, 3.0, 2, LinkFamily.ADJACENT_CATEGORIES, "bivariate"),
        ],
    )
    def test_every_seed_reaches_the_mode(self, generator, sigma, replication, link, structure):
        design = SimulationDesign(
            link=generator, true_params=study_true_parameters(sigma), fits=(), cluster_size=2, seed=5
        )
        dataset = generate_dataset(design, replication)
        result = fit(dataset, link, structure, FAST)
        assert result.converged
        params = result.estimates
        kernel = LoglikKernel(dataset, link)
        loading = params.re.loading(dataset.n_categories - 1)
        seeds = (
            _grid_argmax_seeds(kernel, params),
            _posterior_mean_seeds(kernel, params),
            np.zeros((len(kernel.rows.first), params.re.dim)),
        )
        modes = [estimation._posterior_modes(kernel, params.fixed, loading, z) for z in seeds]
        for z in modes:
            terms = kernel.conditional_terms(params.fixed.intercepts, params.fixed.slopes, z @ loading.T)
            assert np.max(np.abs(terms.score @ loading - z)) < 1e-8
        for z in modes[1:]:
            np.testing.assert_allclose(z, modes[0], rtol=0, atol=1e-8)

    def test_posterior_mean_seeds_keep_the_grid_seeded_modes(
        self, strawberry, random_effect_fits, large_clusters
    ):
        """The modes from the posterior-mean seeds are those from the argmax
        of the 40-node or 25 x 25 grid: on strawberry's six random-effect
        fits, on the benchmark's study_slice block 0 of seed 0 (design seed
        0) at each replication's univariate fits, and on large_clusters
        block 0 at the truth."""
        cases = [(strawberry, params, link) for (link, _), params in random_effect_fits.items()]
        design = SimulationDesign(link=PO, true_params=study_true_parameters(1.5), fits=(), seed=0)
        opts = FitOptions(quadrature_order=20, standard_errors=False)
        for replication in range(10):
            dataset = generate_dataset(design, replication)
            for link in LinkFamily:
                cases.append((dataset, fit(dataset, link, "univariate", opts).estimates, link))
        cases += [(large_clusters, study_true_parameters(1.5), link) for link in LinkFamily]
        for dataset, params, link in cases:
            kernel = LoglikKernel(dataset, link)
            loading = params.re.loading(dataset.n_categories - 1)
            seeds = _grid_argmax_seeds(kernel, params)
            expected = estimation._posterior_modes(kernel, params.fixed, loading, seeds) @ loading.T
            expected = expected[kernel.rows.index]
            modes = predict_random_effects(dataset, params, link)
            np.testing.assert_allclose(modes, expected, rtol=0, atol=1e-10)


def _grid_argmax_seeds(kernel, params):
    """Each row's standardized node of highest log posterior on the
    40-node or 25 x 25 grid."""
    z, _ = standard_tensor_grid(estimation._EB_ORDER[params.re.dim], params.re.dim)
    fe, loading = params.fixed, params.re.loading(kernel.n_boundaries)
    grid_ll = kernel.node_logliks(fe.intercepts, fe.slopes, z @ loading.T)
    return z[np.argmax(grid_ll - 0.5 * (z**2).sum(axis=1)[None, :], axis=1)]


def _posterior_mean_seeds(kernel, params):
    """Each row's posterior mean of the standardized effect on the
    default rule, 30 nodes or 12 x 12."""
    z, weights = standard_tensor_grid(30 if params.re.dim == 1 else 12, params.re.dim)
    fe, loading = params.fixed, params.re.loading(kernel.n_boundaries)
    grid_ll = kernel.node_logliks(fe.intercepts, fe.slopes, z @ loading.T)
    log_posterior = grid_ll + np.log(weights)
    return softmax(log_posterior, axis=1) @ z


def _modes_reference(dataset, params, link):
    """Each cluster's posterior mode, by Newton steps on differenced values
    of the log posterior of its row, seeded at the argmax of a node grid."""
    kernel = LoglikKernel(dataset, link)
    fe, re = params.fixed, params.re
    if isinstance(re, UnivariateRandomEffect):
        sigma = re.sigma
        rule = gauss_hermite(40)
        nodes = sigma * rule.nodes
        grid_ll = kernel.node_logliks(fe.intercepts, fe.slopes, nodes[:, None])

        def posterior(e):
            return (
                kernel.conditional_at(fe.intercepts, fe.slopes, e[:, None]) - 0.5 * (e / sigma) ** 2
            )

        prior = -0.5 * (nodes / sigma) ** 2
        e = nodes[np.argmax(grid_ll + prior[None, :], axis=1)].astype(float)
        h = 1e-5
        for _ in range(80):
            f0, fp, fm = posterior(e), posterior(e + h), posterior(e - h)
            grad = (fp - fm) / (2.0 * h)
            curv = (fp - 2.0 * f0 + fm) / h**2
            step = grad / np.where(curv < -1e-9, -curv, 1.0)
            np.clip(step, -1.0, 1.0, out=step)
            e = e + step
            if np.max(np.abs(grad)) < 1e-9:
                break
        return np.repeat(e[:, None], 2, axis=1)[kernel.rows.index]

    eigval, eigvec = np.linalg.eigh(re.loading(2) @ re.loading(2).T)
    keep = eigval > max(1e-12, 1e-12 * eigval.max())
    amat = eigvec[:, keep] * np.sqrt(eigval[keep])
    r = amat.shape[1]
    base = gauss_hermite(25)
    if r == 1:
        zgrid, logw = base.nodes[:, None], np.log(base.weights)
    else:
        zgrid, weights = standard_tensor_grid(base.order)
        logw = np.log(weights)
    grid_ll = kernel.node_logliks(fe.intercepts, fe.slopes, zgrid @ amat.T)
    grid_post = grid_ll - 0.5 * (zgrid**2).sum(axis=1)[None, :]
    z = zgrid[np.argmax(grid_post + logw[None, :], axis=1)].astype(float)

    def posterior(zz):
        return (
            kernel.conditional_at(fe.intercepts, fe.slopes, zz @ amat.T)
            - 0.5 * (zz**2).sum(axis=1)
        )

    h = 1e-5
    for _ in range(80):
        f0 = posterior(z)
        grad, hess = np.empty((z.shape[0], r)), np.empty((z.shape[0], r, r))
        for i in range(r):
            zp, zm = z.copy(), z.copy()
            zp[:, i] += h
            zm[:, i] -= h
            fp, fm = posterior(zp), posterior(zm)
            grad[:, i] = (fp - fm) / (2.0 * h)
            hess[:, i, i] = (fp - 2.0 * f0 + fm) / h**2
        for i in range(r):
            for j in range(i + 1, r):
                shifted = {}
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    zz = z.copy()
                    zz[:, i] += si * h
                    zz[:, j] += sj * h
                    shifted[si, sj] = posterior(zz)
                cross = (shifted[1, 1] - shifted[1, -1] - shifted[-1, 1] + shifted[-1, -1]) / (4 * h * h)
                hess[:, i, j] = hess[:, j, i] = cross
        step = _newton_step_reference(grad, hess)
        np.clip(step, -1.0, 1.0, out=step)
        z = z + step
        if np.max(np.abs(grad)) < 1e-8:
            break
    return (z @ amat.T)[kernel.rows.index]


def _newton_step_reference(grad, hess):
    """The Newton step solved cluster by cluster."""
    step = np.empty_like(grad)
    for idx in range(grad.shape[0]):
        try:
            s = np.linalg.solve(-hess[idx], grad[idx])
            if not np.all(np.isfinite(s)) or grad[idx] @ s < 0:
                s = grad[idx]
        except np.linalg.LinAlgError:
            s = grad[idx]
        step[idx] = s
    return step


def _one_newton_step(dataset, link, structure, slope_names, result):
    """A fit's estimates one more full Newton step on: a fit stops once its
    Newton decrement is below 1e-10, and the decrement of a dataset taken
    twice is twice as large, so it can take one more step than the same
    fit once. That step is the same on both, as the score and the
    information double; after it both are at the maximum to rounding."""
    effect = estimation.random_effect_class(structure)
    param = _Parameterization(dataset.n_categories - 1, slope_names, effect)
    order = estimation.DEFAULT_ORDER_2D if effect.dim == 2 else estimation.DEFAULT_ORDER_1D
    objective = _Objective(LoglikKernel(dataset, link, covariates=bool(slope_names)), param, order)
    theta = param.pack(result.estimates)
    at = objective.full(theta)
    return param.reported(theta + np.linalg.solve(at.information, at.score))


def _louis_features(nodes, k1):
    """Node features of the intercepts and a scale of the nodes."""
    features = np.zeros((nodes.size, k1, k1 + 1))
    features[:, :, :k1] = np.eye(k1)
    features[:, :, k1] = nodes[:, None]
    return features


class TestDistinctClusters:
    """A fit evaluates each distinct (covariate pattern, counts) cluster
    once and weighs it by its multiplicity."""

    @pytest.fixture(scope="class")
    def doubled(self):
        strawberry = strawberry_dataset()
        return Dataset(clusters=strawberry.clusters * 2, covariate_names=strawberry.covariate_names)

    @pytest.mark.parametrize("structure", ["none", "univariate", "bivariate"])
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_every_cluster_twice_doubles_the_loglik(self, strawberry, doubled, link, structure):
        """The strawberry panel with every cluster twice: twice the
        log-likelihood, the same estimates and standard errors smaller by
        sqrt(2), for the full and the intercept model."""
        rows = LoglikKernel(doubled, link).rows
        assert len(rows.first) == 48 and set(rows.multiplicity.tolist()) == {2}
        for fitter, slopes in ((fit, strawberry.slope_names()), (fit_intercept_model, ())):
            once, twice = fitter(strawberry, link, structure), fitter(doubled, link, structure)
            assert once.converged and twice.converged
            assert twice.loglik == pytest.approx(2.0 * once.loglik, rel=1e-10)
            np.testing.assert_allclose(
                _one_newton_step(doubled, link, structure, slopes, twice),
                _one_newton_step(strawberry, link, structure, slopes, once),
                rtol=0, atol=1e-7,
            )
            np.testing.assert_allclose(twice.se, once.se / math.sqrt(2.0), rtol=0, atol=1e-7)

    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_an_intercept_kernel_evaluates_the_distinct_rows(self, large_clusters, monkeypatch, link):
        """large_clusters' 960 clusters have one pattern and a few hundred
        count vectors for an intercept model: the Louis pass evaluates the
        link once per row block and the counts once per distinct cluster,
        and the same offsets given per row give the same moments."""
        evaluated = []
        stages = likelihood.slot_stages

        def spied(link, d, counts, work, curvature, rows=None, row_work=None):
            evaluated.append((d.shape[1], counts.shape[1]))
            return stages(link, d, counts, work, curvature, rows, row_work)

        monkeypatch.setattr(likelihood, "slot_stages", spied)
        kernel = LoglikKernel(large_clusters, link, covariates=False)
        rows = kernel.rows
        assert len(rows.first) < 450 and rows.multiplicity.sum() == 960
        rule = gauss_hermite(30)
        offsets, features = 1.5 * rule.nodes[:, None], _louis_features(rule.nodes, 2)
        c, b = np.array([-0.6, 0.6]), np.empty(0)
        moments = kernel.louis_moments(c, b, offsets, rule.weights, features)
        assert evaluated == [(1, len(rows.first))]
        monkeypatch.undo()
        assert moments.mean.shape == (len(rows.first), 3)
        repeated = np.broadcast_to(offsets, (len(rows.first), 30, 1))
        per_row = kernel.louis_moments(c, b, repeated, rule.weights, features)
        assert moments.loglik == pytest.approx(per_row.loglik, rel=1e-13)
        marginal = kernel.marginal(c, b, offsets, rule.weights)
        assert moments.loglik == float((marginal * rows.multiplicity).sum())
        for got, want in zip(moments[1:], per_row[1:]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_the_floor_bound_weighs_the_rows_left(self, large_clusters, monkeypatch, link):
        """With rows of several clusters, the bound of a pass stopped at its
        floor is the finished rows' log-likelihood, each row times its
        multiplicity, plus the ceiling times the multiplicity of the rows
        left: at least the full pass's log-likelihood and below the floor."""
        monkeypatch.setattr(likelihood, "_BLOCK_ELEMENTS", 64 * 30)
        kernel = LoglikKernel(large_clusters, link, covariates=False)
        rows = kernel.rows
        blocks = kernel._workspace(30).blocks
        assert len(blocks) > 2 and rows.multiplicity.max() > 1
        rule = gauss_hermite(30)
        # weights that sum to 2, so that the ceiling log 2 counts
        offsets, weights = 1.5 * rule.nodes[:, None], 2.0 * rule.weights
        features = _louis_features(rule.nodes, 2)
        c, b = np.array([-0.6, 0.6]), np.empty(0)
        full = kernel.louis_moments(c, b, offsets, weights, features)
        row_ll = kernel.marginal(c, b, offsets, weights) * rows.multiplicity
        bounds = [row_ll[:hi].sum() + rows.multiplicity[hi:].sum() * math.log(2.0) for _, hi, _, _ in blocks]
        for floor in (full.loglik + 1.0, 0.5 * full.loglik):
            stopped = kernel.louis_moments(c, b, offsets, weights, features, floor)
            assert stopped.mean is None and stopped.second is None
            assert full.loglik <= stopped.loglik < floor
            expected = next(value for value in bounds if value < floor - 1e-8 * abs(floor))
            assert stopped.loglik == pytest.approx(expected, rel=1e-12)


def _default_rule(estimates):
    """The rule of a fit's default order for ``total_loglik``: none without
    a random effect, 30 nodes, or the 12 x 12 rule of the effect."""
    re = estimates.re
    if re.dim == 2:
        return bivariate_rule(estimation.DEFAULT_ORDER_2D, re.sigma1, re.sigma2, re.rho)
    return gauss_hermite(estimation.DEFAULT_ORDER_1D) if re.dim else None


class TestFitLoglikIsTheTotal:
    """A fit's log-likelihood is ``total_loglik`` at its estimates bit for
    bit, on the fit's default rule: both sum the kernel's rows, each
    weighted by its multiplicity, in row order. Intercept fits included,
    whose estimates have no slopes."""

    @pytest.mark.parametrize("structure", RE_STRUCTURES)
    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_strawberry(self, strawberry, link, structure):
        for fitter in (fit, fit_intercept_model):
            result = fitter(strawberry, link, structure, FAST)
            rule = _default_rule(result.estimates)
            assert result.loglik == total_loglik(strawberry, result.estimates, link, rule)

    @pytest.mark.parametrize("link", list(LinkFamily))
    def test_large_clusters(self, large_clusters, link):
        for fitter in (fit, fit_intercept_model):
            result = fitter(large_clusters, link, "univariate", FAST)
            assert result.loglik == total_loglik(large_clusters, result.estimates, link, gauss_hermite(30))
