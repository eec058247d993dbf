import numpy as np
import pytest

from ordmixed import (
    FitOptions,
    FixedEffects,
    LinkFamily,
    NoRandomEffect,
    ParameterVector,
    UnivariateRandomEffect,
    category_probabilities,
    gauss_hermite,
)
from ordmixed import estimation, likelihood, simulation
from ordmixed.io import render_tree, summary_tree
from ordmixed.simulation import (
    InvalidDesignError,
    SimulationDesign,
    StudyQualityError,
    factorial_design,
    generate_dataset,
    model_key,
    run_study,
    study_true_parameters,
)

PO = LinkFamily.PROPORTIONAL_ODDS
ACL = LinkFamily.ADJACENT_CATEGORIES


class TestFactorialDesign:
    def test_default_shape_and_names(self):
        x, names, levels = factorial_design()
        assert x.shape == (48, 8)
        assert names == (
            "male2", "male3", "female2", "female3", "female4",
            "block2", "block3", "block4",
        )
        assert levels.shape == (48, 3)
        # reference cell: all factors at level 1
        assert x[0].tolist() == [0.0] * 8
        # every level appears the expected number of times
        assert int(x[:, 0].sum()) == 16  # male level 2

    def test_true_parameters(self):
        tp = study_true_parameters(0.6)
        assert tp.fixed.intercepts.tolist() == [-2.0, -1.0]
        assert tp.fixed.slopes.tolist() == [0.1, -0.2, 0.7, 0.6, 1.0, 0.6, 0.9, 0.1]
        assert isinstance(tp.re, UnivariateRandomEffect) and tp.re.sigma == 0.6
        assert isinstance(study_true_parameters(0.0).re, NoRandomEffect)


def small_design(**kw):
    defaults = dict(
        link=PO,
        true_params=study_true_parameters(0.6),
        fits=((PO, "none"), (PO, "univariate")),
        replications=4,
        seed=5,
    )
    defaults.update(kw)
    return SimulationDesign(**defaults)


class TestGenerateDataset:
    def test_identical_inputs_identical_datasets(self):
        design = small_design()
        a = generate_dataset(design, 2)
        b = generate_dataset(design, 2)
        assert np.array_equal(a.count_matrix, b.count_matrix)
        c = generate_dataset(design, 3)
        assert not np.array_equal(a.count_matrix, c.count_matrix)

    def test_symmetric_generator_frequencies(self):
        # no effects at all, adjacent-categories with zero cut points:
        # every category is equally likely
        true = ParameterVector(
            fixed=FixedEffects(intercepts=[0.0, 0.0], slopes=np.zeros(8)),
            re=NoRandomEffect(),
        )
        design = small_design(link=ACL, true_params=true, replications=100)
        totals = np.zeros(3)
        for r in range(100):
            totals += generate_dataset(design, r).count_matrix.sum(axis=0)
        n = totals.sum()
        freq = totals / n
        se = np.sqrt((1 / 3) * (2 / 3) / n)
        assert np.all(np.abs(freq - 1 / 3) < 3 * se)

    def test_pooled_frequency_matches_quadrature_marginal(self):
        # oracle: marginal category-1 probability by quadrature
        design = small_design(replications=100)
        x, _, _ = factorial_design()
        tp = design.true_params
        rule = gauss_hermite(60)
        base = tp.fixed.intercepts[None, :] + (x @ tp.fixed.slopes)[:, None]
        deltas = base[:, None, :] + (tp.re.sigma * rule.nodes)[None, :, None]
        probs = category_probabilities(PO, deltas)
        marginal_p1 = float(np.tensordot(probs, rule.weights, axes=([1], [0]))[:, 0].mean())
        totals = np.zeros(3)
        for r in range(100):
            totals += generate_dataset(design, r).count_matrix.sum(axis=0)
        assert abs(totals[0] / totals.sum() - marginal_p1) < 0.02

    def test_infeasible_proportional_odds_design(self):
        bad = ParameterVector(
            fixed=FixedEffects(intercepts=[0.5, -0.5], slopes=np.zeros(8)),
            re=NoRandomEffect(),
        )
        with pytest.raises(InvalidDesignError):
            generate_dataset(small_design(true_params=bad), 0)

    def test_bivariate_generator(self):
        from ordmixed import BivariateRandomEffect

        true = ParameterVector(
            fixed=study_true_parameters(0.0).fixed,
            re=BivariateRandomEffect(sigma1=0.5, sigma2=0.6, rho=0.9),
        )
        ds = generate_dataset(small_design(link=ACL, true_params=true), 0)
        assert ds.n_clusters == 48
        assert ds.count_matrix.sum() == 480


class TestRunStudy:
    def test_single_replication_has_no_spread(self):
        design = small_design(replications=1)
        summary = run_study(design, FitOptions(quadrature_order=10))
        model = summary.models[model_key(PO, "none")]
        row = model.parameter("c1")
        assert row.sd is None and row.ci_lower is None and row.ci_upper is None
        assert np.isfinite(row.mean)

    def test_summary_is_bit_identical_across_runs(self):
        design = small_design()
        opts = FitOptions(quadrature_order=10)
        a = render_tree(summary_tree(run_study(design, opts)), "json")
        b = render_tree(summary_tree(run_study(design, opts)), "json")
        assert a == b

    def test_random_effect_fits_start_at_the_homogeneous_fits(self, monkeypatch):
        calls = []
        original = estimation._maximize

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimation, "_maximize", counted)
        run_study(small_design(replications=3), FitOptions(quadrature_order=10))
        # full and intercept fits of (po, none) and (po, univariate), none
        # with a nested homogeneous Newton run
        assert len(calls) == 4 * 3

    def test_a_replication_finds_the_covariate_patterns_once(self, monkeypatch):
        """Every kernel of a replication's fits and empirical-Bayes
        predictions wants the covariate patterns (at any plane size, here),
        and the GoF's degrees of freedom count them: one np.unique of the
        covariate rows serves them all. The intercept fits see the counts
        alone, and find their distinct clusters with one np.unique of one
        key per cluster, kept for every later fit; the full fits need none,
        since the 48 clusters have 48 patterns."""
        monkeypatch.setattr(likelihood, "_SHARED_ELEMENTS", 0)
        calls, unique = [], np.unique

        def counted(ar, *args, **kwargs):
            calls.append(np.shape(ar))
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        design = small_design(
            true_params=study_true_parameters(1.5),
            fits=((PO, "none"), (PO, "univariate"), (ACL, "univariate")),
        )
        out = simulation._replicate(design, FitOptions(quadrature_order=10), 0)
        assert all(v["ok"] and v["icc"] > 0.0 for k, v in out.items() if k != "po:none")
        assert calls == [(48, 8), (48,)]

    def test_parallel_execution_matches_serial(self):
        design = small_design(replications=6)
        opts = FitOptions(quadrature_order=10)
        serial = render_tree(summary_tree(run_study(design, opts, workers=1)), "json")
        parallel = render_tree(summary_tree(run_study(design, opts, workers=3)), "json")
        assert serial == parallel

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_raise_before_any_work(self, monkeypatch, workers):
        calls = []
        monkeypatch.setattr(simulation, "_replicate", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_study(small_design(replications=2), FitOptions(quadrature_order=10), workers)
        assert calls == []

    def test_ci_rule_mean_pm_1p96_sd_over_sqrt_r(self):
        design = small_design(replications=5)
        summary = run_study(design, FitOptions(quadrature_order=10))
        model = summary.models[model_key(PO, "univariate")]
        for row in model.parameters:
            half = 1.96 * row.sd / np.sqrt(model.replications_used)
            assert row.ci_lower == pytest.approx(row.mean - half, abs=1e-12)
            assert row.ci_upper == pytest.approx(row.mean + half, abs=1e-12)

    def test_study_quality_error_on_mass_failure(self):
        # category 1 is essentially never observed: every replication is
        # degenerate and must be excluded, tripping the quality gate
        true = ParameterVector(
            fixed=FixedEffects(intercepts=[-9.0, -8.9], slopes=np.zeros(8)),
            re=NoRandomEffect(),
        )
        design = small_design(true_params=true, cluster_size=1, replications=5)
        with pytest.raises(StudyQualityError):
            run_study(design, FitOptions(quadrature_order=6))

    def test_generator_metadata_recorded(self):
        design = small_design(replications=2)
        summary = run_study(design, FitOptions(quadrature_order=8))
        assert summary.generator_link is PO
        assert summary.generator_re == "univariate"
        assert summary.seed == 5
        assert summary.replications == 2
        assert set(summary.models) == {"po:none", "po:univariate"}
