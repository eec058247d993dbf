"""Goodness-of-fit statistics: Pearson chi-square, the likelihood-ratio
comparison against the intercept-only model, AIC, and the intraclass
correlation with delta-method uncertainty.

Fitted counts for random-effect models use each cluster's empirical-Bayes
prediction (posterior mode by default), so the chi-square reflects
cluster-specific probabilities rather than the marginal average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import Z_95, FitResult, predict_random_effects
from .model import Dataset, LinkFamily, category_probabilities

LOGISTIC_VARIANCE = math.pi**2 / 3.0


class DegenerateCellError(ValueError):
    """An expected cell count is numerically zero."""

    def __init__(self, message: str, cells: list[tuple[int, int]]):
        super().__init__(message)
        self.cells = cells


class InconsistentFitsError(ValueError):
    """The nested fit has a higher log-likelihood than the full fit."""


@dataclass(frozen=True)
class GofReport:
    chi2: float
    chi2_df: int
    chi2_p: float
    C: float
    C_df: int
    C_p: float
    aic: float
    icc: float | None = None
    icc_se: float | None = None
    icc_p: float | None = None
    icc_ci: tuple[float, float] | None = None


def chi_squared_survival(x: float, df: int) -> float:
    """P(chi-square with df degrees of freedom exceeds x), for integer df.

    This is Q(df/2, x/2), the regularized upper incomplete gamma function,
    in closed form (Abramowitz & Stegun 1964, 26.4.4-26.4.5): by
    Q(a + 1, h) = Q(a, h) + h^a e^-h / a!, it is a finite sum of Poisson-like
    terms from a = 0 for even df, and from Q(1/2, h) = erfc(sqrt h) for odd df.
    """
    if df < 1 or df != int(df):
        raise ValueError(f"df must be an integer >= 1, got {df}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    half = x / 2.0
    a = 0.5 * (df % 2)
    total = math.erfc(math.sqrt(half)) if a else 0.0
    log_half = math.log(half)
    while a < df / 2.0:
        # each term in logs, so that neither h^a nor e^-h overflows alone
        total += math.exp(a * log_half - half - math.lgamma(a + 1.0))
        a += 1.0
    return total


def expected_counts(
    dataset: Dataset, fit: FitResult, link: LinkFamily, prediction: str = "mode"
) -> np.ndarray:
    """Fitted counts per (cluster, category) cell: cluster size times the
    fitted category probabilities, at zero deviation for homogeneous fits
    and at the empirical-Bayes prediction otherwise. ``prediction``, the
    ``predict_random_effects`` method, is checked for both kinds of fit."""
    if prediction not in ("mode", "mean"):
        raise ValueError(f"unknown prediction method: {prediction!r}")
    fe = fit.estimates.fixed
    eta = dataset.covariate_matrix @ fe.slopes if fe.slopes.size else 0.0
    deltas = fe.intercepts[None, :] + np.atleast_1d(eta)[:, None]
    if fit.estimates.re.dim:
        deltas = deltas + predict_random_effects(
            dataset, fit.estimates, link, method=prediction
        )
    probs = category_probabilities(link, deltas)
    return dataset.sizes[:, None] * probs


def pearson_chi2(
    dataset: Dataset, fit: FitResult, link: LinkFamily, prediction: str = "mode"
) -> tuple[float, int, float]:
    """Pearson chi-square over all (cluster, category) cells.

    Degrees of freedom are (K - 1) times the number of distinct covariate
    patterns minus the number of fixed-effect parameters only; variance
    components do not enter the count. A saturated design, with fewer than
    one degree of freedom, has no reference distribution: its p-value is
    NaN.
    """
    observed = dataset.count_matrix
    expected = expected_counts(dataset, fit, link, prediction)
    tiny = expected < 1e-10
    if np.any(tiny):
        cells = [(int(i), int(k)) for i, k in zip(*np.nonzero(tiny))]
        raise DegenerateCellError(
            f"{len(cells)} expected cell counts are numerically zero", cells
        )
    statistic = float(((observed - expected) ** 2 / expected).sum())
    df = (dataset.n_categories - 1) * dataset.n_patterns - fit.n_fixed_parameters
    return statistic, df, chi_squared_survival(statistic, df) if df >= 1 else math.nan


def likelihood_ratio_C(full: FitResult, intercept: FitResult) -> tuple[float, int, float]:
    """Twice the log-likelihood gain of the fitted model over its
    intercept-only counterpart with the same random-effect structure."""
    if full.link is not intercept.link or full.re_structure != intercept.re_structure:
        raise InconsistentFitsError(
            "intercept model must share the link and random-effect structure"
        )
    statistic = 2.0 * (full.loglik - intercept.loglik)
    if statistic < -1e-6:
        raise InconsistentFitsError(
            f"intercept model log-likelihood exceeds the full model by {-statistic / 2:g}"
        )
    statistic = max(statistic, 0.0)
    df = full.n_fixed_parameters - intercept.n_fixed_parameters
    if df < 0:
        raise InconsistentFitsError(
            "the comparison model has more fixed-effect parameters than the full model"
        )
    if df == 0:
        # nothing was freed: the reference chi-square is degenerate at zero
        return statistic, df, 1.0 if statistic <= 1e-9 else 0.0
    return statistic, df, chi_squared_survival(statistic, df)


def aic(fit: FitResult) -> float:
    """-2 log-likelihood plus twice the number of estimated parameters,
    variance components included."""
    return -2.0 * fit.loglik + 2.0 * fit.n_parameters


def icc(re, covariance: np.ndarray | None = None):
    """Intraclass correlation v / (v + pi^2 / 3) with v the cluster-level
    variance, plus its delta-method standard error when the fit covariance
    of the variance components is supplied.

    ``covariance`` is the reported-scale covariance of (sigma,) for a
    univariate effect or (sigma1, sigma2, rho) for a bivariate one. When it
    is missing the SE, p-value, and interval are returned as None.
    """
    v, dv_dnames = re.latent_variance()
    value = v / (v + LOGISTIC_VARIANCE)
    if covariance is None:
        return value, None, None, None
    cov = np.atleast_2d(np.asarray(covariance, dtype=float))
    dv = LOGISTIC_VARIANCE / (v + LOGISTIC_VARIANCE) ** 2
    grad = dv_dnames * dv
    if cov.shape != (grad.size, grad.size):
        raise ValueError(
            f"covariance block has shape {cov.shape}, expected {(grad.size, grad.size)}"
        )
    se = float(np.sqrt(max(grad @ cov @ grad, 0.0)))
    if se > 0:
        z = value / se
        p = float(math.erfc(abs(z) / math.sqrt(2.0)))
    else:
        p = float("nan")
    return value, se, p, (value - Z_95 * se, value + Z_95 * se)


def variance_component_covariance(fit: FitResult) -> np.ndarray | None:
    """Reported-scale covariance block of the variance components, the
    parameters after the fixed effects; None as well when a standard
    deviation is on its bound, where the fit reports it with no standard
    error (``FitResult``), so the delta method has no meaning there."""
    if fit.covariance is None or fit.n_parameters == fit.n_fixed_parameters:
        return None
    correlations = fit.estimates.re.correlations
    if any(name not in correlations for name in fit.diagnostics.get("boundary", ())):
        return None
    return fit.covariance[fit.n_fixed_parameters :, fit.n_fixed_parameters :]


def gof_report(
    dataset: Dataset,
    fit: FitResult,
    intercept: FitResult,
    prediction: str = "mode",
) -> GofReport:
    """Assemble the full goodness-of-fit panel for a fitted model."""
    chi2, chi2_df, chi2_p = pearson_chi2(dataset, fit, fit.link, prediction)
    c_stat, c_df, c_p = likelihood_ratio_C(fit, intercept)
    aic_value = aic(fit)
    if not fit.estimates.re.dim:
        return GofReport(chi2, chi2_df, chi2_p, c_stat, c_df, c_p, aic_value)
    value, se, p, ci = icc(fit.estimates.re, variance_component_covariance(fit))
    return GofReport(
        chi2, chi2_df, chi2_p, c_stat, c_df, c_p, aic_value,
        icc=value, icc_se=se, icc_p=p, icc_ci=ci,
    )
