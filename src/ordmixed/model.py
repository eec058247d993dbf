"""Core data model: ordinal link families, effects, clusters, datasets.

An outcome falls in one of K ordered categories. Category probabilities are
driven by K-1 linear predictors, one per category boundary, and a link
family that fixes which log-odds each predictor equals:

- proportional odds:    predictor k is the log-odds of falling at or below
  category k versus above it (cumulative logit);
- adjacent categories:  predictor k is the log-odds of category k versus
  category k+1;
- continuation ratio:   predictor k is the log-odds of category k versus
  any higher category.

Observations come in clusters that share a covariate vector. A cluster-level
random deviation may be added to the predictors: the same scalar in every
slot (univariate) or one value per boundary (bivariate, which requires
K = 3 so that there is one component per intercept).

All values here are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Union

import numpy as np


class InfeasibleParametersError(ValueError):
    """Raised when proportional-odds predictors imply decreasing cumulative
    probabilities. The likelihood layer treats this region as -inf."""


class LinkFamily(Enum):
    PROPORTIONAL_ODDS = "po"
    ADJACENT_CATEGORIES = "acl"
    CONTINUATION_RATIO = "crl"

    @classmethod
    def from_name(cls, name: str) -> "LinkFamily":
        for member in cls:
            if name in (member.value, member.name.lower()):
                return member
        raise ValueError(f"unknown link family: {name!r}")


@dataclass(frozen=True)
class FixedEffects:
    """Boundary intercepts (length K-1) and shared slopes (length p-1)."""

    intercepts: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "intercepts", _readonly_vector(self.intercepts, "intercepts"))
        object.__setattr__(self, "slopes", _readonly_vector(self.slopes, "slopes", allow_empty=True))
        if self.intercepts.size < 1:
            raise ValueError("at least one intercept is required (K >= 2)")

    @property
    def n_categories(self) -> int:
        return self.intercepts.size + 1


@dataclass(frozen=True)
class NoRandomEffect:
    """Homogeneous clusters: no random deviation in the predictors."""


@dataclass(frozen=True)
class UnivariateRandomEffect:
    """One normal deviation per cluster, shared by every predictor slot."""

    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class BivariateRandomEffect:
    """One normal deviation per predictor slot (requires K = 3), with
    standard deviations sigma1, sigma2 and correlation rho."""

    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        for name in ("sigma1", "sigma2"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not np.isfinite(self.rho) or abs(self.rho) > 1:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")

    def covariance(self) -> np.ndarray:
        off = self.rho * self.sigma1 * self.sigma2
        return np.array([[self.sigma1**2, off], [off, self.sigma2**2]])

    def cholesky_factor(self) -> np.ndarray:
        """Lower-triangular factor L with L L' equal to the covariance.

        For rho = +-1 the factor is rank deficient with a zero second
        column rather than an error, so perfectly correlated deviations
        remain representable.
        """
        l22 = self.sigma2 * np.sqrt(max(0.0, 1.0 - self.rho**2))
        return np.array([[self.sigma1, 0.0], [self.rho * self.sigma2, l22]])

    def cholesky_derivatives(self) -> np.ndarray:
        """Derivatives of ``cholesky_factor()`` with respect to log sigma1,
        log sigma2 and atanh rho, stacked along the first axis (3, 2, 2).

        All stay finite at rho = +-1: the derivative of l22 with respect to
        atanh rho is -rho * sigma2 * sqrt(1 - rho^2), which vanishes there.
        """
        s1, s2, rho = self.sigma1, self.sigma2, self.rho
        root = np.sqrt(max(0.0, 1.0 - rho**2))
        return np.array(
            [
                [[s1, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [rho * s2, s2 * root]],
                [[0.0, 0.0], [s2 * (1.0 - rho**2), -rho * s2 * root]],
            ]
        )


RandomEffect = Union[NoRandomEffect, UnivariateRandomEffect, BivariateRandomEffect]


@dataclass(frozen=True)
class ParameterVector:
    """Complete parameter set: fixed effects plus a random-effect spec."""

    fixed: FixedEffects
    re: RandomEffect = field(default_factory=NoRandomEffect)


@dataclass(frozen=True)
class Cluster:
    """A group of observations sharing covariates and a random effect.

    ``counts[k]`` is the number of observations landing in category k+1;
    ``covariates`` is the shared covariate vector (length p-1).
    """

    covariates: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "covariates", _readonly_vector(self.covariates, "covariates", allow_empty=True))
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.size < 2:
            raise ValueError("counts must be a vector of length K >= 2")
        if not np.issubdtype(counts.dtype, np.integer):
            rounded = np.rint(counts)
            if not np.all(np.isfinite(counts)) or np.any(np.abs(rounded - counts) > 0):
                raise ValueError("counts must be integers")
            counts = rounded.astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if counts.sum() < 1:
            raise ValueError("cluster must contain at least one observation")
        counts = counts.astype(np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def size(self) -> int:
        return int(self.counts.sum())

    @property
    def n_categories(self) -> int:
        return self.counts.size


@dataclass(frozen=True)
class Dataset:
    """A collection of clusters sharing K and the covariate dimension.

    ``factor_names``/``factor_levels`` keep the original factor coding when
    the dataset came from a tabular file or a factorial design, so it can be
    written back out unchanged.
    """

    clusters: tuple[Cluster, ...]
    covariate_names: tuple[str, ...] | None = None
    factor_names: tuple[str, ...] | None = None
    factor_levels: np.ndarray | None = None

    def __post_init__(self):
        clusters = tuple(self.clusters)
        if not clusters:
            raise ValueError("dataset must contain at least one cluster")
        k = clusters[0].n_categories
        p = clusters[0].covariates.size
        for i, c in enumerate(clusters):
            if c.n_categories != k:
                raise ValueError(f"cluster {i} has {c.n_categories} categories, expected {k}")
            if c.covariates.size != p:
                raise ValueError(f"cluster {i} has {c.covariates.size} covariates, expected {p}")
        object.__setattr__(self, "clusters", clusters)
        if self.covariate_names is not None:
            names = tuple(self.covariate_names)
            if len(names) != p:
                raise ValueError("covariate_names length must match the covariate dimension")
            object.__setattr__(self, "covariate_names", names)
        if self.factor_levels is not None:
            levels = np.asarray(self.factor_levels, dtype=np.int64)
            if levels.ndim != 2 or levels.shape[0] != len(clusters):
                raise ValueError("factor_levels must have one row per cluster")
            levels.flags.writeable = False
            object.__setattr__(self, "factor_levels", levels)
        if self.factor_names is not None:
            object.__setattr__(self, "factor_names", tuple(self.factor_names))

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n_categories(self) -> int:
        return self.clusters[0].n_categories

    @property
    def n_covariates(self) -> int:
        return self.clusters[0].covariates.size

    @cached_property
    def covariate_matrix(self) -> np.ndarray:
        x = np.stack([c.covariates for c in self.clusters])
        x.flags.writeable = False
        return x

    @cached_property
    def count_matrix(self) -> np.ndarray:
        y = np.stack([c.counts for c in self.clusters])
        y.flags.writeable = False
        return y

    @cached_property
    def sizes(self) -> np.ndarray:
        n = self.count_matrix.sum(axis=1)
        n.flags.writeable = False
        return n

    @property
    def total_observations(self) -> int:
        return int(self.sizes.sum())

    def slope_names(self) -> tuple[str, ...]:
        if self.covariate_names is not None:
            return self.covariate_names
        return tuple(f"x{j + 1}" for j in range(self.n_covariates))


def _readonly_vector(values, name: str, allow_empty: bool = False) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector")
    if arr.size == 0 and not allow_empty:
        raise ValueError(f"{name} must not be empty")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def linear_predictors(fixed: FixedEffects, x: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Boundary predictors: intercept k plus the covariate contribution plus
    the random deviation in slot k.

    Univariate callers pass the same deviation in every slot; homogeneous
    callers pass zeros.
    """
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x.shape != (fixed.slopes.size,):
        raise ValueError(f"covariate vector has shape {x.shape}, expected ({fixed.slopes.size},)")
    if eps.shape != (fixed.intercepts.size,):
        raise ValueError(f"random-effect vector has shape {eps.shape}, expected ({fixed.intercepts.size},)")
    return fixed.intercepts + float(x @ fixed.slopes) + eps


def category_probabilities(link: LinkFamily, deltas: np.ndarray) -> np.ndarray:
    """Invert the link: map K-1 boundary predictors to K category
    probabilities. Accepts batches along leading axes.

    Proportional odds requires non-decreasing predictors (equivalently,
    non-decreasing cumulative probabilities); violations raise
    InfeasibleParametersError instead of being clamped so that the
    likelihood can treat the proposal as -inf.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape[-1] < 1:
        raise ValueError("need at least one predictor (K >= 2)")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("predictors must be finite")
    if link is LinkFamily.PROPORTIONAL_ODDS:
        if not np.all(np.diff(deltas, axis=-1) >= 0.0):
            raise InfeasibleParametersError(
                "proportional-odds predictors must be non-decreasing across boundaries"
            )
        gamma = _expit(deltas)
        shape = deltas.shape[:-1]
        cum = np.concatenate(
            [np.zeros(shape + (1,)), gamma, np.ones(shape + (1,))], axis=-1
        )
        return np.diff(cum, axis=-1)
    logp, _ = log_category_probabilities(link, deltas)
    return np.exp(logp)


def log_category_probabilities(link: LinkFamily, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log category probabilities plus a feasibility mask.

    Returns ``(logp, feasible)`` where ``logp`` has shape ``(..., K)`` and
    ``feasible`` has shape ``(...,)``. Rows that are infeasible under
    proportional odds carry garbage in ``logp`` and False in the mask; the
    other families are feasible everywhere. Computed in log space so that
    large predictor magnitudes stay finite.
    """
    deltas = np.asarray(deltas, dtype=float)
    if link is LinkFamily.PROPORTIONAL_ODDS:
        return _log_probs_po(deltas)
    if link is LinkFamily.ADJACENT_CATEGORIES:
        return _log_probs_acl(deltas)
    if link is LinkFamily.CONTINUATION_RATIO:
        return _log_probs_cr(deltas)
    raise ValueError(f"unknown link family: {link!r}")


def _expit(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_probs_po(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    feasible = np.all(np.diff(d, axis=-1) >= 0.0, axis=-1)
    first = -np.logaddexp(0.0, -d[..., :1])
    last = -np.logaddexp(0.0, d[..., -1:])
    if d.shape[-1] > 1:
        a, b = d[..., :-1], d[..., 1:]
        # log(expit(b) - expit(a)) for b >= a, stable for large magnitudes
        with np.errstate(divide="ignore", invalid="ignore"):
            mid = b - np.logaddexp(0.0, a) - np.logaddexp(0.0, b) + np.log1p(-np.exp(a - b))
        logp = np.concatenate([first, mid, last], axis=-1)
    else:
        logp = np.concatenate([first, last], axis=-1)
    return logp, feasible


def _log_probs_acl(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # category k carries the partial sum of predictors k..K-1, category K zero
    s = np.cumsum(d[..., ::-1], axis=-1)[..., ::-1]
    s = np.concatenate([s, np.zeros(d.shape[:-1] + (1,))], axis=-1)
    m = s.max(axis=-1, keepdims=True)
    logz = m + np.log(np.exp(s - m).sum(axis=-1, keepdims=True))
    logp = s - logz
    return logp, np.ones(d.shape[:-1], dtype=bool)


def _log_probs_cr(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    log_h = -np.logaddexp(0.0, -d)  # log P(stop at k | reached k)
    log_c = -np.logaddexp(0.0, d)  # log P(continue past k | reached k)
    surv = np.cumsum(log_c, axis=-1)
    logp = np.concatenate(
        [log_h[..., :1], log_h[..., 1:] + surv[..., :-1], surv[..., -1:]], axis=-1
    )
    return logp, np.ones(d.shape[:-1], dtype=bool)


def predictor_score(
    link: LinkFamily, deltas: np.ndarray, logp: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Derivative of the count log-likelihood sum_j y_j log p_j with respect
    to each of the K-1 boundary predictors, shape (..., K-1).

    ``logp`` comes from log_category_probabilities at ``deltas``; ``counts``
    broadcasts against it. With F the logistic function:

    - proportional odds:    g_k = F'(d_k) (y_k / p_k - y_{k+1} / p_{k+1});
    - adjacent categories:  g_k = sum_{j<=k} y_j - N P(Y <= k);
    - continuation ratio:   g_k = y_k - F(d_k) sum_{j>=k} y_j.

    Rows infeasible under proportional odds carry garbage, as in ``logp``;
    so does a proportional-odds category with zero probability (two equal
    predictors).
    """
    deltas = np.asarray(deltas, dtype=float)
    if link is LinkFamily.PROPORTIONAL_ODDS:
        # log F'(d) = -|d| - 2 log(1 + e^-|d|); F'(d) / p is formed in log
        # space, so it stays bounded unless p -> 0
        u = -np.abs(deltas)
        log_density = u - 2.0 * np.log1p(np.exp(u))
        with np.errstate(over="ignore", invalid="ignore"):
            score = counts[..., :-1] * np.exp(log_density - logp[..., :-1])
            score -= counts[..., 1:] * np.exp(log_density - logp[..., 1:])
        return score
    if link is LinkFamily.ADJACENT_CATEGORIES:
        at_or_below = np.cumsum(counts, axis=-1)[..., :-1]
        size = counts.sum(axis=-1, keepdims=True)
        return at_or_below - size * np.cumsum(np.exp(logp[..., :-1]), axis=-1)
    if link is LinkFamily.CONTINUATION_RATIO:
        reached = np.cumsum(counts[..., ::-1], axis=-1)[..., :0:-1]
        with np.errstate(over="ignore"):
            stop = 1.0 / (1.0 + np.exp(-deltas))  # F(d), exactly 0 below -709
        return counts[..., :-1] - stop * reached
    raise ValueError(f"unknown link family: {link!r}")


def recover_predictors(link: LinkFamily, probs: np.ndarray) -> np.ndarray:
    """Apply the defining log-odds to probabilities, recovering the
    predictors. Used as the inverse check for category_probabilities."""
    probs = np.asarray(probs, dtype=float)
    if link is LinkFamily.PROPORTIONAL_ODDS:
        cum = np.cumsum(probs[..., :-1], axis=-1)
        return np.log(cum) - np.log1p(-cum)
    if link is LinkFamily.ADJACENT_CATEGORIES:
        return np.log(probs[..., :-1]) - np.log(probs[..., 1:])
    if link is LinkFamily.CONTINUATION_RATIO:
        tail = np.cumsum(probs[..., ::-1], axis=-1)[..., ::-1]
        return np.log(probs[..., :-1]) - np.log(tail[..., 1:])
    raise ValueError(f"unknown link family: {link!r}")
