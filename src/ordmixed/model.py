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
random deviation A z may be added to the predictors, with z standard normal
and A the effect's (K-1, d) loading: none (d = 0), the same scalar in every
slot (univariate, A = sigma times ones) or one value per boundary (bivariate,
A the Cholesky factor, which requires K = 3 so that there is one component
per intercept).

All values here are immutable after construction and safe to share across
workers, except ``PlaneStack``, the scratch memory a likelihood kernel
keeps for one caller, and the caches a dataset fills on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import ClassVar, NamedTuple, Union

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


class _RandomEffectSpec:
    """What the three random-effect classes share: a cluster's K-1
    predictor offsets are A z, with z standard normal of ``dim`` components
    and A = ``loading(K-1)`` (MIXOR's Cholesky form, Hedeker & Gibbons 1994).
    A is linear in its free entries a, A = sum_e a_e E_e, with fixed
    patterns E_e: one shared entry sigma for a univariate effect, the
    Cholesky entries l11, l21, l22 for a bivariate one.

    ``names`` are the fields in reported order. The optimizer sees the
    names in ``correlations`` on the atanh scale and the others, standard
    deviations, on the log scale; the entries' derivatives are in those
    coordinates. ``n_boundaries``, when set, is the only K-1 the effect fits.
    """

    structure: ClassVar[str]
    names: ClassVar[tuple[str, ...]] = ()
    correlations: ClassVar[tuple[str, ...]] = ()
    dim: ClassVar[int] = 0
    n_boundaries: ClassVar[int | None] = None

    @classmethod
    def check_boundaries(cls, k1: int) -> None:
        if cls.n_boundaries not in (None, k1):
            raise ValueError(
                f"a {cls.structure} random effect requires exactly {cls.n_boundaries + 1} categories"
            )

    @classmethod
    def start(cls):
        """The default start: standard deviations 0.5, correlations 0."""
        return cls(**{name: 0.0 if name in cls.correlations else 0.5 for name in cls.names})

    def __post_init__(self):
        for name in self.names:
            v = getattr(self, name)
            if name in self.correlations:
                if not math.isfinite(v) or abs(v) > 1:
                    raise ValueError(f"{name} must lie in [-1, 1], got {v}")
            elif not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    def loading(self, k1: int) -> np.ndarray:
        """The loading A = sum_e a_e E_e, shape (K-1, dim), of K-1 predictor
        slots."""
        return np.tensordot(self.entries(), self.entry_patterns(k1), 1)

    # none without names; an effect with names overrides all four

    @classmethod
    def entry_patterns(cls, k1: int) -> np.ndarray:
        """The pattern E_e of each free entry of the loading, shape
        (E, K-1, dim): a one where the entry sits, zeros elsewhere."""
        return np.zeros((0, k1, cls.dim))

    def entries(self) -> np.ndarray:
        """The loading's free entries a, shape (E,)."""
        return np.zeros(0)

    def entry_derivatives(self) -> np.ndarray:
        """Derivatives of the entries with respect to each unconstrained
        coordinate, shape (E, T) for T names."""
        return np.zeros((0, len(self.names)))

    def entry_second_derivatives(self) -> np.ndarray:
        """Second derivatives of the entries with respect to each pair of
        unconstrained coordinates, shape (E, T, T)."""
        return np.zeros((0, len(self.names), len(self.names)))

    def latent_variance(self) -> tuple[float, np.ndarray]:
        """The cluster-level variance on the latent logistic scale, which
        the intraclass correlation reads, and its gradient in the names."""
        raise ValueError("intraclass correlation requires a random effect")


@dataclass(frozen=True)
class NoRandomEffect(_RandomEffectSpec):
    """Homogeneous clusters: no random deviation in the predictors."""

    structure: ClassVar[str] = "none"


@dataclass(frozen=True)
class UnivariateRandomEffect(_RandomEffectSpec):
    """One normal deviation per cluster, shared by every predictor slot:
    the loading is sigma times a column of ones."""

    structure: ClassVar[str] = "univariate"
    names: ClassVar[tuple[str, ...]] = ("sigma",)
    dim: ClassVar[int] = 1

    sigma: float

    @classmethod
    def entry_patterns(cls, k1: int) -> np.ndarray:
        return np.ones((1, k1, 1))

    def entries(self) -> np.ndarray:
        return np.array([self.sigma])

    # sigma is its own derivative in log sigma, to any order

    def entry_derivatives(self) -> np.ndarray:
        return np.array([[self.sigma]])

    def entry_second_derivatives(self) -> np.ndarray:
        return np.array([[[self.sigma]]])

    def latent_variance(self) -> tuple[float, np.ndarray]:
        return self.sigma**2, np.array([2.0 * self.sigma])


@dataclass(frozen=True)
class BivariateRandomEffect(_RandomEffectSpec):
    """One normal deviation per predictor slot (requires K = 3), with
    standard deviations sigma1, sigma2 and correlation rho. The loading is
    the covariance's lower-triangular Cholesky factor."""

    structure: ClassVar[str] = "bivariate"
    names: ClassVar[tuple[str, ...]] = ("sigma1", "sigma2", "rho")
    correlations: ClassVar[tuple[str, ...]] = ("rho",)
    dim: ClassVar[int] = 2
    n_boundaries: ClassVar[int | None] = 2

    sigma1: float
    sigma2: float
    rho: float

    @classmethod
    def entry_patterns(cls, k1: int) -> np.ndarray:
        cls.check_boundaries(k1)
        return np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])

    def entries(self) -> np.ndarray:
        """The factor's entries l11 = sigma1, l21 = rho sigma2 and
        l22 = sigma2 sqrt(1 - rho^2).

        For rho = +-1 the factor is rank deficient with l22 = 0 rather than
        an error, so perfectly correlated deviations remain representable.
        """
        s1, s2, rho = self.sigma1, self.sigma2, self.rho
        return np.array([s1, rho * s2, s2 * math.sqrt(max(0.0, 1.0 - rho**2))])

    def entry_derivatives(self) -> np.ndarray:
        """Derivatives with respect to log sigma1, log sigma2 and atanh rho,
        (3, 3). All stay finite at rho = +-1: the derivative of l22 with
        respect to atanh rho is -rho * sigma2 * sqrt(1 - rho^2), which
        vanishes there.
        """
        s1, s2, rho = self.sigma1, self.sigma2, self.rho
        root = math.sqrt(max(0.0, 1.0 - rho**2))
        return np.array(
            [
                [s1, 0.0, 0.0],
                [0.0, rho * s2, s2 * (1.0 - rho**2)],
                [0.0, s2 * root, -rho * s2 * root],
            ]
        )

    def entry_second_derivatives(self) -> np.ndarray:
        """Second derivatives, (3, 3, 3).

        l11 is sigma1 alone and l21, l22 are sigma2 times a function of rho.
        So twice in log sigma1, or in log sigma2, an entry's derivative
        repeats the entry's first derivative; log sigma2 with atanh rho
        repeats the first derivative in atanh rho; log sigma1 with either
        other parameter vanishes. All stay finite at rho = +-1, where every
        factor of sqrt(1 - rho^2) vanishes.
        """
        s2, rho = self.sigma2, self.rho
        first = self.entry_derivatives()
        root = math.sqrt(max(0.0, 1.0 - rho**2))
        second = np.zeros((3, 3, 3))
        second[0, 0, 0] = first[0, 0]
        second[1:, 1, 1] = first[1:, 1]
        second[1:, 1, 2] = second[1:, 2, 1] = first[1:, 2]
        second[1:, 2, 2] = [-2.0 * rho * s2 * (1.0 - rho**2), -s2 * root * (1.0 - 2.0 * rho**2)]
        return second

    def latent_variance(self) -> tuple[float, np.ndarray]:
        s1, s2, rho = self.sigma1, self.sigma2, self.rho
        gradient = np.array([2.0 * s1 + 2.0 * rho * s2, 2.0 * s2 + 2.0 * rho * s1, 2.0 * s1 * s2])
        return s1**2 + s2**2 + 2.0 * rho * s1 * s2, gradient


RandomEffect = Union[NoRandomEffect, UnivariateRandomEffect, BivariateRandomEffect]

# the public structure names, as ``fit`` and ``FitResult.re_structure`` spell them
RANDOM_EFFECTS = {
    effect.structure: effect
    for effect in (NoRandomEffect, UnivariateRandomEffect, BivariateRandomEffect)
}


def random_effect_class(structure: str) -> type:
    """The random-effect class a structure name stands for."""
    if structure not in RANDOM_EFFECTS:
        raise ValueError(f"unknown random-effect structure: {structure!r}")
    return RANDOM_EFFECTS[structure]


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
        if counts.dtype.kind not in "iu":  # not an integer array
            rounded = np.rint(counts)
            if not np.all(np.isfinite(counts)) or np.any(np.abs(rounded - counts) > 0):
                raise ValueError("counts must be integers")
            counts = rounded.astype(np.int64)
        # K values, checked as Python integers: cheaper than numpy's
        # reductions at this size, and their sum cannot wrap
        values = counts.tolist()
        if min(values) < 0:
            raise ValueError("counts must be non-negative")
        if sum(values) < 1:
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


class CovariatePatterns(NamedTuple):
    """The distinct covariate vectors of a dataset: ``first`` (m,) holds the
    index of the first cluster with each pattern, in the patterns' sorted
    order, and ``index`` (n,) each cluster's pattern, so that
    ``x[first][index]`` is the covariate matrix x."""

    first: np.ndarray
    index: np.ndarray


class DistinctClusters(NamedTuple):
    """A likelihood kernel's row layout (``Dataset.distinct_clusters``)."""

    first: np.ndarray
    multiplicity: np.ndarray
    index: np.ndarray
    pattern: np.ndarray
    starts: np.ndarray


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
    # the estimation layer's memo: by (link, has covariates), the estimates
    # at the homogeneous maximum, written by the first fit that reaches it
    homogeneous_maxima: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
            names = tuple(self.factor_names)
            if self.factor_levels is not None and len(names) != self.factor_levels.shape[1]:
                raise ValueError(
                    f"{len(names)} factor_names for {self.factor_levels.shape[1]} factor_levels columns"
                )
            object.__setattr__(self, "factor_names", names)

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

    @cached_property
    def log_coefficients(self) -> np.ndarray:
        """Each cluster's multinomial constant, log(N! / (y_1! ... y_K!)),
        computed once per dataset."""
        coefficients = log_multinomial_coefficients(self.count_matrix)
        coefficients.flags.writeable = False
        return coefficients

    @cached_property
    def covariate_patterns(self) -> CovariatePatterns:
        """The distinct covariate vectors among the clusters, from one
        ``np.unique`` per dataset: each pattern's first cluster and each
        cluster's pattern."""
        _, first, index = np.unique(
            self.covariate_matrix, axis=0, return_index=True, return_inverse=True
        )
        patterns = CovariatePatterns(first, index.reshape(-1))
        for a in patterns:
            a.flags.writeable = False
        return patterns

    @cached_property
    def _distinct(self) -> dict:
        """``distinct_clusters``' index, by whether the model has covariates."""
        return {}

    def distinct_clusters(self, covariates: bool = True) -> DistinctClusters:
        """The row layout of every likelihood kernel on this dataset, for a
        model on all of its covariates or on none; made on the first call
        and kept.

        Clusters with the same covariate pattern and the same counts add
        the same terms to every sum, so a kernel's rows are the distinct
        clusters, sorted by (pattern, counts), each weighted by its
        multiplicity wherever it enters a sum. A model without covariates
        sees only the counts, so all its rows have one pattern, 0. The
        arrays, read-only, are:

        - ``first`` (m,): a cluster of each row;
        - ``multiplicity`` (m,): how many clusters the row stands for;
        - ``index`` (n,): each cluster's row, so that
          ``count_matrix[first][index]`` is the count matrix;
        - ``pattern`` (m,): each row's covariate pattern, numbered 0 to
          P - 1 in the order of ``covariate_patterns``, so non-decreasing;
        - ``starts`` (P,): each pattern's first row.

        With covariates the rows come from one ``np.unique`` of a row per
        cluster, or straight from ``covariate_patterns`` when every cluster
        has a pattern of its own."""
        key = bool(covariates and self.n_covariates)
        if key not in self._distinct:
            if key and self.n_patterns == self.n_clusters:
                first, index = self.covariate_patterns
                multiplicity = np.ones(self.n_clusters, dtype=np.int64)
            else:
                counts = self.count_matrix
                if key:
                    counts = np.column_stack([self.covariate_patterns.index, counts])
                # one big-endian integer row per cluster, compared as bytes: the
                # sort of np.unique is then by pattern, then by counts
                rows = np.ascontiguousarray(counts, dtype=">i8")
                keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)
                _, first, index, multiplicity = np.unique(
                    keys, return_index=True, return_inverse=True, return_counts=True
                )
                index = index.reshape(-1)
            pattern = self.covariate_patterns.index[first] if key else np.zeros(len(first), dtype=np.intp)
            starts = np.flatnonzero(np.diff(pattern, prepend=-1))
            distinct = DistinctClusters(first, multiplicity, index, pattern, starts)
            for a in distinct:
                a.flags.writeable = False
            self._distinct[key] = distinct
        return self._distinct[key]

    @property
    def n_patterns(self) -> int:
        """The number of distinct covariate vectors among the clusters."""
        return len(self.covariate_patterns.first)

    @property
    def total_observations(self) -> int:
        return int(self.sizes.sum())

    def slope_names(self) -> tuple[str, ...]:
        if self.covariate_names is not None:
            return self.covariate_names
        return tuple(f"x{j + 1}" for j in range(self.n_covariates))


def log_multinomial_coefficients(counts: np.ndarray) -> np.ndarray:
    """log(N! / (y_1! ... y_K!)) along the last axis of an integer count
    array, looked up in a table of log k! = lgamma(k + 1) up to the largest
    total N."""
    totals = counts.sum(axis=-1)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(int(totals.max(initial=0)) + 1)])
    return log_factorial[totals] - log_factorial[counts].sum(axis=-1)


def _readonly_vector(values, name: str, allow_empty: bool = False) -> np.ndarray:
    arr = np.array(values, dtype=float)  # a copy the caller cannot write
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector")
    if arr.size == 0 and not allow_empty:
        raise ValueError(f"{name} must not be empty")
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"{name} must be finite")
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
    logp, feasible = log_category_probabilities(link, deltas)
    if not feasible.all():
        raise InfeasibleParametersError(
            "proportional-odds predictors must be non-decreasing across boundaries"
        )
    return np.exp(logp)


class SlotTerms(NamedTuple):
    """One link evaluation on slot-major predictors d of shape (K-1, ...).

    ``logp`` (K, ...) holds the K log category probabilities and ``score``
    (K-1, ...) the derivatives of sum_j y_j log p_j with respect to each
    predictor. ``curvature`` (P, ...) holds, for the boundary pairs (k, l),
    k <= l, of ``curvature_pairs(link, K-1)``, the second derivative of
    sum_j y_j log p_j with respect to predictors k and l; pairs whose
    second derivative is zero for the link are left out. Both are None
    when no counts were given. ``feasible`` is the proportional-odds
    feasibility mask, or None for the families that are feasible
    everywhere.
    """

    logp: np.ndarray
    feasible: np.ndarray | None
    score: np.ndarray | None
    curvature: np.ndarray | None = None


def curvature_pairs(link: LinkFamily, n_boundaries: int) -> tuple[tuple[int, int], ...]:
    """The boundary pairs (k, l), k <= l, whose curvature the link can make
    nonzero, in the order of ``SlotTerms.curvature``, row by row:
    proportional odds is tridiagonal, adjacent categories full and
    continuation ratio diagonal."""
    if link is LinkFamily.PROPORTIONAL_ODDS:
        return tuple((k, l) for k in range(n_boundaries) for l in (k, k + 1) if l < n_boundaries)
    if link is LinkFamily.ADJACENT_CATEGORIES:
        return tuple((k, l) for k in range(n_boundaries) for l in range(k, n_boundaries))
    return tuple((k, k) for k in range(n_boundaries))


class PlaneStack:
    """Scratch arrays of planes of one shape, handed out in order by
    ``take``.

    ``take()`` hands out one plane of shape ``shape``, ``take(m)`` a stack
    of m of them, shape (m, *shape); float and boolean ones are allocated
    on first use and kept. ``reset(rows)`` rewinds the stack, so the next
    ``take`` of each kind hands out the first one again, cut to its leading
    ``rows``: a caller that keeps a stack reuses the same memory on every
    pass, while a new stack is fresh memory. An array taken since the last
    reset is never handed out twice.
    """

    def __init__(self, shape):
        self.shape = tuple(shape)
        self.rows = self.shape[0]
        self._arrays: dict[tuple, list] = {}  # by (count, dtype)
        self._taken: dict[tuple, int] = {}

    def reset(self, rows: int) -> None:
        self.rows = rows
        self._taken.clear()

    def take(self, count: int | None = None, dtype=float) -> np.ndarray:
        key = (count, dtype)
        arrays, i = self._arrays.setdefault(key, []), self._taken.get(key, 0)
        if i == len(arrays):
            arrays.append(np.empty(self.shape if count is None else (count, *self.shape), dtype))
        self._taken[key] = i + 1
        if self.rows == self.shape[0]:
            return arrays[i]
        return arrays[i][: self.rows] if count is None else arrays[i][:, : self.rows]


def slot_terms(link: LinkFamily, d, counts=None) -> SlotTerms:
    """Log category probabilities, feasibility and, given counts, both the
    predictor score and its derivatives, in one pass over slot-major
    predictors, in fresh arrays: ``slot_stages`` run to its end on a new
    stack of planes.

    ``d`` (K-1, ...) holds one plane of predictors per boundary, and
    ``counts`` (K, ...) one plane of counts per category, broadcasting
    against a predictor plane. Every step of a link runs once over all
    boundaries, on the whole (K-1, ...) array, so neither the short
    category axis nor the boundary axis becomes an inner loop. Computed in
    log space, so large predictor magnitudes stay finite. With F the
    logistic function, N = sum_j y_j and C_k = P(Y <= k), the score is

    - proportional odds:    g_k = F'(d_k) (y_k / p_k - y_{k+1} / p_{k+1});
    - adjacent categories:  g_k = sum_{j<=k} y_j - N C_k;
    - continuation ratio:   g_k = y_k - F(d_k) sum_{j>=k} y_j;

    and its derivatives H_kl with respect to d_l are, from the same
    intermediates (F'' = F' (1 - 2F), and 1 - 2F(d) = -tanh(d / 2)),

    - proportional odds (tridiagonal):
      H_kk = F''_k (y_k / p_k - y_{k+1} / p_{k+1})
      - F'_k^2 (y_k / p_k^2 + y_{k+1} / p_{k+1}^2),
      H_{k,k+1} = F'_k F'_{k+1} y_{k+1} / p_{k+1}^2;
    - adjacent categories:  H_kl = -N (C_min(k,l) - C_k C_l);
    - continuation ratio (diagonal): H_kk = -F'(d_k) sum_{j>=k} y_j;

    stacked in the order of ``curvature_pairs``.

    Proportional-odds nodes that are infeasible carry garbage in ``logp``,
    ``score`` and ``curvature`` and False in ``feasible``; a
    proportional-odds category with zero probability (two equal predictors)
    has log-probability -inf, and a score and curvature that are finite
    where its count is 0 and not finite elsewhere.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        stages = slot_stages(link, d, counts, PlaneStack(np.shape(d[0])))
        values = next(stages)
        return values if counts is None else next(stages)


def slot_stages(
    link: LinkFamily,
    d,
    counts,
    work: PlaneStack,
    rows: np.ndarray | None = None,
    row_work: PlaneStack | None = None,
):
    """``slot_terms`` in two stages, as a generator of ``SlotTerms``, with
    every array the link writes, the returned ones included, taken from
    ``work``, a stack of planes shaped like ``d[k]`` (with ``rows``, of n
    rows). The first stage holds the log-probabilities and the feasibility
    alone, and the second, given counts, adds the score and its
    derivatives, in the first stage's arrays. The first stage also forms
    every count-free step that the derivatives read from the
    log-probabilities, so a caller may write over its ``logp`` (spent
    then in the second) before it asks for the second, and one that needs
    only the values never makes the rest of the derivatives. The caller
    handles the floating-point errors of ``slot_terms``' cases: run the
    stages with divide, invalid and overflow errors ignored.

    Shared predictor rows: with ``rows``, an index (n,) into the second
    axis of ``d``, the planes of ``d`` hold only the distinct predictor rows
    (m of them), and row i of the results is row ``rows[i]`` of ``d``
    evaluated with row i of the counts. Each link then runs its count-free
    steps once per distinct row, on planes taken from ``row_work`` (a stack
    of (m, ...) planes): the log-probabilities, the proportional-odds
    feasibility, F'/p ratios and tanh(-d/2), the adjacent-categories C_k,
    and the continuation-ratio F and F'. It expands them to the n rows with
    a take into planes of ``work`` only where the counts enter, and runs
    the remaining steps there as without ``rows``, so every result is the
    same bits as for ``d`` expanded to n rows first."""
    stacks = _Stacks(rows, work if rows is None else row_work, work)
    if link is LinkFamily.PROPORTIONAL_ODDS:
        return _terms_po(d, counts, stacks)
    if link is LinkFamily.ADJACENT_CATEGORIES:
        return _terms_acl(d, counts, stacks)
    if link is LinkFamily.CONTINUATION_RATIO:
        return _terms_cr(d, counts, stacks)
    raise ValueError(f"unknown link family: {link!r}")


class _Stacks(NamedTuple):
    """Where a link evaluation writes: ``free``, the stack for the
    count-free steps on the predictor rows, and ``work``, the stack for the
    rows of the counts, the same stack unless ``index`` (n,) maps the
    count rows to shared predictor rows."""

    index: np.ndarray | None
    free: PlaneStack
    work: PlaneStack

    def expand(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``a``, one plane or a stack of them over the predictor rows, at
        the count rows: ``a`` itself without an index, else a take of each
        plane into ``out`` or into planes taken from ``work``."""
        if self.index is None:
            return a
        plane = a.ndim == len(self.work.shape)
        if out is None:
            out = self.work.take(None if plane else len(a), a.dtype)
        # plane by plane, so that each output plane is contiguous and the
        # take writes it directly
        for src, dst in ((a, out),) if plane else zip(a, out):
            np.take(src, self.index, axis=0, out=dst, mode="clip")
        return out


def _log_logistic(z: np.ndarray, work: PlaneStack) -> tuple[np.ndarray, np.ndarray]:
    """log F(z) and log(1 - F(z)) for the logistic function F, for every
    plane of ``z`` at once, in two arrays taken from ``work``.

    With sp = softplus(z) = log(1 + e^z) these are z - sp and -sp; both are
    formed from the shared t = log(1 + e^-|z|), as min(z, 0) - t and
    -(max(z, 0) + t), so neither cancels z against sp when |z| is large.
    """
    t = np.copysign(z, -1.0, out=work.take(len(z)))  # -|z|
    np.exp(t, out=t)
    np.log1p(t, out=t)
    log_f = np.minimum(z, 0.0, out=work.take(len(z)))
    log_f -= t
    log_not_f = np.maximum(z, 0.0, out=work.take(len(z)))
    log_not_f += t
    np.negative(log_not_f, out=log_not_f)
    return log_f, log_not_f


# The arrays are large and the category axis short, so the link functions
# below write every result into an array taken from a stack, updating it
# in place rather than allocating a temporary per operation, and reuse
# scratch arrays whose values are spent; they never write to the predictor
# arrays they are given. Each runs its count-free steps on ``stacks.free``
# and expands their results with ``stacks.expand`` where the counts enter.
# Each is a generator of the two stages of ``slot_stages``: it yields the
# values, then, given counts, the values with the derivatives.


def _terms_po(d, y, stacks: _Stacks):
    # one softplus per predictor: log F, log(1 - F), log F' = their sum
    k1, free = len(d), stacks.free
    log_f, log_not_f = _log_logistic(d, free)
    logp = free.take(k1 + 1)
    np.copyto(logp[0], log_f[0])
    np.copyto(logp[k1], log_not_f[-1])
    feasible = None
    if k1 > 1:
        # log(F(b) - F(a)) = log F(b) + log(1 - F(a)) + log(1 - e^(a-b)) for b >= a
        middle = np.subtract(d[:-1], d[1:], out=logp[1:k1])
        np.exp(middle, out=middle)
        np.negative(middle, out=middle)
        np.log1p(middle, out=middle)
        middle += log_f[1:]
        middle += log_not_f[:-1]
        feasible, *others = np.greater_equal(d[1:], d[:-1], out=free.take(k1 - 1, bool))
        for ordered in others:
            feasible &= ordered
        feasible = stacks.expand(feasible)
    if y is not None:
        # F'/p_k for the category below each boundary and F'/p_{k+1} for
        # the one above, from log F' = log F + log(1 - F); at the ends
        # they reduce to 1 - F and F, whose logs log_not_f[0] and
        # log_f[-1] already hold, so the two arrays take the other
        # ratios in place
        log_density = np.add(log_f, log_not_f, out=free.take(k1))
        below, above = log_not_f, log_f
        np.subtract(log_density[1:], logp[1:k1], out=below[1:])
        np.subtract(log_density[:-1], logp[1:k1], out=above[:-1])
        np.exp(below, out=below)
        np.exp(above, out=above)
        hess = stacks.work.take(2 * k1 - 1)  # rows (k, k), (k, k+1) of curvature_pairs
        # 1 - 2 F(d_k), so that F''_k (...) = (1 - 2F_k) g_k
        tanh = np.multiply(d, -0.5, out=hess[::2] if stacks.index is None else log_density)
        np.tanh(tanh, out=tanh)
    logp = stacks.expand(logp)
    yield SlotTerms(logp, feasible, None)
    if y is None:
        return
    diagonal = stacks.expand(tanh, out=hess[::2])
    below, above = stacks.expand(below), stacks.expand(above)
    # every F'/p_j enters multiplied by y_j; where y_j = 0 it is set to 0,
    # so that a category of zero probability and zero count (two equal
    # predictors) adds 0, not 0 x inf, to the score and curvature
    empty = np.equal(y, 0)
    if empty.any():
        np.copyto(below, 0.0, where=empty[:-1])
        np.copyto(above, 0.0, where=empty[1:])
    # the curvature reads the ratios again, so the score gets its own array
    spare = log_density if stacks.index is None else stacks.work.take(k1)
    score = np.multiply(below, y[:-1], out=stacks.work.take(k1))
    score -= np.multiply(above, y[1:], out=spare)
    diagonal *= score
    t = np.square(below, out=spare)
    t *= y[:-1]
    diagonal -= t
    np.square(above, out=t)
    t *= y[1:]
    diagonal -= t
    off = np.multiply(above[:-1], below[1:], out=hess[1::2])
    off *= y[1:-1]
    yield SlotTerms(logp, feasible, score, hess)


def _terms_acl(d, y, stacks: _Stacks):
    # category k carries the partial sum of predictors k..K-1, category K zero
    k1, free = len(d), stacks.free
    sums = free.take(k1)
    np.copyto(sums[-1], d[-1])
    for k in range(k1 - 2, -1, -1):
        np.add(sums[k + 1], d[k], out=sums[k])
    m = np.maximum(sums[-1], 0.0, out=free.take())
    for s in sums[:-1]:
        np.maximum(m, s, out=m)
    # the scaled exponentials, whose array then takes the log-probabilities
    logp = free.take(k1 + 1)
    np.subtract(sums, m, out=logp[:k1])
    np.negative(m, out=logp[k1])
    np.exp(logp, out=logp)
    logz = np.add(logp[0], logp[1], out=free.take())
    for e in logp[2:]:
        logz += e
    np.log(logz, out=logz)
    logz += m
    np.subtract(sums, logz, out=logp[:k1])
    np.negative(logz, out=logp[k1])
    if y is not None:
        # C_k, from the probabilities of the categories at or below k
        cumulative = np.exp(logp[:-1], out=free.take(k1))
        for k in range(1, k1):
            cumulative[k] += cumulative[k - 1]
        # H_kl = -N C_k (1 - C_l) for k <= l, row k from C_k and -N (1 - C_l)
        factor = np.subtract(cumulative, 1.0, out=sums)
    logp = stacks.expand(logp)
    yield SlotTerms(logp, None, None)
    if y is None:
        return
    factor = stacks.expand(factor)
    cumulative = stacks.expand(cumulative)
    at_or_below = y[:-1].copy()
    for k in range(1, k1):
        at_or_below[k] += at_or_below[k - 1]
    size = at_or_below[-1] + y[-1]
    score = np.multiply(cumulative, -size, out=stacks.work.take(k1))
    score += at_or_below
    factor *= size
    hess = stacks.work.take(k1 * (k1 + 1) // 2)
    first = 0
    for k in range(k1):
        np.multiply(cumulative[k], factor[k:], out=hess[first : first + k1 - k])
        first += k1 - k
    yield SlotTerms(logp, None, score, hess)


def _terms_cr(d, y, stacks: _Stacks):
    # log P(stop at k | reached k) = log F(d_k), log P(continue) = log(1 - F(d_k))
    k1, free = len(d), stacks.free
    log_stop, log_continue = _log_logistic(d, free)
    if y is not None:
        # F'(d_k) = F (1 - F), before log_continue turns into survival
        density = np.add(log_stop, log_continue, out=free.take(k1))
        np.exp(density, out=density)
    survival = log_continue
    for k in range(1, k1):
        survival[k] += survival[k - 1]
    logp = free.take(k1 + 1)
    np.copyto(logp[0], log_stop[0])
    np.add(log_stop[1:], survival[:-1], out=logp[1:k1])
    np.copyto(logp[k1], survival[-1])
    logp = stacks.expand(logp)
    yield SlotTerms(logp, None, None)
    if y is None:
        return
    score = stacks.expand(np.exp(log_stop, out=log_stop))  # F(d_k), then the score
    reached = y[:-1].copy()  # sum_{j>=k} y_j, built from the top category down
    reached[-1] += y[-1]
    for k in range(k1 - 2, -1, -1):
        reached[k] += reached[k + 1]
    np.negative(reached, out=reached)
    score *= reached
    score += y[:-1]
    density = stacks.expand(density)
    density *= reached
    yield SlotTerms(logp, None, score, density)


def _slot_major(a: np.ndarray) -> np.ndarray:
    """An (..., m) array as m planes, each flattened over the leading axes."""
    return np.moveaxis(a, -1, 0).reshape(a.shape[-1], -1)


def log_category_probabilities(link: LinkFamily, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log category probabilities plus a feasibility mask.

    Returns ``(logp, feasible)`` where ``logp`` has shape ``(..., K)`` and
    ``feasible`` has shape ``(...,)``. Rows that are infeasible under
    proportional odds carry garbage in ``logp`` and False in the mask; the
    other families are feasible everywhere. A view of ``slot_terms`` with
    the boundary axis last.
    """
    deltas = np.asarray(deltas, dtype=float)
    lead = deltas.shape[:-1]
    terms = slot_terms(link, _slot_major(deltas))
    logp = np.moveaxis(terms.logp, 0, -1).reshape(lead + (-1,))
    if terms.feasible is None:
        return logp, np.ones(lead, dtype=bool)
    return logp, terms.feasible.reshape(lead)


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
