"""Conditional and marginal log-likelihoods for clustered ordinal counts.

Each cluster contributes a multinomial term (coefficient included) at its
category probabilities. With a random effect present, the cluster term is
integrated over the normal law by Gauss-Hermite quadrature and combined with
log-sum-exp stabilization, so large predictor magnitudes cannot overflow.
Infeasible proportional-odds proposals contribute zero mass at the offending
nodes and -inf when no node is feasible.

The score of the marginal log-likelihood is the posterior-weighted average
of the conditional score over the nodes (the Fisher identity), so one pass
over the node arrays yields the value and the score together.

``LoglikKernel`` lays the predictors out slot-major: an array of shape
(K-1, n, Q) whose leading axis is the category boundary, so each boundary
is one contiguous (n, Q) plane of clusters by nodes. ``model.slot_terms``
evaluates a link on those planes, giving K log-probability planes and K-1
score planes; the counts, stored as (K, n, 1), weight them plane by plane,
and the posterior contractions are matrix-vector products over the node
and cluster axes. No array with a short trailing category axis is built.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .model import (
    BivariateRandomEffect,
    Cluster,
    Dataset,
    LinkFamily,
    NoRandomEffect,
    ParameterVector,
    UnivariateRandomEffect,
    log_category_probabilities,  # noqa: F401  (instrumentation looks the link layer up here)
    slot_terms,
)
from .quadrature import QuadratureRule1D, QuadratureRule2D


def _log_coefficients(counts: np.ndarray) -> np.ndarray:
    """log(N! / (y_1! ... y_K!)) along the last axis of a count array."""
    return gammaln(counts.sum(axis=-1) + 1.0) - gammaln(counts + 1.0).sum(axis=-1)


def multinomial_log_coefficient(counts: np.ndarray) -> float:
    """log(N! / (y_1! ... y_K!)) for one cluster's counts."""
    return float(_log_coefficients(np.asarray(counts)))


def conditional_cluster_loglik(cluster: Cluster, probs: np.ndarray) -> float:
    """Multinomial log mass of the cluster's counts at the given category
    probabilities, with the 0 * log 0 convention; -inf when a category with
    positive count has zero probability."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != cluster.counts.shape:
        raise ValueError("probability vector does not match the cluster's category count")
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.log(probs)
        terms = np.where(cluster.counts > 0, cluster.counts * logp, 0.0)
    return multinomial_log_coefficient(cluster.counts) + float(terms.sum())


class MarginalScore(NamedTuple):
    """Summed marginal log-likelihood and its score per predictor slot.

    ``posterior`` (n, Q) holds each cluster's posterior weights over the
    nodes; ``slot_score`` (n, K-1) is the posterior average of each
    cluster's conditional score with respect to its boundary predictors;
    ``node_score`` (Q, K-1) is the same posterior-weighted score summed over
    clusters at each node, which the chain rule through the node offsets
    needs.
    """

    loglik: float
    posterior: np.ndarray
    slot_score: np.ndarray
    node_score: np.ndarray


class LoglikKernel:
    """Vectorized per-cluster log-likelihood evaluation for one dataset.

    Precomputes the counts, stored slot-major as (K, n, 1) so that each
    category's counts broadcast against an (n, Q) predictor plane, and the
    multinomial coefficients once; the estimation layer then calls
    ``marginal_and_score`` thousands of times with different parameter
    proposals. ``covariates`` replaces the dataset's covariate matrix by
    another with the same rows, such as a subset of its columns.
    """

    def __init__(self, dataset: Dataset, link: LinkFamily, covariates: np.ndarray | None = None):
        self.link = link
        if covariates is None:
            self.x = dataset.covariate_matrix
        else:
            self.x = np.asarray(covariates, dtype=float)
            if self.x.ndim != 2 or self.x.shape[0] != dataset.n_clusters:
                raise ValueError("covariates must have one row per cluster")
        counts = dataset.count_matrix
        self.y = counts.astype(float)
        self.log_coef = _log_coefficients(counts)
        self.n_boundaries = dataset.n_categories - 1
        self._counts = np.ascontiguousarray(self.y.T)[:, :, None]
        # the clusters with no count in each category, where 0 log 0 = 0
        # overrides a log-probability of -inf
        self._empty = [np.flatnonzero(column == 0) for column in counts.T]

    def _predictors(self, intercepts, slopes, offsets) -> np.ndarray:
        """Slot-major predictors (K-1, n, Q): boundary plane k holds
        intercept k plus the covariate term plus ``offsets``, which
        broadcasts against (K-1, n, Q)."""
        base = np.asarray(intercepts, dtype=float)[:, None] + (self.x @ slopes)[None, :]
        return base[:, :, None] + offsets

    @staticmethod
    def _node_offsets(node_offsets) -> np.ndarray:
        node_offsets = np.asarray(node_offsets, dtype=float)
        return node_offsets if node_offsets.ndim == 1 else node_offsets.T[:, None, :]

    def _count_loglik(self, terms) -> np.ndarray:
        """sum_j y_j log p_j over the category planes, with 0 log 0 = 0;
        -inf at infeasible nodes."""
        logp = terms.logp
        with np.errstate(invalid="ignore"):
            ll = self._counts[0] * logp[0]
            ll[self._empty[0]] = 0.0
            term = np.empty_like(ll)
            for j in range(1, len(logp)):
                np.multiply(self._counts[j], logp[j], out=term)
                term[self._empty[j]] = 0.0
                ll += term
        if terms.feasible is not None and not terms.feasible.all():
            ll = np.where(terms.feasible, ll, -np.inf)
        return ll

    def conditional(self, intercepts: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        """Per-cluster conditional log-likelihood at zero random effect."""
        return self.conditional_at(intercepts, slopes, None)

    def conditional_at(self, intercepts, slopes, offsets) -> np.ndarray:
        """Per-cluster conditional log-likelihood with per-cluster predictor
        offsets of shape (n,), (n, K-1), or None for zeros."""
        if offsets is None:
            offsets = 0.0
        else:
            offsets = np.asarray(offsets, dtype=float)
            offsets = offsets[:, None] if offsets.ndim == 1 else offsets.T[:, :, None]
        deltas = self._predictors(intercepts, slopes, offsets)
        return self._count_loglik(slot_terms(self.link, deltas))[:, 0] + self.log_coef

    def node_logliks(self, intercepts, slopes, node_offsets) -> np.ndarray:
        """Conditional log-likelihood of every cluster at every offset node,
        shape (n, Q), without the multinomial constant.

        ``node_offsets`` has shape (Q,) for a shared deviation or (Q, K-1)
        for slot-wise deviations.
        """
        deltas = self._predictors(intercepts, slopes, self._node_offsets(node_offsets))
        return self._count_loglik(slot_terms(self.link, deltas))

    @staticmethod
    def _integrate(ll: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Log-sum-exp over nodes: per-cluster log of sum_q w_q exp(ll_q)
        without the multinomial constant, the shifted node masses, and
        their weighted sums."""
        m = ll.max(axis=1, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        mass = np.subtract(ll, m)
        np.exp(mass, out=mass)
        total = mass @ weights
        with np.errstate(divide="ignore"):
            out = np.log(total) + m[:, 0]
        return out, mass, total

    def marginal(self, intercepts, slopes, node_offsets, weights) -> np.ndarray:
        """Per-cluster marginal log-likelihood over quadrature nodes, with
        log-sum-exp stabilization. ``weights`` has shape (Q,)."""
        ll = self.node_logliks(intercepts, slopes, node_offsets)
        return self._integrate(ll, weights)[0] + self.log_coef

    def marginal_and_score(self, intercepts, slopes, node_offsets, weights) -> MarginalScore:
        """Summed marginal log-likelihood with the posterior weights and the
        node-averaged score per slot, in one pass over the node arrays.

        Takes the arguments of ``marginal``; a model without a random
        effect is one node at 0 with weight 1. The score with respect to
        any parameter follows by the chain rule: intercept k from column k
        of ``slot_score`` summed over clusters, slopes from X' times its row
        sums, node-offset parameters from ``node_score``. Infeasible nodes
        get zero posterior weight and contribute nothing to the score.
        """
        weights = np.asarray(weights, dtype=float)
        deltas = self._predictors(intercepts, slopes, self._node_offsets(node_offsets))
        terms = slot_terms(self.link, deltas, self._counts)
        out, mass, total = self._integrate(self._count_loglik(terms), weights)
        loglik = float((out + self.log_coef).sum())
        infeasible = terms.feasible is not None and not terms.feasible.all()
        slot_score = np.empty((mass.shape[0], self.n_boundaries))
        node_score = np.empty((mass.shape[1], self.n_boundaries))
        # a cluster with no feasible node has total 0 and a -inf loglik
        with np.errstate(divide="ignore", invalid="ignore"):
            posterior = mass * (weights[None, :] / total[:, None])
            inverse_total = 1.0 / total
            for k, weighted in enumerate(terms.score):
                if infeasible:
                    weighted[~terms.feasible] = 0.0
                weighted *= mass
                # posterior-weighted sums over nodes and over clusters, as
                # matrix-vector products instead of reductions over short axes
                slot_score[:, k] = (weighted @ weights) * inverse_total
                node_score[:, k] = weights * (inverse_total @ weighted)
        return MarginalScore(loglik, posterior, slot_score, node_score)


def _node_offsets(params: ParameterVector, rule) -> tuple[np.ndarray, np.ndarray]:
    re = params.re
    if isinstance(re, UnivariateRandomEffect):
        if not isinstance(rule, QuadratureRule1D):
            raise ValueError("univariate random effect requires a 1-d quadrature rule")
        return re.sigma * rule.nodes, rule.weights
    if isinstance(re, BivariateRandomEffect):
        if not isinstance(rule, QuadratureRule2D):
            raise ValueError("bivariate random effect requires a 2-d quadrature rule")
        return rule.nodes, rule.weights
    raise ValueError("no random effect: use the conditional likelihood directly")


def marginal_cluster_loglik(
    cluster: Cluster, params: ParameterVector, link: LinkFamily, rule
) -> float:
    """Cluster log-likelihood with the random effect integrated out.

    For a univariate effect the scaled node enters every predictor slot
    identically; for a bivariate effect the (pre-scaled) node pair enters
    slot-wise. The bivariate rule must already carry the effect's
    covariance (build it with the same sigma1, sigma2, rho).
    """
    ds = Dataset(clusters=(cluster,))
    kernel = LoglikKernel(ds, link)
    offsets, weights = _node_offsets(params, rule)
    return float(
        kernel.marginal(params.fixed.intercepts, params.fixed.slopes, offsets, weights)[0]
    )


def cluster_logliks(
    dataset: Dataset, params: ParameterVector, link: LinkFamily, rule=None
) -> np.ndarray:
    """Per-cluster log-likelihood vector: conditional at zero deviation for
    homogeneous parameters, marginal otherwise."""
    kernel = LoglikKernel(dataset, link)
    fe = params.fixed
    if isinstance(params.re, NoRandomEffect):
        return kernel.conditional(fe.intercepts, fe.slopes)
    if isinstance(params.re, UnivariateRandomEffect) and params.re.sigma == 0.0:
        return kernel.conditional(fe.intercepts, fe.slopes)
    if rule is None:
        raise ValueError("a quadrature rule is required when a random effect is present")
    offsets, weights = _node_offsets(params, rule)
    return kernel.marginal(fe.intercepts, fe.slopes, offsets, weights)


def total_loglik(
    dataset: Dataset, params: ParameterVector, link: LinkFamily, rule=None
) -> float:
    """Dataset log-likelihood: the sum of per-cluster terms, in cluster
    order so that repeated runs are bit-reproducible."""
    return float(cluster_logliks(dataset, params, link, rule).sum())
