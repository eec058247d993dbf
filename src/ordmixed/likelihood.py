"""Conditional and marginal log-likelihoods for clustered ordinal counts.

Each cluster contributes a multinomial term (coefficient included) at its
category probabilities. With a random effect present, the cluster term is
integrated over the normal law by Gauss-Hermite quadrature and combined with
log-sum-exp stabilization, so large predictor magnitudes cannot overflow.
Infeasible proportional-odds proposals contribute zero mass at the offending
nodes and -inf when no node is feasible.

The score of the marginal log-likelihood is the posterior-weighted average
of the conditional score over the nodes (the Fisher identity), so one pass
over the (n, Q, K) arrays yields the value and the score together.
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
    log_category_probabilities,
    predictor_score,
)
from .quadrature import QuadratureRule1D, QuadratureRule2D


def multinomial_log_coefficient(counts: np.ndarray) -> float:
    """log(N! / (y_1! ... y_K!)) for one cluster's counts."""
    counts = np.asarray(counts)
    return float(gammaln(counts.sum() + 1.0) - gammaln(counts + 1.0).sum())


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

    Precomputes the count matrix and multinomial coefficients once; the
    estimation layer then calls ``marginal_and_score`` thousands of times
    with different parameter proposals.
    """

    def __init__(self, dataset: Dataset, link: LinkFamily):
        self.link = link
        self.x = dataset.covariate_matrix
        self.y = dataset.count_matrix.astype(float)
        self.ypos = dataset.count_matrix > 0
        self.log_coef = np.array(
            [multinomial_log_coefficient(c.counts) for c in dataset.clusters]
        )
        self.n_boundaries = dataset.n_categories - 1

    def _base_predictors(self, intercepts: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        eta = self.x @ slopes if slopes.size else np.zeros(self.x.shape[0])
        return intercepts[None, :] + eta[:, None]

    def _count_loglik(self, logp: np.ndarray, feasible: np.ndarray) -> np.ndarray:
        if logp.ndim == 2:
            y, ypos = self.y, self.ypos
        else:
            y, ypos = self.y[:, None, :], self.ypos[:, None, :]
        with np.errstate(invalid="ignore"):
            terms = np.where(ypos, y * logp, 0.0)
        ll = terms.sum(axis=-1)
        if not feasible.all():
            ll = np.where(feasible, ll, -np.inf)
        return ll

    def conditional(self, intercepts: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        """Per-cluster conditional log-likelihood at zero random effect."""
        return self.conditional_at(intercepts, slopes, None)

    def conditional_at(self, intercepts, slopes, offsets) -> np.ndarray:
        """Per-cluster conditional log-likelihood with per-cluster predictor
        offsets of shape (n,), (n, K-1), or None for zeros."""
        deltas = self._base_predictors(intercepts, slopes)
        if offsets is not None:
            offsets = np.asarray(offsets, dtype=float)
            deltas = deltas + (offsets[:, None] if offsets.ndim == 1 else offsets)
        logp, feasible = log_category_probabilities(self.link, deltas)
        return self._count_loglik(logp, feasible) + self.log_coef

    def node_logliks(self, intercepts, slopes, node_offsets) -> np.ndarray:
        """Conditional log-likelihood of every cluster at every offset node,
        shape (n, Q), without the multinomial constant.

        ``node_offsets`` has shape (Q,) for a shared deviation or (Q, K-1)
        for slot-wise deviations.
        """
        deltas = self._node_predictors(intercepts, slopes, node_offsets)
        logp, feasible = log_category_probabilities(self.link, deltas)
        return self._count_loglik(logp, feasible)

    def _node_predictors(self, intercepts, slopes, node_offsets) -> np.ndarray:
        base = self._base_predictors(intercepts, slopes)
        node_offsets = np.asarray(node_offsets, dtype=float)
        if node_offsets.ndim == 1:
            return base[:, None, :] + node_offsets[None, :, None]
        return base[:, None, :] + node_offsets[None, :, :]

    @staticmethod
    def _integrate(ll: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Log-sum-exp over nodes: per-cluster log of sum_q w_q exp(ll_q)
        without the multinomial constant, the shifted node masses, and
        their weighted sums."""
        m = ll.max(axis=1, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        mass = np.exp(ll - m)
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
        deltas = self._node_predictors(intercepts, slopes, node_offsets)
        logp, feasible = log_category_probabilities(self.link, deltas)
        ll = self._count_loglik(logp, feasible)
        out, mass, total = self._integrate(ll, weights)
        loglik = float((out + self.log_coef).sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            posterior = mass * (np.asarray(weights)[None, :] / total[:, None])
        counts = self.y[:, None, :]
        score = predictor_score(self.link, deltas, logp, counts)
        if not feasible.all():
            score = np.where(feasible[..., None], score, 0.0)
        weighted = posterior[..., None] * score
        return MarginalScore(loglik, posterior, weighted.sum(axis=1), weighted.sum(axis=0))


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
