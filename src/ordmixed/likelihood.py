"""Conditional and marginal log-likelihoods for clustered ordinal counts.

Each cluster contributes a multinomial term (coefficient included) at its
category probabilities. With a random effect present, the cluster term is
integrated over the normal law by Gauss-Hermite quadrature and combined with
log-sum-exp stabilization, so large predictor magnitudes cannot overflow.
Infeasible proportional-odds proposals contribute zero mass at the offending
nodes and -inf when no node is feasible.

The score of the marginal log-likelihood is the posterior-weighted average
of the conditional score over the nodes (the Fisher identity). Its Hessian
is the posterior mean of the conditional Hessian plus the posterior
covariance of the conditional score (Louis' identity), so one pass over the
node arrays, ``louis_moments``, which also evaluates each link's
closed-form curvature, yields the value, the score and the observed
information together. Its node features, the derivatives of the
predictors at each node, come from the caller; when they are a read-only
array, as the estimation layer's fixed features are, the pass forms their
pairwise products on the first call and reuses them while the same array
comes back, so a pass does no work per node and feature pair outside the
contractions over the nodes.

``LoglikKernel`` lays the predictors out slot-major: an array of shape
(K-1, n, Q) whose leading axis is the category boundary, so each boundary
is one contiguous (n, Q) plane of clusters by nodes. ``model.slot_terms``
evaluates a link on the whole array at once, giving the (K, n, Q)
log-probabilities, the (K-1, n, Q) score and, when asked, the (P, n, Q)
curvature over the link's boundary pairs; the counts, stored as (K, n, 1),
weight the log-probabilities in one product summed over categories, and
the posterior contractions are matrix products over the node and cluster
axes, one per boundary or pair. No array with a short trailing category
axis is built.

Every pass takes predictor offsets that broadcast against (n, Q, K-1),
clusters by nodes by boundaries: a 2-d array is node offsets (Q, K-1)
shared by every cluster, such as the nodes z of a rule mapped through a
random effect's loading A, z A'; a 3-d one gives each cluster its own
nodes. No random effect is one node at 0 with weight 1, and the
conditional passes at per-cluster offsets (n, K-1) are the one-node case.

At shared node offsets, clusters with the same covariate row have the
same predictors. Each row block then evaluates the link's count-free
steps once per distinct predictor row, the covariate patterns among its
clusters (one row without covariates), and ``model.slot_terms`` expands
them to the clusters with a take where the counts enter; those steps are
elementwise the same as evaluating every cluster, so the results are the
same bits. Per-cluster offsets, blocks whose rows are all distinct and
planes too small to gain evaluate every cluster.

``louis_moments`` takes an optional floor, the log-likelihood a line
search needs to reach: no cluster's marginal log-likelihood is above
log sum_q w_q, so once the finished row blocks bound the total below the
floor, the pass returns that bound without its posterior contractions.

The kernel writes every intermediate into its workspace: for each node
count Q, a stack of (rows, Q) planes allocated on the first call with that
Q and reused by every later one, so repeated calls allocate only the
arrays they return, which are always fresh. A plane holds at most
``_BLOCK_ELEMENTS`` elements; when n * Q is larger, the clusters are
evaluated in row blocks through the same planes, so the kernel's memory is
bounded by the block plus its outputs. Because the planes are shared, a
kernel serves one caller at a time.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .model import (
    Cluster,
    CovariatePatterns,
    Dataset,
    LinkFamily,
    ParameterVector,
    PlaneStack,
    curvature_pairs,
    log_category_probabilities,  # noqa: F401  (instrumentation looks the link layer up here)
    slot_terms,
)
from .quadrature import QuadratureRule2D

_BLOCK_ELEMENTS = 2**16  # most elements in one workspace plane (512 KB)
_SHARED_ELEMENTS = 2**12  # fewest elements in a plane whose blocks evaluate shared rows once
# A pass meets -inf log-likelihoods (a category of zero probability, nodes
# that are all infeasible) and 0 x inf products that it then sets to 0, so
# every public pass runs with these floating-point errors ignored.
_expected_float_errors = np.errstate(divide="ignore", invalid="ignore", over="ignore")


@lru_cache(maxsize=None)
def _pair_indices(link: LinkFamily, k1: int) -> tuple[np.ndarray, np.ndarray]:
    """The boundary pairs of the link's curvature as (k, l) index arrays,
    and those of the Louis pass: the curvature's pairs first, then the
    remaining pairs k < l, whose score products the pass also needs."""
    pairs = curvature_pairs(link, k1)
    upper = [(k, l) for k in range(k1) for l in range(k, k1)]
    louis = pairs + tuple(p for p in upper if p not in pairs)
    out = tuple(np.array(p, dtype=int).reshape(-1, 2).T for p in (pairs, louis))
    for a in out:
        a.flags.writeable = False
    return out


def _pair_products(features: np.ndarray, k: np.ndarray, l: np.ndarray):
    """The node features (Q, K-1, r) by boundary, (K-1, Q, r), and for each
    Louis pair the outer product of the features of boundaries k and l,
    (pairs, Q, r * r): r * r values per node. An off-diagonal pair also
    stands for (l, k), whose curvature and score product are the same, so
    it holds the sum of both outer products."""
    by_boundary = np.ascontiguousarray(features.transpose(1, 0, 2))
    outer = by_boundary[k, :, :, None] * by_boundary[l, :, None, :]
    np.add(outer, outer.swapaxes(-1, -2), out=outer, where=(k != l)[:, None, None, None])
    n_nodes, r = features.shape[0], features.shape[2]
    return by_boundary, outer.reshape(len(k), n_nodes, r * r)


def _shared_rows(patterns: CovariatePatterns, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct predictor rows of the row block of clusters lo to hi:
    a cluster of each distinct pattern among them and each cluster's row
    among those; None when no two clusters of the block share a pattern."""
    if len(patterns.first) == 1:
        first, rows = np.zeros(1, dtype=np.intp), np.zeros(hi - lo, dtype=np.intp)
    elif len(patterns.first) == len(patterns.index):
        return None
    else:
        _, first, rows = np.unique(patterns.index[lo:hi], return_index=True, return_inverse=True)
    if len(first) == hi - lo:
        return None
    return first + lo, rows


def _log_coefficients(counts: np.ndarray) -> np.ndarray:
    """log(N! / (y_1! ... y_K!)) along the last axis of an integer count
    array, looked up in a table of log k! = lgamma(k + 1) up to the largest
    total N."""
    totals = counts.sum(axis=-1)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(int(totals.max(initial=0)) + 1)])
    return log_factorial[totals] - log_factorial[counts].sum(axis=-1)


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


class LouisMoments(NamedTuple):
    """The posterior moments of one marginal pass that Louis' identity needs.

    With g and H the conditional score and curvature with respect to a
    cluster's K-1 boundary predictors at node q, and M_q the (K-1, r) node
    features the caller passed (the derivatives of the predictors with
    respect to r coordinates), ``mean`` (n, r) holds each cluster's
    posterior mean of M_q' g and ``second`` (n, r, r) its posterior mean of
    M_q' (H + g g') M_q; the Hessian of the cluster's marginal log-likelihood
    in those coordinates is ``second`` minus the outer product of ``mean``,
    plus the score times any second derivatives of the predictors, for
    which ``node_score`` (Q, K-1), the posterior-weighted score g summed
    over clusters at each node, suffices when those derivatives depend on
    the node alone. With identity features, ``mean`` is each cluster's
    score with respect to its boundary predictors. A pass stopped at its
    floor has an upper bound of the log-likelihood in ``loglik`` and None
    in the three moments.
    """

    loglik: float
    mean: np.ndarray | None
    second: np.ndarray | None
    node_score: np.ndarray | None


class ConditionalTerms(NamedTuple):
    """Per-cluster conditional log-likelihood (n,), with its score (n, K-1)
    and curvature (n, K-1, K-1) with respect to the boundary predictors."""

    loglik: np.ndarray
    score: np.ndarray
    curvature: np.ndarray


def _slot_major(offsets) -> np.ndarray:
    """The slot-major view (K-1, n or 1, Q) of offsets that broadcast
    against (n, Q, K-1); a 2-d array is node offsets (Q, K-1)."""
    offsets = np.asarray(offsets, dtype=float)
    if offsets.ndim == 2:
        offsets = offsets[None]
    return offsets.transpose(2, 0, 1)


class _Workspace(NamedTuple):
    """A kernel's memory for one node count Q: the slot-major predictors
    (K-1, rows, Q), the stack of (rows, Q) planes and stacks of them for
    everything derived from them, the row blocks, each (first row, end
    row, the (category, row) indices of the block's empty categories, its
    shared predictor rows or None), and the stack of planes for the
    distinct predictor rows (None when no block shares rows)."""

    predictors: np.ndarray
    planes: PlaneStack
    blocks: list
    shared: PlaneStack | None


class LoglikKernel:
    """Vectorized per-cluster log-likelihood evaluation for one dataset.

    Precomputes the counts, stored slot-major as (K, n, 1) so that each
    category's counts broadcast against an (n, Q) predictor plane, and the
    multinomial coefficients once; the estimation layer then calls
    ``louis_moments`` thousands of times with different parameter
    proposals. ``columns`` selects some of the dataset's covariate columns,
    in that order, in place of all of them.

    Clusters with the same covariate row have the same predictors at
    shared node offsets, so the link's count-free math (see
    ``model.slot_terms``) runs once per distinct predictor row of a row
    block, and the clusters' own work starts where their counts enter.
    The rows are one for a kernel without covariates and otherwise the
    dataset's covariate patterns (``Dataset.covariate_patterns``, computed
    once per dataset when a workspace first needs them): clusters with the
    same covariates have the same values in any of their columns. A
    workspace fixes, per row block, which distinct rows it
    evaluates; a block whose rows are all distinct, and any pass at
    per-cluster offsets, evaluates every cluster. So does a pass in which
    the matrix product x b rounded two clusters of one pattern apart (BLAS
    may round equal rows differently by where they sit): the shared rows
    give the per-cluster results bit for bit.

    The kernel owns its workspace: for each node count Q, a stack of
    (rows, Q) planes and (m, rows, Q) stacks of them allocated on the first
    call with that Q and reused by every later one, so a call allocates
    little more than the arrays it returns. A plane holds at most
    ``_BLOCK_ELEMENTS`` elements; more clusters than fit are evaluated in
    row blocks through the same planes. Because the planes are shared, a
    kernel serves one caller at a time: it is not for concurrent calls
    from several threads.
    """

    def __init__(self, dataset: Dataset, link: LinkFamily, columns: list[int] | None = None):
        self.link = link
        x = dataset.covariate_matrix
        self.x = x if columns is None else x[:, columns]
        self._dataset = dataset  # for its covariate patterns, once a workspace needs them
        counts = dataset.count_matrix
        self.y = counts.astype(float)
        self.log_coef = _log_coefficients(counts)
        self.n_boundaries = dataset.n_categories - 1
        self._counts = np.ascontiguousarray(self.y.T)[:, :, None]
        # the (category, cluster) cells with no count, where 0 log 0 = 0
        # overrides a log-probability of -inf
        self._empty = counts.T == 0
        self._pairs, self._louis_pairs = _pair_indices(link, self.n_boundaries)
        self._workspaces: dict[int, _Workspace] = {}
        # the last node features louis_moments saw, with _pair_products' arrays
        self._louis_features: tuple = (None,)

    @cached_property
    def _patterns(self) -> CovariatePatterns:
        """The distinct predictor rows at shared offsets: one without
        covariates, else the dataset's covariate patterns."""
        if self.x.shape[1] == 0:
            return CovariatePatterns(np.zeros(1, dtype=np.intp), np.zeros(len(self.x), dtype=np.intp))
        return self._dataset.covariate_patterns

    def _rounded_alike(self, xb: np.ndarray) -> bool:
        """Whether x b is the same, bit for bit, for every cluster of each
        pattern."""
        if self.x.shape[1] == 0:
            return True
        first, index = self._patterns
        return bool(np.array_equal(xb[first][index], xb))

    def _workspace(self, n_nodes: int) -> _Workspace:
        if n_nodes not in self._workspaces:
            n = self.x.shape[0]
            rows = max(1, _BLOCK_ELEMENTS // n_nodes)
            # whole groups of 8 rows keep BLAS's grouping of the rows in the
            # node contractions, so a row's results do not depend on its block
            rows = min(n, rows - rows % 8 if rows >= 8 else rows)
            # too small a plane would spend more on the takes than it saves
            share = rows * n_nodes >= _SHARED_ELEMENTS
            blocks, most = [], 0
            for lo in range(0, n, rows):
                hi = min(n, lo + rows)
                shared = _shared_rows(self._patterns, lo, hi) if share else None
                if shared is not None:
                    most = max(most, len(shared[0]))
                blocks.append((lo, hi, np.nonzero(self._empty[:, lo:hi]), shared))
            self._workspaces[n_nodes] = _Workspace(
                np.empty((self.n_boundaries, rows, n_nodes)),
                PlaneStack((rows, n_nodes)),
                blocks,
                PlaneStack((most, n_nodes)) if most else None,
            )
        return self._workspaces[n_nodes]

    def _blocks(self, intercepts, slopes, offsets, derivatives: bool = False):
        """Evaluate the link block by block in the workspace planes, at
        offsets that broadcast against (n, Q, K-1); per-cluster ones are cut
        to each block's rows. At shared offsets, a block with shared
        predictor rows evaluates the link's count-free steps on its distinct
        rows only. Yields, per row block, its first and end rows, the
        ``SlotTerms`` (with the score and curvature when ``derivatives`` is
        set, and ``logp`` spent), the node log-likelihoods without the
        multinomial constant and the infeasibility mask (None when every
        node is feasible); all of them live in the workspace and are
        overwritten by the next block or call.
        """
        offsets = _slot_major(offsets)
        ws = self._workspace(offsets.shape[-1])
        xb = self.x @ slopes
        base = np.asarray(intercepts, dtype=float)[:, None] + xb[None, :]
        per_cluster = offsets.shape[1] > 1
        # per-cluster offsets, or shared rows that x b rounded apart, take
        # every cluster's own row
        own_rows = per_cluster or ws.shared is None or not self._rounded_alike(xb)
        for lo, hi, empty, shared in ws.blocks:
            ws.planes.reset(hi - lo)
            counts = self._counts[:, lo:hi]
            y = counts if derivatives else None
            if shared is None or own_rows:
                d = ws.predictors[:, : hi - lo]
                np.add(base[:, lo:hi, None], offsets[:, lo:hi] if per_cluster else offsets, out=d)
                terms = slot_terms(self.link, d, y, ws.planes, derivatives)
            else:
                first, rows = shared
                ws.shared.reset(len(first))
                d = ws.predictors[:, : len(first)]
                np.add(base[:, first, None], offsets, out=d)
                terms = slot_terms(self.link, d, y, ws.planes, derivatives, rows, ws.shared)
            ll, infeasible = self._count_loglik(terms, counts, empty, ws.planes)
            yield lo, hi, terms, ll, infeasible

    @staticmethod
    def _count_loglik(terms, counts, empty, work) -> tuple[np.ndarray, np.ndarray | None]:
        """sum_j y_j log p_j over the categories, with 0 log 0 = 0 at the
        ``empty`` (category, row) cells, written over ``terms.logp``; -inf
        at infeasible nodes, which the returned mask marks (None when there
        are none)."""
        products = np.multiply(counts, terms.logp, out=terms.logp)
        products[empty] = 0.0
        ll = np.add(products[0], products[1], out=work.take())
        for term in products[2:]:
            ll += term
        infeasible = None
        if terms.feasible is not None and not terms.feasible.all():
            infeasible = np.logical_not(terms.feasible, out=work.take(dtype=bool))
            np.copyto(ll, -np.inf, where=infeasible)
        return ll, infeasible

    @_expected_float_errors
    def node_logliks(self, intercepts, slopes, offsets) -> np.ndarray:
        """Conditional log-likelihood of every cluster at every node, shape
        (n, Q), without the multinomial constant, at offsets that broadcast
        against (n, Q, K-1)."""
        out = np.empty((self.x.shape[0], np.shape(offsets)[-2]))
        for lo, hi, _, ll, _ in self._blocks(intercepts, slopes, offsets):
            out[lo:hi] = ll
        return out

    def conditional_at(self, intercepts, slopes, offsets) -> np.ndarray:
        """Per-cluster conditional log-likelihood at per-cluster offsets
        (n, K-1): the one-node case of ``node_logliks``, with its constant."""
        ll = self.node_logliks(intercepts, slopes, np.asarray(offsets, dtype=float)[:, None])
        return ll[:, 0] + self.log_coef

    @_expected_float_errors
    def conditional_terms(self, intercepts, slopes, offsets) -> ConditionalTerms:
        """Per-cluster conditional log-likelihood, score and curvature with
        respect to the boundary predictors, at per-cluster predictor offsets
        (n, K-1), evaluated as one node per cluster."""
        offsets = np.asarray(offsets, dtype=float)[:, None]
        n, k1 = self.x.shape[0], self.n_boundaries
        loglik, score = np.empty(n), np.empty((n, k1))
        curvature = np.zeros((n, k1, k1))
        k, l = self._pairs
        for lo, hi, terms, ll, _ in self._blocks(intercepts, slopes, offsets, derivatives=True):
            np.add(ll[:, 0], self.log_coef[lo:hi], out=loglik[lo:hi])
            score[lo:hi] = terms.score[:, :, 0].T
            block = curvature[lo:hi]
            block[:, k, l] = block[:, l, k] = terms.curvature[:, :, 0].T
        return ConditionalTerms(loglik, score, curvature)

    @staticmethod
    def _integrate(ll: np.ndarray, weights, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-sum-exp over nodes: writes to ``out`` the per-cluster log of
        sum_q w_q exp(ll_q) without the multinomial constant, and returns
        the shifted node masses (written over ``ll``) and their weighted
        sums."""
        m = ll.max(axis=1, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        mass = np.subtract(ll, m, out=ll)
        np.exp(mass, out=mass)
        total = mass @ weights
        np.add(np.log(total), m[:, 0], out=out)
        return mass, total

    def _integrated(self, out, intercepts, slopes, offsets, weights, derivatives: bool = False):
        """``_blocks`` integrated over the nodes: writes the log-marginal
        without the multinomial constant to ``out``, and yields per block
        its rows, the ``SlotTerms`` with score and curvature zero at
        infeasible nodes, the shifted node masses and their weighted sums."""
        blocks = self._blocks(intercepts, slopes, offsets, derivatives)
        for lo, hi, terms, ll, infeasible in blocks:
            mass, total = self._integrate(ll, weights, out[lo:hi])
            if infeasible is not None and derivatives:
                np.copyto(terms.score, 0.0, where=infeasible)
                np.copyto(terms.curvature, 0.0, where=infeasible)
            yield lo, hi, terms, mass, total

    @_expected_float_errors
    def marginal(self, intercepts, slopes, offsets, weights) -> np.ndarray:
        """Per-cluster marginal log-likelihood over quadrature nodes, with
        log-sum-exp stabilization, at offsets that broadcast against
        (n, Q, K-1) and weights (Q,)."""
        weights = np.asarray(weights, dtype=float)
        out = np.empty(self.x.shape[0])
        for _ in self._integrated(out, intercepts, slopes, offsets, weights):
            pass
        return out + self.log_coef

    @_expected_float_errors
    def louis_moments(self, intercepts, slopes, offsets, weights, features, floor=None) -> LouisMoments:
        """The posterior moments of the conditional score and curvature that
        Louis' identity needs, in one pass over the node arrays.

        Takes the arguments of ``marginal`` and the node features M, shape
        (Q, K-1, r); see ``LouisMoments``. Infeasible nodes get zero
        posterior weight and contribute nothing. The features' pair
        products are formed once for a read-only features array and reused
        while later calls pass the same array, as every pass of one fit
        does; a writeable one is read afresh on each call.

        ``floor``, when given, is the log-likelihood a caller needs the pass
        to reach, such as the current point of a line search. No cluster's
        marginal log-likelihood is above log sum_q w_q (0 for a rule whose
        weights sum to 1), so after each row block the log-likelihood of the
        finished blocks, plus that ceiling (if positive) for every other
        cluster, bounds the total from above. Once the bound is below the floor by more than 1e-8
        relative, the pass stops there and returns the bound alone, with no
        moments: a point whose log-likelihood is below the floor gets no
        posterior contractions.
        """
        weights = np.asarray(weights, dtype=float)
        features = np.asarray(features, dtype=float)
        if self._louis_features[0] is not features or features.flags.writeable:
            self._louis_features = (features, *_pair_products(features, *self._louis_pairs))
        _, by_boundary, outer = self._louis_features
        (k1, n_nodes, r), n = by_boundary.shape, self.x.shape[0]
        k, l = self._louis_pairs
        out, mean, second = np.empty(n), np.zeros((n, r)), np.zeros((n, r * r))
        node_score = np.zeros((n_nodes, k1))
        work = self._workspace(n_nodes).planes
        if floor is not None:
            done, ceiling = 0.0, max(math.log(weights.sum()), 0.0)
            floor -= 1e-8 * abs(floor)
        blocks = self._integrated(out, intercepts, slopes, offsets, weights, derivatives=True)
        for lo, hi, terms, mass, total in blocks:
            if floor is not None:
                done += float((out[lo:hi] + self.log_coef[lo:hi]).sum())
                bound = done + (n - hi) * ceiling
                if bound < floor:
                    return LouisMoments(bound, None, None, None)
            posterior = np.divide(weights[None, :], total[:, None], out=work.take())
            posterior *= mass
            g, term = terms.score, work.take()
            # each pair's score product, plus the curvature of the pairs
            # that lead the list, contracted while it is in cache
            for p in range(len(k)):
                np.multiply(g[k[p]], g[l[p]], out=term)
                if p < len(terms.curvature):
                    term += terms.curvature[p]
                term *= posterior
                second[lo:hi] += term @ outer[p]
            g *= posterior
            mean[lo:hi] += np.matmul(g, by_boundary).sum(axis=0)
            node_score += g.sum(axis=1).T
        loglik = float((out + self.log_coef).sum())
        return LouisMoments(loglik, mean, second.reshape(n, r, r), node_score)


def marginal_cluster_loglik(
    cluster: Cluster, params: ParameterVector, link: LinkFamily, rule
) -> float:
    """Cluster log-likelihood with the random effect integrated out, as
    ``cluster_logliks`` gives it."""
    return float(cluster_logliks(Dataset(clusters=(cluster,)), params, link, rule)[0])


def cluster_logliks(
    dataset: Dataset, params: ParameterVector, link: LinkFamily, rule=None
) -> np.ndarray:
    """Per-cluster log-likelihood vector from one ``LoglikKernel.marginal``
    pass: one node at zero deviation with weight 1 when the random effect's
    loading A is zero (no effect, or sigma = 0), else the rule's nodes. A
    standardized rule's nodes z enter as z A'; a ``QuadratureRule2D`` from
    ``bivariate_rule`` already carries the effect's covariance, so its
    nodes are the offsets themselves."""
    kernel = LoglikKernel(dataset, link)
    fe = params.fixed
    loading = params.re.loading(kernel.n_boundaries)
    if not loading.any():
        offsets, weights = np.zeros((1, kernel.n_boundaries)), np.ones(1)
    elif rule is None:
        raise ValueError("a quadrature rule is required when a random effect is present")
    else:
        nodes = np.reshape(rule.nodes, (rule.weights.size, -1))
        if nodes.shape[1] != loading.shape[1]:
            raise ValueError(
                f"a {params.re.structure} random effect requires a "
                f"{loading.shape[1]}-d quadrature rule"
            )
        offsets = nodes if isinstance(rule, QuadratureRule2D) else nodes @ loading.T
        weights = rule.weights
    return kernel.marginal(fe.intercepts, fe.slopes, offsets, weights)


def total_loglik(
    dataset: Dataset, params: ParameterVector, link: LinkFamily, rule=None
) -> float:
    """Dataset log-likelihood: the sum of per-cluster terms, in cluster
    order so that repeated runs are bit-reproducible."""
    return float(cluster_logliks(dataset, params, link, rule).sum())
