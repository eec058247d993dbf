"""Conditional and marginal log-likelihoods for clustered ordinal counts.

Each cluster contributes a multinomial term (coefficient included) at its
category probabilities. With a random effect present, the cluster term is
integrated over the normal law by Gauss-Hermite quadrature with log-sum-exp
stabilization; infeasible proportional-odds nodes contribute zero mass, and
a cluster with no feasible node -inf. ``LoglikKernel`` evaluates a dataset
on the row layout of ``Dataset.distinct_clusters`` and states the contract
of its passes, row blocks and workspace; ``LoglikKernel.louis_moments``
gives the value, score and observed information of a fit in one pass
(Louis' identity) and states its floor.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import (
    Cluster,
    Dataset,
    LinkFamily,
    ParameterVector,
    PlaneStack,
    curvature_pairs,
    log_category_probabilities,  # noqa: F401  (instrumentation looks the link layer up here)
    log_multinomial_coefficients,
    slot_stages,
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


def _shared_rows(pattern: np.ndarray, lo: int, hi: int) -> tuple[slice, np.ndarray] | None:
    """The covariate patterns of the row block lo to hi, a slice of the
    patterns, and each row's place among them; None when no two rows of the
    block share a pattern. The rows' patterns are sorted and gap-free, so
    the block's are ``pattern[lo]`` to ``pattern[hi - 1]``."""
    first, last = int(pattern[lo]), int(pattern[hi - 1])
    if last - first == hi - lo - 1:
        return None
    return slice(first, last + 1), pattern[lo:hi] - first


def multinomial_log_coefficient(counts: np.ndarray) -> float:
    """log(N! / (y_1! ... y_K!)) for one cluster's counts."""
    return float(log_multinomial_coefficients(np.asarray(counts)))


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
    row's K-1 boundary predictors at node q, and M_q the (K-1, r) node
    features the caller passed (the derivatives of the predictors with
    respect to r coordinates), ``mean`` (rows, r) holds each row's
    posterior mean of M_q' g and ``second`` (rows, r, r) its posterior mean
    of M_q' (H + g g') M_q; the Hessian of the row's marginal
    log-likelihood in those coordinates is ``second`` minus the outer
    product of ``mean``, plus the score times any second derivatives of
    the predictors. With identity features, ``mean`` is each row's score
    with respect to its boundary predictors. ``loglik`` is the weighted
    total; a pass stopped at its floor has an upper bound of it there and
    None in the moments.
    """

    loglik: float
    mean: np.ndarray | None
    second: np.ndarray | None


class ConditionalTerms(NamedTuple):
    """Each row's conditional log-likelihood (rows,), with its score
    (rows, K-1) and curvature (rows, K-1, K-1) with respect to the boundary
    predictors."""

    loglik: np.ndarray
    score: np.ndarray
    curvature: np.ndarray


class _Workspace(NamedTuple):
    """A kernel's memory for one node count Q: the slot-major predictors
    (K-1, rows, Q), the stack of (rows, Q) planes, the row blocks, each
    (first row, end row, the (category, row) indices of its empty
    categories, and ``_shared_rows`` of it or None where it evaluates every
    row), and the stack of planes for the patterns (None when no block
    shares them)."""

    predictors: np.ndarray
    planes: PlaneStack
    blocks: list
    shared: PlaneStack | None


class LoglikKernel:
    """Vectorized log-likelihood evaluation for one dataset and link, on
    all of the dataset's covariates or, when ``covariates`` is false, as
    for an intercept model, on none.

    Rows. The kernel's rows are ``rows``, the dataset's distinct clusters
    (``Dataset.distinct_clusters``, which states the layout), with their
    multinomial constants ``log_coef`` and float weights ``multiplicity``;
    ``y`` keeps the clusters' counts (n, K) and ``pattern_covariates`` the
    covariates of each pattern, one C-contiguous row per pattern (one empty
    row without covariates). Predictors and counts are slot-major:
    (K-1, rows, Q), one contiguous plane of rows by nodes per boundary,
    which ``model.slot_stages`` evaluates at once, and (K, rows, 1), which
    broadcasts against a plane.

    Passes. Every pass takes predictor offsets that broadcast against
    (rows, Q, K-1), rows by nodes by boundaries, with a leading axis of 1,
    shared by every row, or of the number of rows, one set for each row of
    ``rows.first``; a 2-d array is node offsets (Q, K-1) shared by every
    row, such as the nodes z of a rule mapped through a random effect's
    loading A, z A'. No random effect is one node at 0 with weight 1, and
    the conditional passes at offsets (rows or 1, K-1) are the one-node
    case. Offsets for any other number of rows raise ValueError. Every pass
    returns one entry per row; ``rows.index`` takes each cluster's. A total
    sums the rows, each weighted by its multiplicity, in row order, as
    ``louis_moments`` and ``total_loglik`` do, so it does not depend on the
    order of the clusters.

    Shared patterns. The predictors x b are formed once per covariate
    pattern, ``pattern_covariates @ b``, and taken to the rows, so rows of
    one pattern have the same bits. At shared offsets, the rows of one
    pattern in a row block then share their predictors, so the link's
    count-free steps (``model.slot_stages``) run once per pattern of the
    block and are expanded to the rows with a take where the counts enter:
    the same bits as evaluating every row. Blocks whose rows all have
    patterns of their own, planes under ``_SHARED_ELEMENTS`` values and
    per-row offsets evaluate every row.

    Workspace. The kernel writes every intermediate into, for each node
    count Q, a stack of (rows, Q) planes allocated on the first call with
    that Q and reused by every later one, so a call allocates little more
    than the arrays it returns, which are always fresh. A plane holds at
    most ``_BLOCK_ELEMENTS`` values, a whole number of groups of 8 rows
    where it can; more rows are evaluated in row blocks through the same
    planes, so the kernel's memory is bounded by a block and its outputs.
    Because the planes are shared, a kernel serves one caller at a time.
    """

    def __init__(self, dataset: Dataset, link: LinkFamily, covariates: bool = True):
        self.link = link
        counts = dataset.count_matrix
        self.y = counts.astype(float)
        self.n_boundaries = dataset.n_categories - 1
        self.rows = rows = dataset.distinct_clusters(covariates)
        first = rows.first
        x = dataset.covariate_matrix[dataset.covariate_patterns.first] if covariates else np.empty((1, 0))
        self.pattern_covariates = np.ascontiguousarray(x)
        # each row's column of the predictors; None when row i is column i,
        # every row a pattern of its own
        self._pattern = None if len(rows.starts) == len(first) else rows.pattern
        counts = counts[first].T
        self._counts = np.ascontiguousarray(counts, dtype=float)[:, :, None]
        self._empty = counts == 0  # the (category, row) cells with no count
        self.log_coef = dataset.log_coefficients[first]
        self.multiplicity = rows.multiplicity.astype(float)
        self._pairs, self._louis_pairs = _pair_indices(link, self.n_boundaries)
        self._workspaces: dict[int, _Workspace] = {}
        # the last node features louis_moments saw, with _pair_products' arrays
        self._louis_features: tuple = (None,)

    def _workspace(self, n_nodes: int) -> _Workspace:
        """The workspace at Q nodes."""
        if n_nodes not in self._workspaces:
            n = len(self.log_coef)
            rows = max(1, _BLOCK_ELEMENTS // n_nodes)
            # whole groups of 8 rows keep BLAS's grouping of the rows in the
            # node contractions, so a row's results do not depend on its block
            rows = min(n, rows - rows % 8 if rows >= 8 else rows)
            # too small a plane would spend more on the takes than it saves
            share = self._pattern is not None and rows * n_nodes >= _SHARED_ELEMENTS
            blocks, most = [], 0
            for lo in range(0, n, rows):
                hi = min(n, lo + rows)
                shared = _shared_rows(self._pattern, lo, hi) if share else None
                if shared is not None:
                    most = max(most, shared[0].stop - shared[0].start)
                blocks.append((lo, hi, np.nonzero(self._empty[:, lo:hi]), shared))
            self._workspaces[n_nodes] = _Workspace(
                np.empty((self.n_boundaries, rows, n_nodes)),
                PlaneStack((rows, n_nodes)),
                blocks,
                PlaneStack((most, n_nodes)) if most else None,
            )
        return self._workspaces[n_nodes]

    def _slot_major(self, offsets) -> np.ndarray:
        """The slot-major view (K-1, rows or 1, Q) of a pass's offsets;
        every pass goes through here."""
        offsets = np.asarray(offsets, dtype=float)
        if offsets.ndim == 2:
            offsets = offsets[None]
        n = len(self.log_coef)
        if offsets.shape[0] not in (1, n):
            raise ValueError(
                f"offsets for {offsets.shape[0]} rows, but the kernel has {n}: pass offsets "
                "shared by every row or one per row of rows.first, and take results to the "
                "clusters by rows.index"
            )
        return offsets.transpose(2, 0, 1)

    def _blocks(self, intercepts, slopes, offsets, derivatives: bool = False):
        """Evaluate the link block by block in the workspace planes, at
        slot-major offsets (K-1, rows or 1, Q). Yields, per row block, its
        first and end rows, the node
        log-likelihoods without the multinomial constant, the infeasibility
        mask (None when every node is feasible) and the link's
        ``model.slot_stages`` past its values, whose next stage gives the
        score and curvature when ``derivatives`` is set; all of them live in
        the workspace and are overwritten by the next block or call.
        """
        ws = self._workspace(offsets.shape[-1])
        # x b once per covariate pattern, so that rows of one pattern have
        # the same predictors bit for bit
        xb = self.pattern_covariates @ slopes
        base = np.asarray(intercepts, dtype=float)[:, None] + xb[None, :]
        per_row = offsets.shape[1] > 1
        for lo, hi, empty, shared in ws.blocks:
            ws.planes.reset(hi - lo)
            counts = self._counts[:, lo:hi]
            y = counts if derivatives else None
            if shared is None or per_row:
                d = ws.predictors[:, : hi - lo]
                # a take, not fancy indexing: 1.4 against 3.5 us at 48 clusters and one node
                fixed = base[:, lo:hi] if self._pattern is None else base.take(self._pattern[lo:hi], axis=1)
                np.add(fixed[:, :, None], offsets[:, lo:hi] if per_row else offsets, out=d)
                stages = slot_stages(self.link, d, y, ws.planes, derivatives)
            else:
                patterns, rows = shared
                d = ws.predictors[:, : patterns.stop - patterns.start]
                ws.shared.reset(d.shape[1])
                np.add(base[:, patterns, None], offsets, out=d)
                stages = slot_stages(self.link, d, y, ws.planes, derivatives, rows, ws.shared)
            ll, infeasible = self._count_loglik(next(stages), counts, empty, ws.planes)
            yield lo, hi, ll, infeasible, stages

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
        """Conditional log-likelihood of each row at every node, (rows, Q),
        without the multinomial constant."""
        offsets = self._slot_major(offsets)
        out = np.empty((len(self.log_coef), offsets.shape[-1]))
        for lo, hi, ll, _, _ in self._blocks(intercepts, slopes, offsets):
            out[lo:hi] = ll
        return out

    def conditional_at(self, intercepts, slopes, offsets) -> np.ndarray:
        """Conditional log-likelihood of each row, with its constant, at
        offsets (rows or 1, K-1): the one-node case of ``node_logliks``."""
        ll = self.node_logliks(intercepts, slopes, np.asarray(offsets, dtype=float)[:, None])
        return ll[:, 0] + self.log_coef

    @_expected_float_errors
    def conditional_terms(self, intercepts, slopes, offsets) -> ConditionalTerms:
        """Conditional log-likelihood, score and curvature with respect to
        the boundary predictors of each row, at offsets (rows or 1, K-1)."""
        offsets = self._slot_major(np.asarray(offsets, dtype=float)[:, None])
        n, k1 = len(self.log_coef), self.n_boundaries
        loglik, score = np.empty(n), np.empty((n, k1))
        curvature = np.zeros((n, k1, k1))
        k, l = self._pairs
        for lo, hi, ll, _, stages in self._blocks(intercepts, slopes, offsets, derivatives=True):
            terms = next(stages)
            np.add(ll[:, 0], self.log_coef[lo:hi], out=loglik[lo:hi])
            score[lo:hi] = terms.score[:, :, 0].T
            block = curvature[lo:hi]
            block[:, k, l] = block[:, l, k] = terms.curvature[:, :, 0].T
        return ConditionalTerms(loglik, score, curvature)

    @staticmethod
    def _integrate(ll: np.ndarray, weights, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-sum-exp over nodes: writes to ``out`` the per-row log of
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
        its rows, the shifted node masses and their weighted sums, the
        infeasibility mask and the link's remaining stages."""
        for lo, hi, ll, infeasible, stages in self._blocks(intercepts, slopes, offsets, derivatives):
            mass, total = self._integrate(ll, weights, out[lo:hi])
            yield lo, hi, mass, total, infeasible, stages

    @_expected_float_errors
    def marginal(self, intercepts, slopes, offsets, weights) -> np.ndarray:
        """Marginal log-likelihood of each row over quadrature nodes with
        weights (Q,), with log-sum-exp stabilization."""
        weights = np.asarray(weights, dtype=float)
        offsets = self._slot_major(offsets)
        out = np.empty(len(self.log_coef))
        for _ in self._integrated(out, intercepts, slopes, offsets, weights):
            pass
        out += self.log_coef
        return out

    @_expected_float_errors
    def louis_moments(self, intercepts, slopes, offsets, weights, features, floor=None) -> LouisMoments:
        """The posterior moments of the conditional score and curvature that
        Louis' identity needs, in one pass over the node arrays.

        Takes the arguments of ``marginal`` and the node features M, shape
        (Q, K-1, r); see ``LouisMoments``. Infeasible nodes get zero
        posterior weight and contribute nothing. The features'
        pair products are formed once for a read-only features array and
        reused while later calls pass the same array, as every pass of one
        fit does; a writeable one is read afresh on each call.

        ``floor``, when given, is the log-likelihood a caller needs the pass
        to reach, such as the current point of a line search. No cluster's
        marginal log-likelihood is above log sum_q w_q (0 for a rule whose
        weights sum to 1), so after each row block the log-likelihood of the
        finished blocks, plus that ceiling (if positive) times the
        multiplicity of the rows left, bounds the total from above; after
        the last block the bound is the log-likelihood itself, summed as the
        whole pass sums it, so rounding cannot put it below. Each
        block forms its values first, and once the bound is below the floor
        by more than 1e-8 relative, the pass stops there and returns the
        bound alone, with no moments: a point whose log-likelihood is below
        the floor gets no score, curvature or posterior contractions.
        """
        weights = np.asarray(weights, dtype=float)
        features = np.asarray(features, dtype=float)
        if self._louis_features[0] is not features or features.flags.writeable:
            self._louis_features = (features, *_pair_products(features, *self._louis_pairs))
        _, by_boundary, outer = self._louis_features
        offsets = self._slot_major(offsets)
        n, r = len(self.log_coef), by_boundary.shape[-1]
        k, l = self._louis_pairs
        out, mean, second = np.empty(n), np.zeros((n, r)), np.zeros((n, r * r))
        work = self._workspace(offsets.shape[-1]).planes
        if floor is not None:
            done, ceiling = 0.0, max(math.log(weights.sum()), 0.0)
            floor -= 1e-8 * abs(floor)
        blocks = self._integrated(out, intercepts, slopes, offsets, weights, derivatives=True)
        for lo, hi, mass, total, infeasible, stages in blocks:
            if floor is not None:
                if hi < n:
                    done += float(((out[lo:hi] + self.log_coef[lo:hi]) * self.multiplicity[lo:hi]).sum())
                    bound = done + float(self.multiplicity[hi:].sum()) * ceiling
                else:  # every row done: the log-likelihood itself, summed as below
                    bound = float(((out + self.log_coef) * self.multiplicity).sum())
                if bound < floor:
                    return LouisMoments(bound, None, None)
            terms = next(stages)
            if infeasible is not None:
                np.copyto(terms.score, 0.0, where=infeasible)
                np.copyto(terms.curvature, 0.0, where=infeasible)
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
        loglik = float(((out + self.log_coef) * self.multiplicity).sum())
        return LouisMoments(loglik, mean, second.reshape(n, r, r))


def marginal_cluster_loglik(
    cluster: Cluster, params: ParameterVector, link: LinkFamily, rule
) -> float:
    """Cluster log-likelihood with the random effect integrated out, as
    ``cluster_logliks`` gives it."""
    return float(cluster_logliks(Dataset(clusters=(cluster,)), params, link, rule)[0])


def model_kernel(dataset: Dataset, params: ParameterVector, link: LinkFamily) -> LoglikKernel:
    """The kernel of the model that ``params`` belongs to: on all of the
    dataset's covariates, or on none when the parameters have no slopes,
    as an intercept model's estimates do."""
    slopes = params.fixed.slopes.size
    if slopes not in (0, dataset.n_covariates):
        raise ValueError(f"{slopes} slopes, but the dataset has {dataset.n_covariates} covariates")
    return LoglikKernel(dataset, link, covariates=slopes > 0)


def _marginal_rows(dataset: Dataset, params: ParameterVector, link: LinkFamily, rule):
    """The marginal log-likelihood of each of the kernel's rows from one
    ``LoglikKernel.marginal`` pass, with the rows: one node at zero
    deviation with weight 1 when the random effect's loading A is zero (no
    effect, or sigma = 0), else the rule's nodes. A standardized rule's
    nodes z enter as z A'; a ``QuadratureRule2D`` from ``bivariate_rule``
    already carries the effect's covariance, so its nodes are the offsets
    themselves."""
    kernel = model_kernel(dataset, params, link)
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
    return kernel.marginal(fe.intercepts, fe.slopes, offsets, weights), kernel.rows


def cluster_logliks(
    dataset: Dataset, params: ParameterVector, link: LinkFamily, rule=None
) -> np.ndarray:
    """Per-cluster log-likelihood vector, in cluster order: each cluster
    takes its row's marginal log-likelihood (see ``_marginal_rows``)."""
    values, rows = _marginal_rows(dataset, params, link, rule)
    return values[rows.index]


def total_loglik(
    dataset: Dataset, params: ParameterVector, link: LinkFamily, rule=None
) -> float:
    """Dataset log-likelihood: the kernel's weighted total of its rows, as
    a fit's pass forms it (``LoglikKernel``), so on a fit's rule it is the
    fit's ``loglik`` at its estimates bit for bit, unless the fit reports a
    standard deviation as 0 on its bound."""
    values, rows = _marginal_rows(dataset, params, link, rule)
    return float((values * rows.multiplicity).sum())
