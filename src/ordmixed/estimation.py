"""Maximum-likelihood fitting, standard errors, and random-effect prediction.

The fit works on an unconstrained parameterization (log standard
deviations, atanh correlation) by damped, projected Newton-Raphson on the
exact observed information, as MIXOR fits by Fisher scoring. One kernel
pass gives the log-likelihood, the score and the information together: by
Louis' identity each cluster's Hessian is the posterior mean of the
conditional Hessian plus the posterior covariance of the conditional
score, on the same nodes, and the score is the posterior mean of the
conditional score; without a random effect the pass is the conditional
one at a single node. The kernel works in the boundary predictors and the
free entries of the random effect's loading, in which its node features do
not depend on the point, so they and their pair products are built once per
fit. The kernel evaluates each distinct (covariate pattern, counts) cluster
once; the fit sums its moments, each weighted by its multiplicity, by
covariate pattern, and the chain rule maps them to the parameters through
one Jacobian J per pattern, built once per fit (``_Objective``), of which a
pass rewrites only the entries' derivatives. The delta method maps the
covariance to the reported scale. A random-effect fit starts at the
homogeneous maximum of its link and covariates, which the dataset keeps
(``Dataset.homogeneous_maxima``) from the first fit that reaches it, so
later fits take it with no passes. Each Newton step is capped, projected
onto the box of the variance parameters and halved until the
log-likelihood does not fall; proportional-odds proposals outside the
feasible region evaluate to -inf and so are halved too. A trial that
falls below the current point stops as soon as its log-likelihood shows
it, before its score and curvature. Newton alone decides the fit: where
it gives up, the fit reports its last accepted point, which the
convergence test then judges like any other, except that a fit that
reached the iteration cap has not converged. The standard errors come
from the information of that point's pass.
Empirical-Bayes modes come from Newton steps on each link's closed-form
score and curvature, seeded at each cluster's posterior mean and halved
for any cluster whose log posterior a step would lower; they run on the
kernel's distinct clusters, as the fit does.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .likelihood import LoglikKernel, model_kernel
from .model import (
    Cluster,
    Dataset,
    FixedEffects,
    LinkFamily,
    NoRandomEffect,
    ParameterVector,
    random_effect_class,
    recover_predictors,
)
from .quadrature import (
    DEFAULT_ORDER_1D,
    DEFAULT_ORDER_2D,
    gauss_hermite,  # noqa: F401  (instrumentation looks the rule up here)
    standard_tensor_grid,
)

Z_95 = 1.96
_LOG_SIGMA_FLOOR = -12.0  # optimizer box, well below the sigma = 0 report threshold
_LOG_SIGMA_ZERO = -8.0  # log sigma below this is reported as sigma = 0
_ATANH_RHO_BOUND = 12.0
_GRAD_TOL = 1e-4
_NEWTON_ITERATIONS = 50  # Newton steps before the fit gives up, not converged
_NEWTON_HALVINGS = 30  # halvings of one Newton step before the same
_NEWTON_DECREMENT = 1e-10  # g' I^-1 g at which Newton stops
_EIGEN_FLOOR = 1e-6  # |eigenvalue| floor of an indefinite information, relative to the largest
_LOG_SIGMA_FALLING = -3.0  # log sigma below which a falling step tries the floor
_EB_ORDER = {1: 40, 2: 25}  # nodes per axis of the posterior-mean grid, by effect dimension
_EB_ITERATIONS = 80  # kernel passes of the posterior-mode search before it gives up


class EstimationDegenerateError(ValueError):
    """Raised when a category is never observed anywhere in the data."""


class CovarianceUnavailableError(RuntimeError):
    """Negative Hessian is singular or indefinite at the given point.

    ``information`` carries the negative Hessian itself when known, so a
    caller can apply another inversion policy without recomputing it."""

    def __init__(self, message: str, eigenvalues: np.ndarray, information: np.ndarray | None = None):
        super().__init__(message)
        self.eigenvalues = np.asarray(eigenvalues)
        self.information = information


@dataclass(frozen=True)
class FitOptions:
    """Controls for the integration rule, the start and the output.

    ``quadrature_order`` of None picks 30 nodes for a univariate effect and
    12 per axis for a bivariate effect; a random effect needs at least 2.
    ``starting_values`` of the model's structure are the start, homogeneous
    ones a random-effect model's fixed effects, which otherwise start at the
    homogeneous maximum, with no nested passes once the dataset's memo has
    it. ``seed`` has no effect: the fit draws no random numbers, and the
    field stays for callers that set it.
    """

    quadrature_order: int | None = None
    starting_values: ParameterVector | None = None
    seed: int | None = None
    standard_errors: bool = True

    def __post_init__(self):
        if self.quadrature_order is not None and self.quadrature_order < 1:
            raise ValueError("quadrature_order must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """A fitted model: estimates with uncertainty and diagnostics.

    ``names`` orders the reported parameters (intercepts, slopes, then
    variance components); ``covariance`` is on the reported scale. The
    95% interval is estimate +- 1.96 standard errors. A standard deviation
    on its bound (listed in ``diagnostics["boundary"]``) is reported as 0
    with NaN standard error, interval and p-value. ``n_evaluations``
    counts every kernel pass, each of which gives the value, the score and
    the information: those of a nested homogeneous start fit, if one ran
    (none does for a start from the dataset's memo), and of Newton.
    ``diagnostics["information_passes"]`` repeats that count, and
    ``diagnostics["optimizer_message"]`` names why Newton stopped. A fit
    where Newton gave up reports the last point it accepted; ``converged``
    is False if it reached the iteration cap, and is otherwise the same
    scaled-gradient test there, usually False.
    """

    estimates: ParameterVector
    link: LinkFamily
    re_structure: str
    names: tuple[str, ...]
    values: np.ndarray
    se: np.ndarray
    covariance: np.ndarray | None
    loglik: float
    converged: bool
    iterations: int
    n_evaluations: int
    p_values: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    n_parameters: int
    n_fixed_parameters: int
    diagnostics: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.names.index(name)])


class _Parameterization:
    """Maps between the unconstrained optimizer vector and model values.

    The vector holds the intercepts, the slopes and then the random
    effect's names, each on its unconstrained scale: atanh for a
    correlation, log for a standard deviation.
    """

    def __init__(self, n_intercepts: int, slope_names: tuple[str, ...], effect: type):
        self.n_intercepts = n_intercepts
        self.n_slopes = len(slope_names)
        self.n_fixed = n_intercepts + self.n_slopes
        self.effect = effect
        self.names = tuple(f"c{i + 1}" for i in range(n_intercepts)) + tuple(slope_names) + effect.names
        self.n_variance = len(effect.names)
        self.size = len(self.names)
        self._correlation = [name in effect.correlations for name in effect.names]

    def split(self, theta: np.ndarray):
        a = self.n_intercepts
        b = self.n_fixed
        return theta[:a], theta[a:b], theta[b:]

    def pack(self, params: ParameterVector) -> np.ndarray:
        fe = params.fixed
        tail = [
            math.atanh(np.clip(v, -0.999999, 0.999999)) if corr else math.log(max(v, 1e-4))
            for v, corr in zip(astuple(params.re), self._correlation)
        ]
        return np.concatenate([fe.intercepts, fe.slopes, tail])

    def _natural(self, tail: np.ndarray) -> list[float]:
        """The random effect's values from their unconstrained scale."""
        return [math.tanh(t) if corr else math.exp(t) for t, corr in zip(tail.tolist(), self._correlation)]

    def random_effect(self, tail: np.ndarray):
        return self.effect(*self._natural(tail))

    def unpack(self, theta: np.ndarray) -> ParameterVector:
        intercepts, slopes, tail = self.split(theta)
        return ParameterVector(
            fixed=FixedEffects(intercepts=intercepts, slopes=slopes), re=self.random_effect(tail)
        )

    def reported(self, theta: np.ndarray) -> np.ndarray:
        out = np.array(theta, dtype=float)
        out[self.n_fixed :] = self._natural(theta[self.n_fixed :])
        return out

    def delta_jacobian(self, theta: np.ndarray) -> np.ndarray:
        """Diagonal of d(reported)/d(theta) for the delta method."""
        jac = np.ones_like(theta)
        for i, corr in enumerate(self._correlation, self.n_fixed):
            jac[i] = 1.0 - math.tanh(theta[i]) ** 2 if corr else math.exp(theta[i])
        return jac

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds of the vector, infinite where it has none."""
        lower = [-_ATANH_RHO_BOUND if corr else _LOG_SIGMA_FLOOR for corr in self._correlation]
        upper = [_ATANH_RHO_BOUND if corr else np.inf for corr in self._correlation]
        return np.array([-np.inf] * self.n_fixed + lower), np.array([np.inf] * self.n_fixed + upper)

    def boundary(self, theta: np.ndarray) -> tuple[str, ...]:
        """The random effect's names on their bounds at ``theta``: standard
        deviations below the sigma = 0 report threshold, correlations at
        their box."""
        return tuple(
            name
            for name, corr, t in zip(self.effect.names, self._correlation, theta[self.n_fixed :])
            if (abs(t) > _ATANH_RHO_BOUND - 1e-6 if corr else t < _LOG_SIGMA_ZERO)
        )


class _Pass(NamedTuple):
    """One kernel pass at a point: the log-likelihood, its score and the
    observed information (the negative Hessian); a pass stopped below its
    floor has an upper bound of the log-likelihood and None for the rest."""

    loglik: float
    score: np.ndarray
    information: np.ndarray

    def finite(self) -> bool:
        return bool(
            math.isfinite(self.loglik)
            and np.isfinite(self.score).all()
            and np.isfinite(self.information).all()
        )


class _Objective:
    """Total log-likelihood of the unconstrained vector, with its score and
    its observed information from one kernel pass, ``full``.

    A pass gives the score s_i and Hessian H_i of each of the kernel's rows,
    its distinct clusters, with respect to its kernel coordinates: the K-1
    boundary predictors, then the free entries a of the random effect's
    loading A = sum_e a_e E_e (one shared sigma for a univariate effect,
    the Cholesky entries l11, l21, l22 for a bivariate one). Each row stands
    for its multiplicity w_i of clusters, and the rows of one covariate
    pattern p, which the kernel keeps adjacent, share the Jacobian J_p
    (r, size) of the coordinates in the vector. So a pass sums w_i s_i and
    w_i H_i over each pattern's rows, S_p and H_p, in one reduction, and its
    score is sum_p J_p' S_p and its Hessian sum_p J_p' H_p J_p plus
    sum_e (d^2 a_e / d theta d theta') times the entry's score summed over
    patterns. J's fixed-effect block is the same at every point and its
    variance block, da/d theta, the same for every pattern, so J is built
    once and a pass writes only that block. The kernel's rows, its
    distinct clusters sorted by (pattern, counts), are the one layout of
    every fit, with or without covariates; where every cluster has a
    pattern of its own, the rows are the patterns and need no sum.

    The node offsets are standardized nodes z (Q, dim) mapped through the
    loading, z A', so one chain rule serves every structure; without a
    random effect they are a single node at 0 with weight 1. In the entries
    the kernel's node features [I | E_e z_q] do not depend on the point, so
    they are built once, read-only, and the kernel forms their pair
    products once per fit. ``passes`` counts the kernel passes. A point
    whose standard deviation overflows the float range is infeasible: its
    log-likelihood is -inf.
    """

    def __init__(self, kernel: LoglikKernel, param: _Parameterization, order: int):
        self.kernel = kernel
        self.param = param
        self.nodes, self.weights = standard_tensor_grid(order, param.effect.dim)
        self._last = (None, None)
        self.passes = 0
        k1, v, x = kernel.n_boundaries, param.n_fixed, kernel.pattern_covariates
        self._multiplicity = kernel.rows.multiplicity.astype(float)
        # the first row of each pattern, None when every cluster is a pattern
        patterns = kernel.row_patterns.first
        self._starts = None if len(patterns) == len(kernel.rows.index) else patterns
        # each entry's pattern applied to each node, E_e z_q, as (K-1, Q, E):
        # slot-major, so that the offsets z A' = sum_e a_e E_e z_q are too
        patterns = param.effect.entry_patterns(k1) @ self.nodes.T
        self._patterns = np.ascontiguousarray(patterns.transpose(1, 2, 0))
        r = k1 + self._patterns.shape[-1]
        self._jacobian = np.zeros((len(x), r, param.size))
        self._jacobian[:, :k1, :k1] = np.eye(k1)
        self._jacobian[:, :k1, k1:v] = x[:, None, :]
        self._features = np.zeros((self.weights.size, k1, r))
        self._features[:, :, :k1] = np.eye(k1)
        self._features[:, :, k1:] = self._patterns.transpose(1, 0, 2)
        self._features.flags.writeable = False

    def _offsets(self, tail):
        """Node offsets (Q, K-1) and the entries' second derivatives,
        (E, n_variance^2), with their first derivatives written to the
        Jacobian's variance block; None when the effect cannot be formed.
        Those of the last ``tail`` are kept, so a model without variance
        parameters maps its node once."""
        key = tail.tobytes()
        if key != self._last[0]:
            try:
                re = self.param.random_effect(tail)
            except OverflowError:  # exp of a log standard deviation beyond 709
                self._last = (key, None)
                return None
            k1, v = self.kernel.n_boundaries, self.param.n_fixed
            self._jacobian[:, k1:, v:] = re.entry_derivatives()
            second = re.entry_second_derivatives()
            second = second.reshape(len(second), tail.size**2)
            self._last = (key, ((self._patterns @ re.entries()).T, second))
        return self._last[1]

    def full(self, theta: np.ndarray, floor: float | None = None) -> _Pass:
        """Log-likelihood, score and observed information at ``theta`` in
        one kernel pass. Without a random effect the fit has one node, where
        the posterior covariance of Louis' identity is zero, so the pass is
        ``conditional_terms``' score and curvature.

        With a ``floor``, a random-effect pass whose log-likelihood is
        certainly below it stops early (``LoglikKernel.louis_moments``) and
        returns an upper bound of its log-likelihood, below the floor, with
        None for the score and information; it still counts as a pass."""
        if self.param.effect.dim:
            return self._louis(theta, floor)
        c, b, _ = self.param.split(theta)
        self.passes += 1
        t = self.kernel.conditional_terms(c, b, np.zeros((1, c.size)))
        loglik = float((t.loglik * self._multiplicity).sum())
        return self._contract(loglik, *self._by_pattern(t.score, t.curvature))

    def _louis(self, theta: np.ndarray, floor: float | None = None) -> _Pass:
        """``full`` by Louis' identity: each cluster's Hessian is the
        posterior mean of the conditional Hessian plus the posterior
        covariance of the conditional score. The kernel forms them in the
        coordinates of the node features; the variance parameters add the
        entries' second derivatives times their scores summed over
        clusters."""
        c, b, tail = self.param.split(theta)
        mapped = self._offsets(tail)
        if mapped is None:
            size = self.param.size
            return _Pass(-np.inf, np.zeros(size), np.full((size, size), np.nan))
        offsets, second = mapped
        self.passes += 1
        m = self.kernel.louis_moments(c, b, offsets, self.weights, self._features, floor)
        if m.mean is None:  # below the floor
            return _Pass(m.loglik, None, None)
        row_hess = m.second  # a fresh array, made the Hessian in place
        row_hess -= m.mean[:, :, None] * m.mean[:, None, :]
        score, hess = self._by_pattern(m.mean, row_hess)
        entry_score = score[:, self.kernel.n_boundaries :].sum(axis=0)
        return self._contract(m.loglik, score, hess, entry_score @ second)

    def _by_pattern(self, score, hess):
        """Each covariate pattern's score (P, r) and Hessian (P, r, r): the
        sums over the kernel's rows of that pattern, which are adjacent,
        each row weighted by its multiplicity; ``hess`` may be written over.
        Where every cluster is a pattern of its own, the rows are the
        patterns already; one pattern, as in an intercept model, is one
        product with the multiplicities, faster than ``np.add.reduceat``
        (5 against 11 us a pass at 28 rows)."""
        if self._starts is None:
            return score, hess
        w = self._multiplicity
        if len(self._starts) == 1:
            return (w @ score)[None], (w @ hess.reshape(len(w), -1)).reshape(1, *hess.shape[1:])
        hess *= w[:, None, None]
        return np.add.reduceat(score * w[:, None], self._starts), np.add.reduceat(hess, self._starts)

    def _contract(self, loglik, score, hess, variance=None) -> _Pass:
        """The pass in the parameters, from each pattern's score (P, r) and
        Hessian (P, r, r) and the variance parameters' extra Hessian term,
        flattened (n_variance^2,): sum_p J_p' s_p and sum_p J_p' H_p J_p."""
        jac = self._jacobian
        flat = jac.reshape(-1, self.param.size)
        out = flat.T @ np.matmul(hess, jac).reshape(flat.shape)
        if variance is not None:
            v, t = self.param.n_fixed, self.param.n_variance
            out[v:, v:] += variance.reshape(t, t)
        out += out.T
        out *= -0.5
        return _Pass(loglik, score.ravel() @ flat, out)


def _central_gradient(f: Callable, theta: np.ndarray, rel_step: float = 1e-5) -> np.ndarray:
    grad = np.empty_like(theta)
    for i in range(theta.size):
        h = rel_step * max(1.0, abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (f(up) - f(dn)) / (2.0 * h)
    return grad


def _information(gradient: Callable, at: np.ndarray) -> np.ndarray:
    """Negative Hessian by central differences of a gradient, with
    per-coordinate step max(1e-4, 1e-4 |theta_i|), symmetrized."""
    h = np.maximum(1e-4, 1e-4 * np.abs(at))
    hess = np.empty((at.size, at.size))
    for j in range(at.size):
        up, dn = at.copy(), at.copy()
        up[j] += h[j]
        dn[j] -= h[j]
        hess[:, j] = (np.asarray(gradient(up)) - np.asarray(gradient(dn))) / (2.0 * h[j])
    return -0.5 * (hess + hess.T)


def numerical_covariance(
    objective: Callable, at: np.ndarray, gradient: Callable | None = None
) -> np.ndarray:
    """Inverse negative Hessian of a log-likelihood-style objective.

    The Hessian is central differences of ``gradient`` (2p gradient calls),
    which defaults to central differences of ``objective``. A singular or
    indefinite negative Hessian raises CovarianceUnavailableError carrying
    the eigenvalues and the matrix. The fit itself uses its objective's
    closed-form information instead.
    """
    at = np.asarray(at, dtype=float)
    if gradient is None:

        def gradient(t):
            return _central_gradient(objective, t)

    return _inverse_information(_information(gradient, at))


def _inverse_information(info: np.ndarray) -> np.ndarray:
    """Inverse of an information matrix; a singular or indefinite one raises
    CovarianceUnavailableError carrying the eigenvalues and the matrix."""
    eig = np.linalg.eigvalsh(info) if np.all(np.isfinite(info)) else np.full(len(info), np.nan)
    if not np.all(np.isfinite(eig)) or eig.min() <= 0.0:
        raise CovarianceUnavailableError(
            "negative Hessian is singular or indefinite", eigenvalues=eig, information=info
        )
    return np.linalg.inv(info)


def _clipped_covariance(info: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of the information matrix, the fallback when it is
    not positive definite (variance components on the boundary)."""
    eigval, eigvec = np.linalg.eigh(info)
    floor = max(1e-10, 1e-10 * abs(eigval).max())
    inv = np.where(eigval > floor, 1.0 / np.maximum(eigval, floor), 0.0)
    return (eigvec * inv) @ eigvec.T


def _validate_data(dataset: Dataset, re_structure: str) -> type:
    """The random-effect class of ``re_structure``, once the data can carry
    it: the effect fits K and every category is observed somewhere."""
    effect = random_effect_class(re_structure)
    effect.check_boundaries(dataset.n_categories - 1)
    totals = dataset.count_matrix.sum(axis=0)
    if not totals.all():
        empty = [int(k) + 1 for k in np.flatnonzero(totals == 0)]
        raise EstimationDegenerateError(
            f"categories never observed anywhere in the data: {empty}"
        )
    return effect


def _fit_impl(
    dataset: Dataset,
    link: LinkFamily,
    effect: type,
    opts: FitOptions,
    slope_names: tuple[str, ...],
) -> FitResult:
    """Fit with the random-effect class ``effect`` and the covariates named
    in ``slope_names``: all of the dataset's (full model) or none (intercept
    model). Damped Newton decides the fit, and ``_convergence`` judges the
    point where it stopped."""
    param = _Parameterization(dataset.n_categories - 1, slope_names, effect)
    order = opts.quadrature_order
    if order is None:
        order = DEFAULT_ORDER_2D if effect.dim == 2 else DEFAULT_ORDER_1D
    if effect.dim and order < 2:
        # one node puts all the effect's mass at 0: its variance never enters
        raise ValueError(f"a random effect needs a quadrature order of at least 2, got {order}")

    kernel = LoglikKernel(dataset, link, covariates=bool(slope_names))
    objective = _Objective(kernel, param, order)
    theta0, nested_passes = _starting_point(dataset, link, opts, param, slope_names, kernel)

    bounds = param.bounds()
    optimum = _newton(objective, theta0, bounds)
    converged, scaled_grad = _convergence(optimum, bounds)
    theta_hat = optimum.theta

    diagnostics: dict = {
        "gradient_max_scaled": float(scaled_grad.max()),
        "optimizer_message": optimum.message,
    }
    boundary = param.boundary(theta_hat)
    if boundary:
        diagnostics["boundary"] = boundary

    covariance = None
    se = np.full(param.size, np.nan)
    if opts.standard_errors:
        jac = param.delta_jacobian(theta_hat)
        try:
            cov_theta = _inverse_information(optimum.information)
        except CovarianceUnavailableError as err:
            if np.all(np.isfinite(err.information)):
                cov_theta = _clipped_covariance(err.information)
            else:
                cov_theta = np.full((param.size, param.size), np.nan)
            diagnostics["covariance_note"] = "pseudo-inverse (information not positive definite)"
            diagnostics["information_eigenvalues"] = tuple(float(v) for v in err.eigenvalues)
        covariance = cov_theta * np.outer(jac, jac)
        se = np.sqrt(np.maximum(np.diag(covariance), 0.0))
    n_evaluations = objective.passes + nested_passes
    diagnostics["information_passes"] = n_evaluations

    values = param.reported(theta_hat)
    # a standard deviation on its bound is reported as 0; the delta method
    # has no meaning there, so it gets no standard error or interval
    at_zero = [name for name in boundary if name not in effect.correlations]
    index = [param.n_fixed + effect.names.index(name) for name in at_zero]
    values[index] = 0.0
    se[index] = np.nan

    with np.errstate(divide="ignore", invalid="ignore"):
        z = values / se
    # erfc keeps the NaN z of a standard deviation at 0 and maps an infinite z to 0
    p_values = np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in z.tolist()])

    estimates = param.unpack(theta_hat)
    if at_zero:
        estimates = replace(estimates, re=replace(estimates.re, **dict.fromkeys(at_zero, 0.0)))
    if not effect.dim and opts.starting_values is None:  # Newton from the pooled start
        dataset.homogeneous_maxima.setdefault((link, bool(slope_names)), estimates)

    return FitResult(
        estimates=estimates,
        link=link,
        re_structure=effect.structure,
        names=param.names,
        values=values,
        se=se,
        covariance=covariance,
        loglik=optimum.loglik,
        converged=converged,
        iterations=optimum.iterations,
        n_evaluations=n_evaluations,
        p_values=p_values,
        ci_lower=values - Z_95 * se,
        ci_upper=values + Z_95 * se,
        n_parameters=param.size,
        n_fixed_parameters=param.n_fixed,
        diagnostics=diagnostics,
    )


class _Optimum(NamedTuple):
    """Where Newton stopped: the point, its log-likelihood, score and
    information, the accepted steps and why it stopped."""

    theta: np.ndarray
    loglik: float
    score: np.ndarray
    information: np.ndarray
    iterations: int
    message: str


def _convergence(optimum: _Optimum, bounds) -> tuple[bool, np.ndarray]:
    """The fit's one convergence test, and the scaled gradient it reads:
    |score_i| max(1, |theta_i|) / max(1, |loglik|) below _GRAD_TOL on every
    coordinate off its bounds, for a Newton that stopped before its
    iteration cap. A runaway that reaches the cap can pass the gradient
    test on its flat log-likelihood, so a capped fit has not converged."""
    theta = optimum.theta
    scaled = np.abs(optimum.score) * np.maximum(1.0, np.abs(theta)) / max(1.0, abs(optimum.loglik))
    lower, upper = bounds
    inside = (theta > lower + 1e-9) & (theta < upper - 1e-9)
    capped = optimum.iterations >= _NEWTON_ITERATIONS
    return not capped and bool((scaled[inside] < _GRAD_TOL).all()), scaled


def _newton(objective: _Objective, theta: np.ndarray, bounds) -> _Optimum:
    """Damped projected Newton-Raphson ascent on the observed information.

    Each iteration solves on the free coordinates, those not held on a
    bound by a score that points out of the box; an indefinite or singular
    information gets the eigenvalue-modified solve. The step is capped at 1
    in max-norm, projected onto the box and halved until the log-likelihood
    does not fall. Once the step lowers a log standard deviation that is
    already below _LOG_SIGMA_FALLING, it is first tried with every log
    standard deviation it lowers at the floor, and kept if the
    log-likelihood does not fall and the score there, along the direction in
    which they fell, points out of the box. Near sigma = 0 the
    log-likelihood is close to a sigma^2, so a sigma that belongs at 0 would
    otherwise fall by about 0.5 in log per step; the sigmas of a bivariate
    effect fall together. After one refused trial the fit tries the floor no
    more. Every point is evaluated by ``objective.full``, so an accepted
    step carries the next iteration's information. Each trial passes the
    current log-likelihood to ``objective.full`` as its floor: a trial that
    certainly falls below it stops after its log-likelihood, all that the
    line search reads of a rejected trial, and skips the link's score and
    curvature and the posterior and Jacobian contractions; it still counts
    as a pass, so the fit is the same, pass for pass, as without the floor.
    Each pass evaluates the dataset's distinct clusters once, weighted by
    their multiplicities, and contracts per covariate pattern
    (``_Objective``). Stops when the Newton
    decrement g' I^-1 g is below _NEWTON_DECREMENT with a positive-definite
    information, or, with a semidefinite one, when the decrement on its
    identified eigen-directions is below it and the score along the
    near-null ones passes the convergence test. Otherwise it gives up: at a
    step whose score or information is not finite, with the halvings
    exhausted, or at the iteration cap. Returns the last accepted point with
    the pass that evaluated it, and a message that names why Newton
    stopped. A start whose pass is not finite raises ValueError.
    """
    lower, upper = bounds
    at_lower, at_upper = lower + 1e-9, upper - 1e-9
    log_sd = (lower == _LOG_SIGMA_FLOOR) & (upper == np.inf)  # a correlation's box is finite
    try_floor = bool(log_sd.any())
    current = objective.full(theta)
    if not current.finite():
        raise ValueError(
            "no feasible starting point: the log-likelihood, its score or its "
            "information is not finite at the starting values"
        )
    accepted, stop = 0, f"reached {_NEWTON_ITERATIONS} iterations"
    while accepted < _NEWTON_ITERATIONS:
        g = current.score
        pinned = ((theta <= at_lower) & (g <= 0.0)) | ((theta >= at_upper) & (g >= 0.0))
        # with no coordinate pinned, the usual case, the solve takes whole arrays
        free = ~pinned if pinned.any() else slice(None)
        direction, decrement, null_score = _ascent_direction(
            g[free], current.information[free][:, free]
        )
        if decrement is not None and decrement < _NEWTON_DECREMENT:
            if null_score is None:
                stop = f"decrement below {_NEWTON_DECREMENT:g}"
                break
            # the convergence test's scaling, on the near-null directions
            scaled = np.abs(null_score) * np.maximum(1.0, np.abs(theta[free]))
            if np.all(scaled < _GRAD_TOL * max(1.0, abs(current.loglik))):
                stop = f"decrement below {_NEWTON_DECREMENT:g} on the identified directions"
                break
        step = np.zeros(theta.size)
        step[free] = direction / max(1.0, np.abs(direction).max())
        floored = log_sd & (step < 0.0)
        trial = None
        if try_floor and (theta[floored] < _LOG_SIGMA_FALLING).any():
            candidate = np.minimum(np.maximum(theta + step, lower), upper)
            candidate[floored] = lower[floored]
            trial = objective.full(candidate, current.loglik)
            # the sigmas belong at 0 only if the floor gains and the score
            # there, along the direction in which they fell, points out of
            # the box; otherwise the maximum is inside
            if not (trial.loglik >= current.loglik and trial.score[floored].sum() <= 0.0):
                trial, try_floor = None, False
        if trial is None:
            for _ in range(_NEWTON_HALVINGS):
                candidate = np.minimum(np.maximum(theta + step, lower), upper)
                trial = objective.full(candidate, current.loglik)
                if trial.loglik >= current.loglik:
                    break
                step *= 0.5
            else:
                stop = f"exhausted {_NEWTON_HALVINGS} step halvings"
                break
        if not trial.finite():
            stop = "met a non-finite score or information"
            break
        theta, current = candidate, trial
        accepted += 1
    message = f"Newton: {stop}"
    return _Optimum(theta, current.loglik, current.score, current.information, accepted, message)


def _ascent_direction(g: np.ndarray, info: np.ndarray) -> tuple[np.ndarray, float | None, np.ndarray | None]:
    """The Newton direction I^-1 g and the decrement g' I^-1 g for a
    positive-definite information I, one that has a Cholesky factor, with
    None. Otherwise the direction with each eigenvalue replaced by its
    absolute value, floored at _EIGEN_FLOOR times the largest; when no
    eigenvalue is below minus that floor, the information is semidefinite,
    and the decrement on the eigen-directions above the floor comes with the
    score along the others, the near-null directions. An indefinite
    information gives no decrement and None."""
    try:
        np.linalg.cholesky(info)  # the test of positive definiteness
    except np.linalg.LinAlgError:
        pass
    else:
        direction = np.linalg.solve(info, g)
        return direction, float(g @ direction), None
    eigval, eigvec = np.linalg.eigh(info)
    magnitude = np.abs(eigval)
    floor = _EIGEN_FLOOR * magnitude.max()
    projected = eigvec.T @ g
    direction = eigvec @ (projected / np.maximum(magnitude, floor))
    if eigval.min() < -floor:
        return direction, None, None
    identified = eigval > floor
    decrement = float(np.sum(projected[identified] ** 2 / eigval[identified]))
    return direction, decrement, eigvec[:, ~identified] @ projected[~identified]


def _starting_point(
    dataset: Dataset,
    link: LinkFamily,
    opts: FitOptions,
    param: _Parameterization,
    slope_names: tuple[str, ...],
    kernel: LoglikKernel,
) -> tuple[np.ndarray, int]:
    """Starting vector and the kernel passes of the nested homogeneous fit
    that found it, 0 if none ran.

    ``opts.starting_values`` of the model's own effect class are the start
    as given. A random-effect model starts its fixed effects at a
    homogeneous maximum: homogeneous ``starting_values``, else the
    dataset's memo (``Dataset.homogeneous_maxima``), with no nested passes,
    else the one Newton finds on the same kernel from the pooled start, put
    in the memo; its own parameters start at the class's default. Starting
    values of any other structure are ignored."""
    start, passes = opts.starting_values, 0
    if start is None or type(start.re) not in (param.effect, NoRandomEffect):
        start = dataset.homogeneous_maxima.get((link, bool(slope_names)))
        if start is None or param.effect is NoRandomEffect:
            # feasible intercepts from the pooled category proportions
            totals = dataset.count_matrix.sum(axis=0).astype(float)
            p = np.maximum(totals / totals.sum(), 1e-6)
            theta = np.concatenate([recover_predictors(link, p / p.sum()), np.zeros(param.n_slopes)])
            if param.effect is NoRandomEffect:
                return theta, 0
            homogeneous = _Parameterization(param.n_intercepts, slope_names, NoRandomEffect)
            nested = _Objective(kernel, homogeneous, 1)
            start = homogeneous.unpack(_newton(nested, theta, homogeneous.bounds()).theta)
            passes = nested.passes
            dataset.homogeneous_maxima[link, bool(slope_names)] = start
    if start.fixed.intercepts.size != param.n_intercepts or start.fixed.slopes.size != param.n_slopes:
        raise ValueError("starting values do not match the model dimensions")
    if type(start.re) is not param.effect:
        start = ParameterVector(fixed=start.fixed, re=param.effect.start())
    return param.pack(start), passes


def fit(
    dataset: Dataset,
    link: LinkFamily,
    re_structure: str = "none",
    opts: FitOptions = FitOptions(),
) -> FitResult:
    """Maximize the marginal (or conditional) log-likelihood.

    Random-effect fits start at a homogeneous fit's fixed effects, with the
    standard deviations at 0.5 and the correlation at 0. Non-convergence
    is reported in the result, not raised.
    """
    effect = _validate_data(dataset, re_structure)
    return _fit_impl(dataset, link, effect, opts, dataset.slope_names())


def fit_intercept_model(
    dataset: Dataset,
    link: LinkFamily,
    re_structure: str = "none",
    opts: FitOptions = FitOptions(),
) -> FitResult:
    """Fit with every slope fixed at zero, keeping the same random-effect
    structure as the model it will be compared against."""
    effect = _validate_data(dataset, re_structure)
    if opts.starting_values is not None and opts.starting_values.fixed.slopes.size:
        opts = replace(opts, starting_values=None)
    return _fit_impl(dataset, link, effect, opts, ())


def predict_random_effects(
    dataset: Dataset,
    params: ParameterVector,
    link: LinkFamily,
    method: str = "mode",
) -> np.ndarray:
    """Empirical-Bayes random-effect predictions for every cluster.

    ``mode`` maximizes the conditional log-likelihood plus the normal
    log-density by Newton steps with step halving, seeded at each
    cluster's posterior mean on the fit's default rule (30 nodes, or
    12 x 12); ``mean`` is the posterior mean computed by quadrature, on 40
    nodes or a 25 x 25 grid. A prediction depends only on a cluster's
    covariate pattern and counts, so both run on the kernel's rows, its
    distinct clusters, and each cluster takes its row's prediction by
    ``rows.index``. Returns shape (n, K-1); a univariate effect is
    replicated across the slots.
    """
    if method not in ("mode", "mean"):
        raise ValueError(f"unknown prediction method: {method!r}")
    re = params.re
    if not re.dim:
        raise ValueError("random-effect prediction requires a random-effect fit")
    k1 = dataset.n_categories - 1
    loading = re.loading(k1)
    if np.abs(loading).max() <= 1e-8:
        return np.zeros((dataset.n_clusters, k1))
    kernel = model_kernel(dataset, params, link)
    fe = params.fixed
    if method == "mean":
        order = _EB_ORDER[re.dim]
    else:
        order = DEFAULT_ORDER_2D if re.dim == 2 else DEFAULT_ORDER_1D
    z, weights = standard_tensor_grid(order, re.dim)
    offsets = z @ loading.T
    log_posterior = kernel.node_logliks(fe.intercepts, fe.slopes, offsets) + np.log(weights)
    posterior = np.exp(log_posterior - log_posterior.max(axis=1, keepdims=True))
    posterior /= posterior.sum(axis=1, keepdims=True)
    if method == "mean":
        return _row_products(posterior, offsets)[kernel.rows.index]
    modes = _posterior_modes(kernel, fe, loading, _row_products(posterior, z))
    return _row_products(modes, loading.T)[kernel.rows.index]


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with each row of the product summed on its own: BLAS may round
    a row apart by how many rows the product has, so a cluster's prediction
    would depend on how many distinct clusters its kernel has."""
    return np.einsum("nk,kd->nd", a, b)


def _posterior_modes(kernel, fe, loading, z) -> np.ndarray:
    """Posterior modes of the standardized effects of the kernel's rows,
    shape (rows, r), whose offsets are z @ loading.T, by Newton ascent from
    the seeds z, one per row.

    The log posterior is the conditional log-likelihood plus the standard
    normal log-density of z, so its gradient is loading' g - z and its
    Hessian loading' H loading - I, with g and H the link's closed-form
    score and curvature with respect to the boundary predictors; every
    row's loading' H loading is one product of the flattened H with
    loading (x) loading. Every product is summed row by row
    (``_row_products``). Steps are clipped to 1 in each coordinate, and a
    row's step that lowers its log posterior is halved and tried again
    while the other rows step on, so every seed ascends to the mode.
    Each iteration is one kernel pass at the points tried. Once every
    gradient is below 1e-8 the last Newton step is taken untried.
    """
    n, dim = z.shape
    pairs = np.kron(loading, loading)  # ((K-1)^2, dim^2)
    identity = np.eye(dim)
    z, value = np.array(z, dtype=float), np.full(n, -np.inf)
    grad, step = np.full((n, dim), np.inf), np.zeros((n, dim))
    for _ in range(_EB_ITERATIONS):
        trial = z + step
        terms = kernel.conditional_terms(fe.intercepts, fe.slopes, _row_products(trial, loading.T))
        trial_value = terms.loglik - 0.5 * (trial**2).sum(axis=1)
        # a fall within the rounding of the log posterior counts as none
        up = trial_value >= value - 1e-12 * np.abs(value)
        step[~up] *= 0.5
        took = slice(None) if up.all() else up
        z[took], value[took] = trial[took], trial_value[took]
        grad[took] = _row_products(terms.score[took], loading) - z[took]
        curvature = terms.curvature[took]
        hess = _row_products(curvature.reshape(len(curvature), -1), pairs).reshape(-1, dim, dim) - identity
        step[took] = _newton_step(grad[took], hess).clip(-1.0, 1.0)
        if np.abs(grad).max() < 1e-8:
            return z + step
    return z


def _newton_step(grad, hess):
    """Newton ascent steps for every row: -hess^-1 grad, or the gradient
    itself where that is not finite or not an ascent direction. A 1-d
    effect's step is a division where the curvature is negative; elsewhere
    it would not ascend, and is the gradient."""
    if grad.shape[1] == 1:
        curvature = hess[:, :, 0]
        step = np.divide(grad, -curvature, out=grad.copy(), where=curvature < 0.0)
    else:
        try:
            step = np.linalg.solve(-hess, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            if len(grad) == 1:
                return grad.copy()
            # one singular matrix fails the whole batch: solve row by row
            return np.concatenate([_newton_step(grad[[i]], hess[[i]]) for i in range(len(grad))])
    bad = ~np.isfinite(step).all(axis=1) | ((grad * step).sum(axis=1) < 0)
    step[bad] = grad[bad]
    return step


def empirical_bayes(cluster: Cluster, fit_result: FitResult, link: LinkFamily) -> np.ndarray:
    """Posterior-mode random-effect prediction for one cluster, as a vector
    with one entry per predictor slot."""
    ds = Dataset(clusters=(cluster,))
    return predict_random_effects(ds, fit_result.estimates, link, method="mode")[0]
