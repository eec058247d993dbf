"""Maximum-likelihood fitting, standard errors, and random-effect prediction.

The optimizer (L-BFGS-B) works on an unconstrained parameterization (log
standard deviations, atanh correlation) with the analytic score: the
posterior-weighted average of the conditional score over the quadrature
nodes, mapped to the parameters by the chain rule. Standard errors come
from the observed information, formed in one kernel pass by Louis'
identity: each cluster's Hessian is the posterior mean of the conditional
Hessian plus the posterior covariance of the conditional score, on the same
nodes. The same chain rule maps it to the parameters, and the delta method
to the reported scale. Proportional-odds proposals outside the feasible
region evaluate to -inf and simply shrink the line-search step.
Empirical-Bayes modes come from Newton steps on each link's closed-form
score and curvature.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.optimize import minimize
from scipy.special import erfc, softmax

from .likelihood import LoglikKernel
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
_PENALTY = 1e10  # finite stand-in for -inf inside the line search
_LOG_SIGMA_FLOOR = -12.0  # optimizer box, well below the sigma = 0 report threshold
_LOG_SIGMA_ZERO = -8.0  # log sigma below this is reported as sigma = 0
_ATANH_RHO_BOUND = 12.0
_GRAD_TOL = 1e-4
_MAX_ITERATIONS = 500  # L-BFGS-B iterations per attempt
_EB_ORDER = {1: 40, 2: 25}  # nodes per axis of the empirical-Bayes grid, by effect dimension


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
    ones a random-effect model's fixed effects. ``seed`` feeds the jittered
    restarts used when the default start fails to converge.
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
    counts every value-and-score evaluation the fit made: a nested
    homogeneous start fit, if one ran, and every attempt's optimizer and
    convergence check. The standard errors add one information pass of the
    kernel, which is not counted.
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

    def random_effect(self, tail: np.ndarray):
        return self.effect(*[
            math.tanh(t) if corr else math.exp(t) for t, corr in zip(tail.tolist(), self._correlation)
        ])

    def unpack(self, theta: np.ndarray) -> ParameterVector:
        intercepts, slopes, tail = self.split(theta)
        return ParameterVector(
            fixed=FixedEffects(intercepts=intercepts, slopes=slopes), re=self.random_effect(tail)
        )

    def reported(self, theta: np.ndarray) -> np.ndarray:
        out = np.array(theta, dtype=float)
        out[self.n_fixed :] = astuple(self.random_effect(theta[self.n_fixed :]))
        return out

    def delta_jacobian(self, theta: np.ndarray) -> np.ndarray:
        """Diagonal of d(reported)/d(theta) for the delta method."""
        jac = np.ones_like(theta)
        for i, corr in enumerate(self._correlation, self.n_fixed):
            jac[i] = 1.0 - math.tanh(theta[i]) ** 2 if corr else math.exp(theta[i])
        return jac

    def bounds(self) -> list[tuple[float | None, float | None]]:
        return [(None, None)] * self.n_fixed + [
            (-_ATANH_RHO_BOUND, _ATANH_RHO_BOUND) if corr else (_LOG_SIGMA_FLOOR, None)
            for corr in self._correlation
        ]

    def boundary(self, theta: np.ndarray) -> tuple[str, ...]:
        """The random effect's names on their bounds at ``theta``: standard
        deviations below the sigma = 0 report threshold, correlations at
        their box."""
        return tuple(
            name
            for name, corr, t in zip(self.effect.names, self._correlation, theta[self.n_fixed :])
            if (abs(t) > _ATANH_RHO_BOUND - 1e-6 if corr else t < _LOG_SIGMA_ZERO)
        )


class _Objective:
    """Total log-likelihood of the unconstrained vector, with its score.

    The node offsets are standardized nodes z (Q, dim) mapped through the
    random effect's loading A, z A', so one chain rule serves every
    structure; without a random effect they are a single node at 0 with
    weight 1. Calling the objective gives ``(loglik, score)``.
    """

    def __init__(self, kernel: LoglikKernel, param: _Parameterization, order: int):
        self.kernel = kernel
        self.param = param
        self.nodes, self.weights = standard_tensor_grid(order, param.effect.dim)
        self._last = (None, None)

    def _offsets(self, tail):
        """Node offsets (Q, K-1) and their derivatives with respect to each
        variance parameter, each (Q, K-1). Those of the last ``tail`` are
        kept, so a model without variance parameters maps its node once."""
        key = tail.tobytes()
        if key != self._last[0]:
            k1 = self.kernel.n_boundaries
            re = self.param.random_effect(tail)
            # laid out so that the kernel's slot-major view of it is contiguous
            offsets = np.dot(re.loading(k1), self.nodes.T).T
            first = [np.dot(self.nodes, d.T) for d in re.loading_derivatives(k1)]
            self._last = (key, (offsets, first))
        return self._last[1]

    def __call__(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        c, b, tail = self.param.split(theta)
        offsets, derivatives = self._offsets(tail)
        r = self.kernel.marginal_and_score(c, b, offsets, self.weights)
        variance = [np.sum(r.node_score * d) for d in derivatives]
        score = np.concatenate(
            [r.slot_score.sum(axis=0), self.kernel.x.T @ r.slot_score.sum(axis=1), variance]
        )
        return r.loglik, score

    def information(self, theta: np.ndarray) -> np.ndarray:
        """Observed information, the negative Hessian of the log-likelihood,
        at ``theta``, in one kernel pass.

        By Louis' identity each cluster's Hessian is the posterior mean of
        the conditional Hessian plus the posterior covariance of the
        conditional score. The kernel forms them in the coordinates of its
        node features, the derivatives of the boundary predictors with
        respect to the intercepts, the linear predictor x'b and each
        variance parameter. Cluster i's slopes then take x_i times the
        linear predictor's row and column, and the variance parameters add
        the node-summed score times the offsets' second derivatives.
        """
        c, b, tail = self.param.split(theta)
        k1, n_slopes, n_variance = c.size, b.size, tail.size
        offsets, derivatives = self._offsets(tail)
        second = self.param.random_effect(tail).loading_second_derivatives(k1) @ self.nodes.T
        features = np.zeros((self.weights.size, k1, k1 + 1 + n_variance))
        features[:, :, :k1] = np.eye(k1)
        features[:, :, k1] = 1.0
        for t, d in enumerate(derivatives):
            features[:, :, k1 + 1 + t] = d
        m = self.kernel.louis_moments(c, b, offsets, self.weights, features)
        cluster_hess = m.second - m.mean[:, :, None] * m.mean[:, None, :]
        # basis[i] maps the feature coordinates to the parameters for cluster i
        v = k1 + n_slopes
        basis = np.zeros((len(m.mean), self.param.size, features.shape[-1]))
        basis[:, :k1, :k1] = np.eye(k1)
        basis[:, k1:v, k1] = self.kernel.x
        basis[:, v:, k1 + 1 :] = np.eye(n_variance)
        hess = np.einsum("npr,nqr->pq", basis @ cluster_hess, basis)
        hess[v:, v:] += np.einsum("stkq,qk->st", second, m.node_score)
        return -0.5 * (hess + hess.T)


class _Minimand:
    """The optimizer's view of an objective: negative log-likelihood and its
    gradient, counting evaluations.

    A point where the log-likelihood or its score is not finite (an
    infeasible proportional-odds proposal, say) returns _PENALTY with a
    zero gradient. The last point is remembered by its bytes, so the
    optimizer's first call at a start that was just screened, or a
    convergence check at the last iterate, costs nothing.
    """

    def __init__(self, objective: Callable):
        self.objective = objective
        self.calls = 0
        self._memo = None

    def __call__(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        key = theta.tobytes()
        if self._memo is None or key != self._memo[0]:
            self.calls += 1
            value, score = self.objective(theta)
            if np.isfinite(value) and np.all(np.isfinite(score)):
                self._memo = (key, -float(value), -score)
            else:
                self._memo = (key, _PENALTY, np.zeros(theta.size))
        return self._memo[1], self._memo[2].copy()


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
    if np.any(totals == 0):
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
    kernel: LoglikKernel | None = None,
) -> FitResult:
    """Fit with the random-effect class ``effect`` and the covariates named
    in ``slope_names``: all of the dataset's (full model) or none (intercept
    model). ``kernel`` is that model's likelihood kernel when the caller
    already built one. An attempt converges when its value is finite and
    its scaled gradient off the bounds is below _GRAD_TOL; if neither the
    start nor three jittered restarts converge, the lowest value is kept."""
    param = _Parameterization(dataset.n_categories - 1, slope_names, effect)
    order = opts.quadrature_order
    if order is None:
        order = DEFAULT_ORDER_2D if effect.dim == 2 else DEFAULT_ORDER_1D
    if effect.dim and order < 2:
        # one node puts all the effect's mass at 0: its variance never enters
        raise ValueError(f"a random effect needs a quadrature order of at least 2, got {order}")

    if kernel is None:
        columns = [dataset.slope_names().index(name) for name in slope_names]
        kernel = LoglikKernel(dataset, link, dataset.covariate_matrix[:, columns])
    objective = _Objective(kernel, param, order)
    theta0, start_evaluations = _starting_point(dataset, link, opts, param, slope_names, kernel)
    negloglik = _Minimand(objective)

    bounds = param.bounds()
    rng = np.random.default_rng(np.random.SeedSequence(0 if opts.seed is None else opts.seed))
    best = None
    converged = False
    for attempt in range(4):
        start = theta0 if attempt == 0 else theta0 + 0.3 * rng.standard_normal(param.size)
        if negloglik(start)[0] >= _PENALTY:
            continue
        res = minimize(
            negloglik,
            start,
            method="L-BFGS-B",
            jac=True,
            bounds=bounds,
            options=dict(
                maxiter=_MAX_ITERATIONS,
                ftol=1e-13,
                gtol=1e-7,
                maxcor=25,
                maxls=60,
            ),
        )
        grad = -negloglik(res.x)[1]
        scale = max(1.0, abs(res.fun))
        scaled_grad = np.abs(grad) * np.maximum(1.0, np.abs(res.x)) / scale
        at_bound = _active_bounds(res.x, bounds)
        ok = res.fun < _PENALTY and bool(np.all(scaled_grad[~at_bound] < _GRAD_TOL))
        if ok or best is None or res.fun < best[0].fun:
            best = (res, grad, scaled_grad)
        if ok:
            converged = True
            break

    if best is None:
        raise ValueError(
            "no feasible starting point: the log-likelihood is -inf at the "
            "supplied starting values and at every jittered restart"
        )
    res, grad, scaled_grad = best
    theta_hat = res.x
    loglik = -float(res.fun)

    diagnostics: dict = {
        "gradient_max_scaled": float(np.abs(scaled_grad).max()),
        "optimizer_message": str(res.message),
    }
    boundary = param.boundary(theta_hat)
    if boundary:
        diagnostics["boundary"] = boundary

    covariance = None
    se = np.full(param.size, np.nan)
    if opts.standard_errors:
        jac = param.delta_jacobian(theta_hat)
        try:
            cov_theta = _inverse_information(objective.information(theta_hat))
        except CovarianceUnavailableError as err:
            if np.all(np.isfinite(err.information)):
                cov_theta = _clipped_covariance(err.information)
            else:
                cov_theta = np.full((param.size, param.size), np.nan)
            diagnostics["covariance_note"] = "pseudo-inverse (information not positive definite)"
            diagnostics["information_eigenvalues"] = tuple(float(v) for v in err.eigenvalues)
        covariance = cov_theta * np.outer(jac, jac)
        se = np.sqrt(np.maximum(np.diag(covariance), 0.0))

    values = param.reported(theta_hat)
    # a standard deviation on its bound is reported as 0; the delta method
    # has no meaning there, so it gets no standard error or interval
    at_zero = [name for name in boundary if name not in effect.correlations]
    index = [param.n_fixed + effect.names.index(name) for name in at_zero]
    values[index] = 0.0
    se[index] = np.nan

    with np.errstate(divide="ignore", invalid="ignore"):
        z = values / se
        p_values = erfc(np.abs(z) / np.sqrt(2.0))

    estimates = param.unpack(theta_hat)
    if at_zero:
        estimates = replace(estimates, re=replace(estimates.re, **dict.fromkeys(at_zero, 0.0)))

    return FitResult(
        estimates=estimates,
        link=link,
        re_structure=effect.structure,
        names=param.names,
        values=values,
        se=se,
        covariance=covariance,
        loglik=loglik,
        converged=converged,
        iterations=int(res.nit),
        n_evaluations=start_evaluations + negloglik.calls,
        p_values=p_values,
        ci_lower=values - Z_95 * se,
        ci_upper=values + Z_95 * se,
        n_parameters=param.size,
        n_fixed_parameters=param.n_fixed,
        diagnostics=diagnostics,
    )


def _active_bounds(theta: np.ndarray, bounds) -> np.ndarray:
    active = np.zeros(theta.size, dtype=bool)
    for i, (lo, hi) in enumerate(bounds):
        if lo is not None and theta[i] <= lo + 1e-9:
            active[i] = True
        if hi is not None and theta[i] >= hi - 1e-9:
            active[i] = True
    return active


def _starting_point(
    dataset: Dataset,
    link: LinkFamily,
    opts: FitOptions,
    param: _Parameterization,
    slope_names: tuple[str, ...],
    kernel: LoglikKernel,
) -> tuple[np.ndarray, int]:
    """Starting vector and the evaluations spent finding it.

    ``opts.starting_values`` of the model's own effect class are the start
    as given. A random-effect model starts its fixed effects at a
    homogeneous fit, taken from homogeneous ``starting_values`` or else
    fitted on the same kernel, and its own parameters at the class's
    default. Starting values of any other structure are ignored."""
    start, evaluations = opts.starting_values, 0
    if start is None or type(start.re) not in (param.effect, NoRandomEffect):
        if param.effect is NoRandomEffect:
            # feasible intercepts from the pooled category proportions
            totals = dataset.count_matrix.sum(axis=0).astype(float)
            p = np.clip(totals / totals.sum(), 1e-6, None)
            intercepts = recover_predictors(link, p / p.sum())
            return np.concatenate([intercepts, np.zeros(param.n_slopes)]), 0
        base_opts = replace(opts, starting_values=None, standard_errors=False)
        base = _fit_impl(dataset, link, NoRandomEffect, base_opts, slope_names, kernel)
        start, evaluations = base.estimates, base.n_evaluations
    if start.fixed.intercepts.size != param.n_intercepts or start.fixed.slopes.size != param.n_slopes:
        raise ValueError("starting values do not match the model dimensions")
    if type(start.re) is not param.effect:
        start = ParameterVector(fixed=start.fixed, re=param.effect.start())
    return param.pack(start), evaluations


def fit(
    dataset: Dataset,
    link: LinkFamily,
    re_structure: str = "none",
    opts: FitOptions = FitOptions(),
) -> FitResult:
    """Maximize the marginal (or conditional) log-likelihood.

    Random-effect fits start at a homogeneous fit's fixed effects, with the
    standard deviations at 0.5 and the correlation at 0. Non-convergence
    after the jittered restarts is reported in the result, not raised.
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
    log-density (Newton search seeded by a node-grid scan); ``mean`` is the
    posterior mean computed by quadrature, on 40 nodes or a 25 x 25 grid.
    Returns shape (n, K-1); a univariate effect is replicated across the
    slots.
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
    kernel = LoglikKernel(dataset, link)
    fe = params.fixed
    z, weights = standard_tensor_grid(_EB_ORDER[re.dim], re.dim)
    offsets = z @ loading.T
    grid_ll = kernel.node_logliks(fe.intercepts, fe.slopes, offsets)
    if method == "mean":
        return softmax(grid_ll + np.log(weights)[None, :], axis=1) @ offsets
    seeds = z[np.argmax(grid_ll - 0.5 * (z**2).sum(axis=1)[None, :], axis=1)]
    return _posterior_modes(kernel, fe, loading, seeds)


def _posterior_modes(kernel, fe, loading, z) -> np.ndarray:
    """Posterior-mode predictor offsets, shape (n, K-1), for standardized
    effects z (n, r) whose offsets are z @ loading.T, by Newton ascent from
    the seeds z.

    The log posterior is the conditional log-likelihood plus the standard
    normal log-density of z, so its gradient is loading' g - z and its
    Hessian loading' H loading - I, with g and H the link's closed-form
    score and curvature with respect to the boundary predictors. Steps are
    clipped to 1 in each coordinate.
    """
    identity = np.eye(loading.shape[1])
    for _ in range(80):
        terms = kernel.conditional_terms(fe.intercepts, fe.slopes, z @ loading.T)
        grad = terms.score @ loading - z
        step = _newton_step(grad, loading.T @ terms.curvature @ loading - identity)
        np.clip(step, -1.0, 1.0, out=step)
        z = z + step
        if np.max(np.abs(grad)) < 1e-8:
            break
    return z @ loading.T


def _newton_step(grad, hess):
    """Newton ascent steps for every row: -hess^-1 grad, or the gradient
    itself where that is not finite or not an ascent direction."""
    try:
        step = np.linalg.solve(-hess, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(grad) == 1:
            return grad.copy()
        # one singular matrix fails the whole batch: solve row by row
        return np.concatenate([_newton_step(grad[[i]], hess[[i]]) for i in range(len(grad))])
    bad = ~np.all(np.isfinite(step), axis=1) | ((grad * step).sum(axis=1) < 0)
    step[bad] = grad[bad]
    return step


def empirical_bayes(cluster: Cluster, fit_result: FitResult, link: LinkFamily) -> np.ndarray:
    """Posterior-mode random-effect prediction for one cluster, as a vector
    with one entry per predictor slot."""
    ds = Dataset(clusters=(cluster,))
    return predict_random_effects(ds, fit_result.estimates, link, method="mode")[0]
