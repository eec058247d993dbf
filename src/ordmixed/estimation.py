"""Maximum-likelihood fitting, standard errors, and random-effect prediction.

The fit runs damped, projected Newton-Raphson on the exact observed
information, on an unconstrained parameterization (log standard
deviations, atanh correlation), as MIXOR fits by Fisher scoring. One kernel
pass gives the log-likelihood, the score and the information together
(``LoglikKernel.louis_moments``), and ``_Objective`` maps them to the
parameters by its chain rule. One Newton engine, ``_ascend``, serves the
fit, a batch of one (``_maximize``), and the empirical-Bayes modes, a batch
of a kernel's rows (``predict_random_effects``). A random-effect fit starts
at the homogeneous maximum of its link and covariates, which the dataset
keeps (``Dataset.homogeneous_maxima``). The delta method maps the
covariance to the reported scale.
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
# An EB row stops with |gradient|^2 below its largest information times this, so (1e-8)^2 / 100
# keeps its gradient below 1e-8 up to an information of 100. The largest at the rows' stops in
# perfbench's workloads (seed 41, blocks 0-2): 2.7 strawberry panel, 32 study slice, 35 large clusters.
_EB_DECREMENT = 1e-18
_EB_ALLOWANCE = 1e-12  # relative fall of a log posterior within its rounding, taken as none


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


class _Objective:
    """Total log-likelihood of the unconstrained vector, with its score and
    its observed information from one kernel pass, ``full``; ``passes``
    counts the passes.

    The chain rule. A pass gives the score s_i and Hessian H_i of each of
    the kernel's rows with respect to its kernel coordinates: the K-1
    boundary predictors, then the free entries a of the random effect's
    loading A = sum_e a_e E_e (``model._RandomEffectSpec``). Each row
    stands for its multiplicity w_i of clusters, and the rows of one
    covariate pattern p, which are adjacent, share the Jacobian J_p
    (r, size) of the coordinates in the vector. So a pass sums w_i s_i and
    w_i H_i over each pattern's rows, S_p and H_p, in one reduction, and its
    score is sum_p J_p' S_p and its Hessian sum_p J_p' H_p J_p plus
    sum_e (d^2 a_e / d theta d theta') times the entry's score summed over
    patterns. J's fixed-effect block is the same at every point and its
    variance block, da/d theta, the same for every pattern, so J is built
    once and a pass writes only that block.

    The node offsets are standardized nodes z (Q, dim) mapped through the
    loading, z A', so one chain rule serves every structure; without a
    random effect they are a single node at 0 with weight 1. In the entries
    the kernel's node features [I | E_e z_q] do not depend on the point, so
    they are built once, read-only, and the kernel forms their pair
    products once per fit. A point whose standard deviation overflows the
    float range is infeasible: its log-likelihood is -inf.
    """

    def __init__(self, kernel: LoglikKernel, param: _Parameterization, order: int):
        self.kernel = kernel
        self.param = param
        self.nodes, self.weights = standard_tensor_grid(order, param.effect.dim)
        self._last = (None, None)
        self.passes = 0
        k1, v, x = kernel.n_boundaries, param.n_fixed, kernel.pattern_covariates
        # the first row of each pattern, None when every cluster is a pattern
        starts = kernel.rows.starts
        self._starts = None if len(starts) == len(kernel.rows.index) else starts
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
        Only random-effect passes call it. Those of the last ``tail`` are
        kept: the next call meets the same ``tail`` when every variance
        coordinate stays on the bound it stands on, held there or projected
        back, while Newton steps in the fixed effects."""
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

        With a ``floor``, a random-effect pass may stop below it
        (``LoglikKernel.louis_moments``) and return an upper bound of its
        log-likelihood with None for the score and information; it still
        counts as a pass."""
        if self.param.effect.dim:
            return self._louis(theta, floor)
        c, b, _ = self.param.split(theta)
        self.passes += 1
        t = self.kernel.conditional_terms(c, b, np.zeros((1, c.size)))
        loglik = float((t.loglik * self.kernel.multiplicity).sum())
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
        w = self.kernel.multiplicity
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
    ascent = _maximize(objective, theta0, bounds)
    converged, scaled_grad = _convergence(ascent, bounds)
    theta_hat = ascent.point

    diagnostics: dict = {
        "gradient_max_scaled": float(scaled_grad.max()),
        "optimizer_message": f"Newton: {ascent.stops}",
    }
    boundary = param.boundary(theta_hat)
    if boundary:
        diagnostics["boundary"] = boundary

    covariance = None
    se = np.full(param.size, np.nan)
    if opts.standard_errors:
        jac = param.delta_jacobian(theta_hat)
        try:
            cov_theta = _inverse_information(ascent.information)
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
        loglik=float(ascent.value),
        converged=converged,
        iterations=int(ascent.steps),
        n_evaluations=n_evaluations,
        p_values=p_values,
        ci_lower=values - Z_95 * se,
        ci_upper=values + Z_95 * se,
        n_parameters=param.size,
        n_fixed_parameters=param.n_fixed,
        diagnostics=diagnostics,
    )


def _convergence(ascent: _Ascent, bounds) -> tuple[bool, np.ndarray]:
    """The fit's one convergence test, and the scaled gradient it reads:
    |score_i| max(1, |theta_i|) / max(1, |loglik|) below _GRAD_TOL on every
    coordinate off its bounds, for a Newton that stopped before its
    iteration cap. A runaway that reaches the cap can pass the gradient
    test on its flat log-likelihood, so a capped fit has not converged."""
    theta = ascent.point
    scaled = np.abs(ascent.score) * np.maximum(1.0, np.abs(theta)) / max(1.0, abs(ascent.value))
    lower, upper = bounds
    inside = (theta > lower + 1e-9) & (theta < upper - 1e-9)
    capped = ascent.steps >= _NEWTON_ITERATIONS
    return not capped and bool((scaled[inside] < _GRAD_TOL).all()), scaled


class _Ascent(NamedTuple):
    """Where Newton stopped each problem of a batch: its point, shape
    (n, p), its value, score and information there, the Newton direction
    from there, untried (0 for a problem that gave up), the steps it
    accepted and why it stopped."""

    point: np.ndarray
    value: np.ndarray
    score: np.ndarray
    information: np.ndarray
    step: np.ndarray
    steps: np.ndarray
    stops: list


def _maximize(objective: _Objective, theta: np.ndarray, bounds) -> _Ascent:
    """Newton ascent (``_ascend``) of a fit's log-likelihood from ``theta``
    in the box ``bounds``, as a batch of one, and where it stopped that one
    problem. Every point is evaluated by ``objective.full``, so an accepted
    step carries the next iteration's information. Each trial passes the
    current log-likelihood to ``objective.full`` as its floor, so a trial
    that falls below it skips what the line search does not read of it,
    and the fit is the same, pass for pass, as without the floor."""

    def evaluate(points, floors):
        one = objective.full(points[0], None if floors is None else float(floors[0]))
        if one.score is None:  # below its floor
            return np.array([one.loglik]), None, None
        return np.array([one.loglik]), one.score[None], one.information[None]

    return _Ascent(*(field[0] for field in _ascend(evaluate, theta[None], bounds, _NEWTON_DECREMENT)))


def _ascend(evaluate: Callable, start: np.ndarray, bounds, tolerance: float, allowance: float = 0.0) -> _Ascent:
    """Damped, projected Newton ascent on a batch of independent problems
    of p coordinates each, from the rows of ``start`` (n, p): the library's
    one Newton engine. A fit is a batch of one (``_maximize``), and the
    empirical-Bayes modes are a batch of a kernel's rows
    (``predict_random_effects``); the two differ in their callbacks and
    constants only.

    ``evaluate(points, floors)`` evaluates every problem at its row of
    ``points`` (n, p) and returns the values (n,), the scores (n, p) and
    the informations (n, p, p), the negative Hessians. Where a value is
    below its entry of ``floors`` (n,) its score and information are not
    read, and may be None; ``floors`` is None at the start. Each round of
    the search is one call, with the problems still searching at their
    trial points and the others at their current ones.

    Each problem's direction solves on its free coordinates, those not
    held on a bound of the box ``bounds``, the lower and the upper bounds
    of the coordinates, by a score that points out of it
    (``_directions``); every round finds the directions of the whole
    batch, and the problems that start or whose last trial gained take
    theirs. The step is capped at 1 in max-norm, projected onto the box
    and halved until the value does not fall by more than ``allowance``
    relative. Once the step lowers a log standard deviation (a coordinate
    bounded below at _LOG_SIGMA_FLOOR and not above) that is already below
    _LOG_SIGMA_FALLING, it is first tried with every log standard
    deviation it lowers at the floor, and kept if the value does not fall
    and the score there, along the direction in which they fell, points
    out of the box. Near sigma = 0 the log-likelihood is close to a
    sigma^2, so a sigma that belongs at 0 would otherwise fall by about
    0.5 in log per step; the sigmas of a bivariate effect fall together.
    After one refused trial the problem tries the floor no more. With
    infinite bounds the box, the held coordinates and the floor trial do
    nothing.

    A problem stops, and from then on stands at its point, when its Newton
    decrement g' I^-1 g is below ``tolerance`` with a positive-definite
    information, or, with a semidefinite one, when the decrement on its
    identified eigen-directions is below it and the score along the
    near-null ones passes the convergence test's scaling. Otherwise it
    gives up: after _NEWTON_ITERATIONS accepted steps, with _NEWTON_HALVINGS
    halvings of one step exhausted, or at a trial whose score or
    information is not finite. Returns each problem's last accepted point
    with its evaluation, the Newton direction from there, untried (0 for a
    problem that gave up), the steps it accepted and why it stopped. A
    start that is not finite raises ValueError.
    """
    point = np.array(start, dtype=float)
    value, score, information = evaluate(point, None)
    if not (np.isfinite(value).all() and np.isfinite(score).all() and np.isfinite(information).all()):
        raise ValueError("no feasible starting point: the log-likelihood, its score or its "
                         "information is not finite at the starting values")
    n, (lower, upper) = len(point), bounds
    at_lower, at_upper = lower + 1e-9, upper - 1e-9
    log_sd = (lower == _LOG_SIGMA_FLOOR) & (upper == np.inf)  # a correlation's box is finite
    try_floor = np.full(n, log_sd.any())
    step = np.zeros_like(point)
    steps, halvings, stop = np.zeros((3, n), dtype=int)  # stop: 0 while searching, else a code of ``reasons``
    up = np.ones(n, dtype=bool)  # the problems that start, or whose last trial gained
    while True:
        held = ((point <= at_lower) & (score <= 0.0)) | ((point >= at_upper) & (score >= 0.0))
        d, decrement, null = _directions(score, information, held)
        done = (decrement < tolerance).astype(int)  # an indefinite NaN is not below
        for k, near_null in null.items():
            # the convergence test's scaling, on the near-null directions
            scaled = np.abs(near_null) * np.maximum(1.0, np.abs(point[k, ~held[k]]))
            done[k] = 2 if done[k] and np.all(scaled < _GRAD_TOL * max(1.0, abs(value[k]))) else 0
        stop = np.where(up, np.where(steps >= _NEWTON_ITERATIONS, 3, done), stop)
        searching = stop == 0
        if not np.count_nonzero(searching):
            break
        np.copyto(step, d / np.fmax(1.0, np.maximum.reduce(np.abs(d), axis=1, keepdims=True)), where=up[:, None])
        trial = np.minimum(np.maximum(point + step * searching[:, None], lower), upper)
        flooring = []
        low = log_sd & (point < _LOG_SIGMA_FALLING)
        if np.count_nonzero(low):
            floored = log_sd & (step < 0.0)
            flooring = np.flatnonzero(searching & try_floor & (floored & low).any(axis=1))
            trial[flooring] = np.where(floored[flooring], lower, trial[flooring])
        threshold = value - allowance * np.abs(value) if allowance else value
        trial_value, trial_score, trial_information = evaluate(trial, threshold)
        up = searching & (trial_value >= threshold)
        fell = searching & ~up
        for k in flooring:
            # the sigmas belong at 0 only if the floor gains and the score
            # there, along the direction in which they fell, points out of
            # the box; otherwise the maximum is inside, the next round tries
            # the same step without the floor, and the floor is not tried again
            if not (up[k] and trial_score[k, floored[k]].sum() <= 0.0):
                up[k] = fell[k] = try_floor[k] = False
        halvings = (halvings + 1) * fell
        if np.count_nonzero(fell):
            step[fell] *= 0.5
            stop[halvings == _NEWTON_HALVINGS] = 4
        if np.count_nonzero(up):
            # a sum that is not finite, by overflow too, sends the trials to the exact test
            if not np.isfinite(np.add.reduce(trial_score, None) + np.add.reduce(trial_information, None)):
                finite = np.isfinite(trial_score).all(axis=1) & np.isfinite(trial_information).all(axis=(1, 2))
                stop[up & ~finite] = 5
                up &= finite
            point = np.where(up[:, None], trial, point)
            value = np.where(up, trial_value, value)
            score = np.where(up[:, None], trial_score, score)
            information = np.where(up[:, None, None], trial_information, information)
        steps += up
    below = f"decrement below {tolerance:g}"
    reasons = ("", below, f"{below} on the identified directions", f"reached {_NEWTON_ITERATIONS} iterations",
               f"exhausted {_NEWTON_HALVINGS} step halvings", "met a non-finite score or information")
    untried = d * (stop < 3)[:, None]  # the last directions, found at the points where the problems stopped
    return _Ascent(point, value, score, information, untried, steps, [reasons[k] for k in stop.tolist()])


def _directions(g: np.ndarray, info: np.ndarray, held: np.ndarray):
    """The Newton directions I^-1 g of a stack of problems, (n, p), their
    decrements g' I^-1 g, (n,), and, by problem, the score along the
    near-null eigen-directions of a semidefinite information.

    A problem solves on the coordinates that ``held`` does not hold, and
    its direction is 0 on the others. With none held and every information
    positive definite, as usual, one stacked Cholesky test and one stacked
    solve give every direction. Otherwise each problem takes the test
    alone, and an information without a Cholesky factor gives the direction
    with each eigenvalue replaced by its absolute value, floored at
    _EIGEN_FLOOR times the largest. When no eigenvalue is below minus that
    floor, the information is semidefinite, and the decrement on the
    eigen-directions above the floor comes with the score along the
    others; an indefinite information has a decrement of NaN."""
    solved = None
    if not np.count_nonzero(held):
        if g.shape[1] == 1:  # a 1 x 1 Cholesky test is the sign, and LAPACK's solve a division
            solved = g / info[:, 0] if np.count_nonzero(info[:, 0, 0] > 0.0) == len(g) else None
        else:
            try:
                np.linalg.cholesky(info)  # the test of positive definiteness
            except np.linalg.LinAlgError:
                pass
            else:
                solved = np.linalg.solve(info, g[:, :, None])[:, :, 0]
    if solved is not None:
        return solved, np.vecdot(g, solved), {}  # vecdot: the bits of g @ solved
    direction, decrement, null = np.zeros_like(g), np.full(len(g), np.nan), {}
    for k in range(len(g)):
        free = ~held[k]
        gk, ik = g[k, free], info[k][np.ix_(free, free)]
        try:
            np.linalg.cholesky(ik)
        except np.linalg.LinAlgError:
            eigval, eigvec = np.linalg.eigh(ik)
            magnitude = np.abs(eigval)
            floor = _EIGEN_FLOOR * magnitude.max()
            projected = eigvec.T @ gk
            direction[k, free] = eigvec @ (projected / np.maximum(magnitude, floor))
            if eigval.min() >= -floor:
                identified = eigval > floor
                decrement[k] = np.sum(projected[identified] ** 2 / eigval[identified])
                null[k] = eigvec[:, ~identified] @ projected[~identified]
        else:
            direction[k, free] = np.linalg.solve(ik, gk)
            decrement[k] = gk @ direction[k, free]
    return direction, decrement, null


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
            start = homogeneous.unpack(_maximize(nested, theta, homogeneous.bounds()).point)
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
    log-density by the fit's Newton engine (``_ascend``), with one problem
    per row, seeded at its posterior mean on the fit's default rule (30
    nodes, or 12 x 12), and adds each row's last Newton direction, untried;
    a row that gave up (``_ascend``) predicts its last accepted point. It
    keeps the engine's caps and differs from a fit in its constants only:
    no bounds, a decrement tolerance of _EB_DECREMENT, and a fall of the log
    posterior within _EB_ALLOWANCE relative, its rounding, taken as none.
    ``mean`` is the posterior mean computed by quadrature, on 40 nodes or a
    25 x 25 grid. A prediction depends only on a cluster's
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
    unbounded = np.full(re.dim, np.inf)
    terms = _log_posterior(kernel, fe, loading)
    ascent = _ascend(terms, _row_products(posterior, z), (-unbounded, unbounded), _EB_DECREMENT, _EB_ALLOWANCE)
    return _row_products(ascent.point + ascent.step, loading.T)[kernel.rows.index]


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with each row of the product summed on its own: BLAS may round
    a row apart by how many rows the product has, so a cluster's prediction
    would depend on how many distinct clusters its kernel has."""
    return np.einsum("nk,kd->nd", a, b)


def _log_posterior(kernel, fe, loading) -> Callable:
    """The engine's callback for the posterior modes of the standardized
    effects z of the kernel's rows, whose offsets are z @ loading.T: each
    row's log posterior, score and information from one kernel pass over
    every row.

    The log posterior is the conditional log-likelihood plus the standard
    normal log-density of z, so its score is loading' g - z and its
    information I - loading' H loading, with g and H the link's closed-form
    score and curvature with respect to the boundary predictors; every
    row's loading' H loading is one product of the flattened H with
    loading (x) loading. Every product is summed row by row
    (``_row_products``)."""
    pairs = np.kron(loading, loading)  # ((K-1)^2, dim^2)

    def evaluate(z, floors):
        terms = kernel.conditional_terms(fe.intercepts, fe.slopes, _row_products(z, loading.T))
        value = terms.loglik - 0.5 * (z**2).sum(axis=1)
        hess = _row_products(terms.curvature.reshape(len(z), -1), pairs).reshape(z.shape + z.shape[1:])
        return value, _row_products(terms.score, loading) - z, np.eye(z.shape[1]) - hess

    return evaluate


def empirical_bayes(cluster: Cluster, fit_result: FitResult, link: LinkFamily) -> np.ndarray:
    """Posterior-mode random-effect prediction for one cluster, as a vector
    with one entry per predictor slot."""
    ds = Dataset(clusters=(cluster,))
    return predict_random_effects(ds, fit_result.estimates, link, method="mode")[0]
