"""Independent reference for the marginal log-likelihood of a fitted model.

``loglik_err`` compares a fit's reported log-likelihood against this
module. It shares no code with ``ordmixed``: the three link families are
written out again here, and each cluster's random effect is integrated
around the cluster's posterior mode. The fixed rule in
``ordmixed.quadrature`` is not accurate enough to serve as its own
reference on large clusters with a large sigma.

In the standardized effect z the log integrand h(z) is concave with
curvature at least that of the normal kernel, so it falls at least as
fast as -(z - mode)^2 / 2 away from the mode. A univariate effect is
therefore integrated by composite Gauss-Legendre panels over mode +- 9,
which leaves out less than 1e-17 of the mass whatever the shape of the
posterior. Adaptive Gauss-Hermite quadrature (Liu & Pierce 1994), centred
at the mode and scaled by the curvature there, integrates the bivariate
effect; it converges slowly for clusters whose posterior has one long,
prior-dominated tail (every count in an end category), so it is used only
where two orders agree.

A random effect is given as a loading matrix ``A`` of shape (K-1, d): the
predictor offsets are ``A @ z`` with ``z`` standard normal in d dimensions
(d = 1 for a shared deviation, 2 for the bivariate effect with ``A`` its
Cholesky factor).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import gammaln, log_expit, logsumexp

PO, ACL, CR = "po", "acl", "crl"  # the tags ordmixed.LinkFamily uses
PANEL_HALF_WIDTH = 9.0


class ReferenceCheckError(RuntimeError):
    """Two integration methods or orders disagree."""


def log_probs(link: str, d: np.ndarray) -> np.ndarray:
    """Log category probabilities for predictors ``d`` of shape (..., K-1).

    Proportional-odds rows whose cumulative logits decrease are
    infeasible and get -inf in every category.
    """
    if link == PO:
        lower = log_expit(d)  # log P(Y <= k)
        first = lower[..., :1]
        last = log_expit(-d[..., -1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            mid = lower[..., 1:] + np.log1p(-np.exp(lower[..., :-1] - lower[..., 1:]))
        logp = np.concatenate([first, mid, last], axis=-1)
        infeasible = np.any(np.diff(d, axis=-1) < 0.0, axis=-1)
        return np.where(infeasible[..., None], -np.inf, logp)
    if link == ACL:
        s = np.cumsum(d[..., ::-1], axis=-1)[..., ::-1]
        s = np.concatenate([s, np.zeros(d.shape[:-1] + (1,))], axis=-1)
        return s - logsumexp(s, axis=-1, keepdims=True)
    if link == CR:
        stop, go = log_expit(d), log_expit(-d)
        reached = np.cumsum(go, axis=-1)
        return np.concatenate(
            [stop[..., :1], stop[..., 1:] + reached[..., :-1], reached[..., -1:]], axis=-1
        )
    raise ValueError(f"unknown link {link!r}")


class ClusterLoglik:
    """Conditional log-likelihood of every cluster at given offsets, for
    counts ``y`` (n, K) and predictors ``base`` (n, K-1) at zero effect."""

    def __init__(self, link: str, y: np.ndarray, base: np.ndarray):
        self.link = link
        self.y = np.asarray(y, dtype=float)
        self.base = base
        self.log_coef = gammaln(self.y.sum(axis=1) + 1.0) - gammaln(self.y + 1.0).sum(axis=1)

    def at(self, offsets: np.ndarray) -> np.ndarray:
        """``offsets`` has shape (n, P, K-1); returns (n, P) without the
        multinomial coefficient."""
        logp = log_probs(self.link, self.base[:, None, :] + offsets)
        with np.errstate(invalid="ignore"):
            terms = np.where(self.y[:, None, :] > 0, self.y[:, None, :] * logp, 0.0)
        return terms.sum(axis=-1)


def _log_posterior(cl: ClusterLoglik, loading: np.ndarray, z: np.ndarray) -> np.ndarray:
    """h(z) = conditional loglik at A z plus the log standard-normal kernel;
    ``z`` has shape (n, P, d)."""
    return cl.at(z @ loading.T) - 0.5 * (z**2).sum(axis=-1)


def _derivatives(cl, loading, z, step=1e-4):
    """Value, gradient and Hessian of h at z (n, d) by central differences."""
    n, d = z.shape
    eye = np.eye(d) * step
    shifts = [np.zeros(d)] + [s * eye[i] for i in range(d) for s in (1.0, -1.0)]
    shifts += [si * eye[i] + sj * eye[j] for i, j in itertools.combinations(range(d), 2)
               for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    vals = _log_posterior(cl, loading, z[:, None, :] + np.array(shifts)[None, :, :])
    f0 = vals[:, 0]
    grad = np.empty((n, d))
    hess = np.empty((n, d, d))
    for i in range(d):
        fp, fm = vals[:, 1 + 2 * i], vals[:, 2 + 2 * i]
        grad[:, i] = (fp - fm) / (2 * step)
        hess[:, i, i] = (fp - 2 * f0 + fm) / step**2
    col = 1 + 2 * d
    for i, j in itertools.combinations(range(d), 2):
        pp, pm, mp, mm = (vals[:, col + c] for c in range(4))
        hess[:, i, j] = hess[:, j, i] = (pp - pm - mp + mm) / (4 * step**2)
        col += 4
    return f0, grad, hess


def posterior_modes(cl: ClusterLoglik, loading: np.ndarray, iterations: int = 100):
    """Per-cluster mode of h and the Cholesky factor of the inverse
    negative Hessian there, by damped Newton steps from z = 0. h is concave
    (log-concave links plus the normal kernel), so the search is safe."""
    n, d = cl.base.shape[0], loading.shape[1]
    z = np.zeros((n, d))
    for _ in range(iterations):
        f0, grad, hess = _derivatives(cl, loading, z)
        neg = -hess
        step = np.linalg.solve(neg, grad[..., None])[..., 0]
        bad = ~np.all(np.isfinite(step), axis=1) | (np.linalg.eigvalsh(neg)[:, 0] <= 0)
        step[bad] = grad[bad]
        step[~np.isfinite(step)] = 0.0
        np.clip(step, -1.0, 1.0, out=step)
        for _ in range(40):  # halve steps that do not increase h
            trial = z + step
            worse = ~(_log_posterior(cl, loading, trial[:, None, :])[:, 0] >= f0 - 1e-12)
            if not worse.any():
                break
            step[worse] *= 0.5
        z = z + step
        if np.max(np.abs(step)) < 1e-10:
            break
    _, _, hess = _derivatives(cl, loading, z)
    return z, np.linalg.cholesky(np.linalg.inv(-hess))


def adaptive_logliks(cl: ClusterLoglik, loading: np.ndarray, order: int, modes):
    """Per-cluster marginal log-likelihood by adaptive Gauss-Hermite
    quadrature with ``order`` nodes per dimension."""
    d = loading.shape[1]
    mode, scale = modes
    t1, w1 = hermegauss(order)
    w1 = w1 / math.sqrt(2.0 * math.pi)
    t = np.array(list(itertools.product(t1, repeat=d)))  # (P, d)
    logw = np.log(np.array(list(itertools.product(w1, repeat=d)))).sum(axis=1)
    z = mode[:, None, :] + np.einsum("nij,pj->npi", scale, t)
    h = _log_posterior(cl, loading, z) + 0.5 * (t**2).sum(axis=1)[None, :]
    log_det = np.log(np.abs(np.linalg.det(scale)))
    return log_det + logsumexp(h + logw[None, :], axis=1) + cl.log_coef


def panel_logliks(cl: ClusterLoglik, loading: np.ndarray, width: float, points: int, modes):
    """Per-cluster univariate marginal log-likelihood by composite
    Gauss-Legendre panels of the given width over mode +- 9."""
    x, w = leggauss(points)
    edges = np.arange(-PANEL_HALF_WIDTH, PANEL_HALF_WIDTH - 1e-12, width)
    nodes = (edges[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
    logw = np.log(np.tile(0.5 * width * w, edges.size))
    z = modes[0][:, :, None] + nodes[None, None, :]  # (n, 1, P)
    h = _log_posterior(cl, loading, z.transpose(0, 2, 1))
    return logsumexp(h + logw[None, :], axis=1) - 0.5 * math.log(2.0 * math.pi) + cl.log_coef


def quad_loglik(cl: ClusterLoglik, loading: np.ndarray, i: int, mode, scale) -> float:
    """One cluster's univariate marginal log-likelihood by scipy's adaptive
    quadrature: a second method, used to check the Gauss-Hermite values."""
    one = ClusterLoglik(cl.link, cl.y[i : i + 1], cl.base[i : i + 1])
    m, s = float(mode[i, 0]), float(scale[i, 0, 0])
    peak = float(_log_posterior(one, loading, np.array([[[m]]]))[0, 0])

    def integrand(t):
        return math.exp(_log_posterior(one, loading, np.array([[[m + s * t]]]))[0, 0] - peak)

    value, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
    return peak + math.log(value * s) - 0.5 * math.log(2.0 * math.pi) + float(cl.log_coef[i])


def reference_logliks(link, x, y, intercepts, slopes, loading, quad_clusters=()) -> np.ndarray:
    """Per-cluster marginal log-likelihood, verified before it is returned.

    Two panel widths (univariate) or two adaptive orders (bivariate) must
    agree to 1e-6 in the total, and for a univariate effect scipy's
    ``quad`` must agree to 1e-8 on each cluster listed in
    ``quad_clusters``. A failed check raises ``ReferenceCheckError``.
    """
    base = np.asarray(intercepts, dtype=float)[None, :] + (x @ np.asarray(slopes, dtype=float))[:, None]
    cl = ClusterLoglik(link, y, base)
    loading = np.asarray(loading, dtype=float).reshape(cl.base.shape[1], -1)
    d = loading.shape[1]
    modes = posterior_modes(cl, loading)
    if d == 1:
        per_cluster = panel_logliks(cl, loading, 0.2, 10, modes)
        other = panel_logliks(cl, loading, 0.25, 8, modes)
        label = "panel widths 0.2 and 0.25"
    else:
        per_cluster = adaptive_logliks(cl, loading, 30, modes)
        other = adaptive_logliks(cl, loading, 20, modes)
        label = "adaptive orders 20 and 30"
    gap = abs(per_cluster.sum() - other.sum())
    if not gap <= 1e-6:
        raise ReferenceCheckError(f"{label} differ by {gap:.3g}")
    for i in quad_clusters if d == 1 else ():
        by_quad = quad_loglik(cl, loading, i, *modes)
        if not abs(by_quad - per_cluster[i]) <= 1e-8:
            raise ReferenceCheckError(
                f"quad and panels differ by {abs(by_quad - per_cluster[i]):.3g} on cluster {i}"
            )
    return per_cluster
