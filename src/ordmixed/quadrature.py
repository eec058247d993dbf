"""Gauss-Hermite rules for expectations under normal distributions.

Rules are standardized so that the weighted node sum of f equals E[f(T)]
for T standard normal, exactly for polynomials of degree up to 2*order - 1.
The bivariate rule tensors two 1-d rules and maps node pairs through the
Cholesky factor of the requested covariance, so correlated deviations are
integrated without any change to the weights. The 1-d nodes and weights
are numpy's ``hermgauss``, the Golub-Welsch (1969) eigenvalue method with
one Newton refinement of each node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .model import BivariateRandomEffect

MAX_ORDER = 100


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes and weights for expectations under a standard normal."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@dataclass(frozen=True)
class QuadratureRule2D:
    """Node pairs (rows of ``nodes``) and weights for a bivariate normal."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule1D:
    """Standardized Gauss-Hermite rule of the given order.

    Raw physicists' nodes u and weights v are rescaled to t = sqrt(2) u and
    w = v / sqrt(pi), which makes the weights sum to one and the rule exact
    for standard-normal moments up to degree 2*order - 1.
    """
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be an integer in [1, {MAX_ORDER}], got {order!r}")
    u, v = hermgauss(int(order))
    nodes = np.sqrt(2.0) * u
    weights = v / np.sqrt(np.pi)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule1D(nodes=nodes, weights=weights, order=int(order))


@lru_cache(maxsize=None)
def standard_tensor_grid(order: int, dim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Node tuples (Q, dim) and weights of the tensor product of ``dim``
    standardized rules of the given order, the last axis varying fastest:
    expectations under a standard ``dim``-variate normal. Any normal's nodes
    are these tuples mapped through a loading whose product with its
    transpose is the covariance. For dim = 0 the grid is one empty node
    with weight 1."""
    if dim == 0:
        nodes, weights = np.zeros((1, 0)), np.ones(1)
    else:
        base = gauss_hermite(order)
        nodes = np.array(list(itertools.product(base.nodes, repeat=dim)))
        weights = np.prod(list(itertools.product(base.weights, repeat=dim)), axis=1)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def bivariate_rule(order: int, sigma1: float, sigma2: float, rho: float) -> QuadratureRule2D:
    """Tensor-product rule for a bivariate normal with standard deviations
    sigma1, sigma2 and correlation rho.

    Node pairs are the Cholesky image of the standardized tensor grid;
    rho = +-1 degenerates cleanly to nodes on the correlation diagonal.
    """
    re = BivariateRandomEffect(sigma1=sigma1, sigma2=sigma2, rho=rho)  # validates
    grid, weights = standard_tensor_grid(order)
    nodes = grid @ re.loading(2).T
    nodes.flags.writeable = False
    return QuadratureRule2D(nodes=nodes, weights=weights, order=int(order))


DEFAULT_ORDER_1D = 30
DEFAULT_ORDER_2D = 12
