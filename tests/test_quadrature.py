import numpy as np
import pytest
from scipy.special import roots_hermite

from ordmixed import bivariate_rule, gauss_hermite


class TestGaussHermite:
    def test_order_one_is_the_mean(self):
        rule = gauss_hermite(1)
        np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [1.0], atol=1e-15)

    def test_order_two_matches_root_finder(self):
        # oracle: H_2(u) = 4u^2 - 2 has roots +-1/sqrt(2); standardized
        # nodes are sqrt(2) times that, weights split evenly
        rule = gauss_hermite(2)
        np.testing.assert_allclose(np.sort(rule.nodes), [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 10, 30, 40, 100])
    def test_basic_invariants(self, order):
        rule = gauss_hermite(order)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(rule.weights > 0)
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-12)

    @pytest.mark.parametrize("order", list(range(2, 41)))
    def test_standard_normal_moments(self, order):
        rule = gauss_hermite(order)
        exact = {1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0}
        for m, target in exact.items():
            if 2 * order - 1 >= m:
                moment = float(rule.weights @ rule.nodes**m)
                assert moment == pytest.approx(target, abs=1e-10)

    @pytest.mark.parametrize("order", list(range(1, 101)))
    def test_matches_scipy_roots_hermite(self, order):
        # oracle: scipy's Golub-Welsch rule, rescaled to the standard normal;
        # nodes up to 19 in size agree to 2e-15 of their size
        u, v = roots_hermite(order)
        rule = gauss_hermite(order)
        np.testing.assert_allclose(rule.nodes, np.sqrt(2.0) * u, rtol=2e-15, atol=2e-15)
        np.testing.assert_allclose(rule.weights, v / np.sqrt(np.pi), rtol=0, atol=2e-15)

    def test_second_moment_order_two(self):
        rule = gauss_hermite(2)
        assert float(rule.weights @ rule.nodes**2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [0, -3, 101, 2.5])
    def test_invalid_order(self, order):
        with pytest.raises(ValueError):
            gauss_hermite(order)


class TestBivariateRule:
    def test_single_node(self):
        rule = bivariate_rule(1, 1.0, 1.0, 0.0)
        np.testing.assert_allclose(rule.nodes, [[0.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [1.0], atol=1e-15)

    def test_perfect_correlation_collapses_to_diagonal(self):
        rule = bivariate_rule(2, 1.0, 1.0, 1.0)
        np.testing.assert_allclose(rule.nodes[:, 0], rule.nodes[:, 1], atol=1e-14)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert set(np.round(rule.nodes[:, 0], 12)) == {-1.0, 1.0}

    @pytest.mark.parametrize(
        "order,s1,s2,rho",
        [
            (2, 1.0, 1.0, 0.0),
            (5, 0.6, 1.5, 0.3),
            (8, 0.609, 0.738, 0.933),
            (12, 2.0, 0.5, -0.8),
            (6, 1.0, 2.0, -1.0),
            (6, 1.3, 0.7, 1.0),
        ],
    )
    def test_moment_exactness(self, order, s1, s2, rho):
        rule = bivariate_rule(order, s1, s2, rho)
        w, e = rule.weights, rule.nodes
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(w @ e[:, 0]) == pytest.approx(0.0, abs=1e-12)
        assert float(w @ e[:, 1]) == pytest.approx(0.0, abs=1e-12)
        assert float(w @ e[:, 0] ** 2) == pytest.approx(s1**2, abs=1e-10)
        assert float(w @ e[:, 1] ** 2) == pytest.approx(s2**2, abs=1e-10)
        assert float(w @ (e[:, 0] * e[:, 1])) == pytest.approx(rho * s1 * s2, abs=1e-10)

    def test_grid_size(self):
        rule = bivariate_rule(7, 1.0, 1.0, 0.2)
        assert rule.nodes.shape == (49, 2)
        assert rule.weights.shape == (49,)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bivariate_rule(4, -1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            bivariate_rule(4, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            bivariate_rule(0, 1.0, 1.0, 0.0)
