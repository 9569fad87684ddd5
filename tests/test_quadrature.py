import numpy as np
import pytest

from pbadapt.quadrature import CENTROID, E4, GAUSS3, GAUSS7, QuadratureRule, subdivided


def reference_monomial_integral(p, q):
    """Exact integral of x^p y^q over the unit right triangle."""
    import math

    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


REFERENCE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@pytest.mark.parametrize("rule", [CENTROID, GAUSS3, GAUSS7], ids=["c1", "g3", "g7"])
def test_weights_positive_sum_one(rule):
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("rule", [CENTROID, GAUSS3, GAUSS7], ids=["c1", "g3", "g7"])
def test_exact_for_declared_degree(rule):
    pts = rule.map_to(REFERENCE)
    for p in range(rule.degree + 1):
        for q in range(rule.degree + 1 - p):
            approx = 0.5 * np.dot(rule.weights, pts[:, 0] ** p * pts[:, 1] ** q)
            assert approx == pytest.approx(reference_monomial_integral(p, q), rel=1e-13)


def test_e4_is_gauss7_prefix_exact_through_degree_two():
    assert np.array_equal(E4.points, GAUSS7.points[:4])
    assert np.all(E4.weights > 0)
    assert E4.weights.sum() == pytest.approx(1.0, abs=1e-15)
    pts = E4.map_to(REFERENCE)

    def error(p, q):
        approx = 0.5 * np.dot(E4.weights, pts[:, 0] ** p * pts[:, 1] ** q)
        return abs(approx - reference_monomial_integral(p, q)) / reference_monomial_integral(p, q)

    assert E4.degree == 2
    assert max(error(p, q) for p in range(3) for q in range(3 - p)) < 1e-14
    assert max(error(p, 3 - p) for p in range(4)) > 1e-3


def test_subdivided_point_count_and_exactness():
    near = subdivided(GAUSS7, 3)
    assert near.n_points == 7 * 64
    assert near.weights.sum() == pytest.approx(1.0, abs=1e-12)
    pts = near.map_to(REFERENCE)
    for p, q in [(5, 0), (2, 3), (0, 5)]:
        approx = 0.5 * np.dot(near.weights, pts[:, 0] ** p * pts[:, 1] ** q)
        assert approx == pytest.approx(reference_monomial_integral(p, q), rel=1e-12)


def test_subdivided_depth_zero_is_identity():
    same = subdivided(GAUSS3, 0)
    assert np.allclose(same.points, GAUSS3.points)
    assert np.allclose(same.weights, GAUSS3.weights)


def test_bad_rules_rejected():
    with pytest.raises(ValueError):
        QuadratureRule(np.array([[1.0, 0.0, 0.0]]), np.array([0.5]), 1)
    with pytest.raises(ValueError):
        QuadratureRule(np.array([[1.0, 0.0, 0.0]]), np.array([-1.0]), 1)
