"""Symmetric Gaussian quadrature rules on the reference triangle.

Points are barycentric coordinates and weights sum to one, so the integral
of f over a physical triangle is ``area * sum(w_q * f(x_q))``.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Fixed point set on the reference triangle, exact up to ``degree``."""

    points: np.ndarray   # (n, 3) barycentric coordinates
    weights: np.ndarray  # (n,) positive, summing to 1
    degree: int

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        wts = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3 or wts.shape != (pts.shape[0],):
            raise ValueError("points must be (n, 3) barycentric, weights (n,)")
        if np.any(wts <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if abs(wts.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def map_to(self, corners: np.ndarray) -> np.ndarray:
        """Physical quadrature points for a triangle given as (3, 3) corner rows."""
        return self.points @ np.asarray(corners, dtype=float)


CENTROID = QuadratureRule(np.array([[1.0, 1.0, 1.0]]) / 3.0, np.array([1.0]), degree=1)

GAUSS3 = QuadratureRule(
    np.array(
        [
            [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
            [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
            [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
        ]
    ),
    np.full(3, 1.0 / 3.0),
    degree=2,
)

# 7-point rule: centroid plus two symmetric orbits, exact through degree 5.
_S15 = np.sqrt(15.0)
_A1 = (6.0 - _S15) / 21.0
_A2 = (6.0 + _S15) / 21.0
_W1 = (155.0 - _S15) / 1200.0
_W2 = (155.0 + _S15) / 1200.0
GAUSS7 = QuadratureRule(
    np.array(
        [
            [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            [1.0 - 2.0 * _A1, _A1, _A1],
            [_A1, 1.0 - 2.0 * _A1, _A1],
            [_A1, _A1, 1.0 - 2.0 * _A1],
            [1.0 - 2.0 * _A2, _A2, _A2],
            [_A2, 1.0 - 2.0 * _A2, _A2],
            [_A2, _A2, 1.0 - 2.0 * _A2],
        ]
    ),
    np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2]),
    degree=5,
)

# E4: GAUSS7's centroid and first orbit, reweighted to be exact through degree 2.
# By symmetry only lambda_1^2 constrains the weights: its mean over the triangle
# is 1/6, at the centroid it is 1/9, and its sum over the orbit (1 - 2a, a, a) is
# 3/9 + 6 (a - 1/3)^2. So the orbit weight is (1/6 - 1/9) / (6 (a - 1/3)^2), which
# for a = _A1 is (8 - sqrt 15) / 24, and the centroid keeps 1 - 3 (8 - sqrt 15) / 24
# = sqrt(15) / 8. Its points are a prefix of GAUSS7's, so one set of kernel values
# serves both rules.
_E4_ORBIT = (8.0 - _S15) / 24.0
E4 = QuadratureRule(GAUSS7.points[:4], np.array([_S15 / 8.0, _E4_ORBIT, _E4_ORBIT, _E4_ORBIT]),
                    degree=2)


def subdivided(rule: QuadratureRule, depth: int) -> QuadratureRule:
    """Composite rule: ``rule`` applied on 4**depth congruent subtriangles.

    Used for the Yukawa remainder of near pairs and as a fine reference;
    the piecewise rule keeps the declared polynomial degree.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    corners = [np.eye(3)]
    for _ in range(depth):
        split = []
        for tri in corners:
            a, b, c = tri
            ab, bc, ca = (a + b) / 2.0, (b + c) / 2.0, (c + a) / 2.0
            split += [
                np.array([a, ab, ca]),
                np.array([ab, b, bc]),
                np.array([ca, bc, c]),
                np.array([ab, bc, ca]),
            ]
        corners = split
    pts = np.vstack([rule.points @ tri for tri in corners])
    wts = np.tile(rule.weights / len(corners), len(corners))
    return QuadratureRule(pts, wts, rule.degree)
