"""Pointwise Laplace and Yukawa kernels, a plain panel quadrature, and the
dense matrix and Coulomb gradient that pbadapt computes only as products.

Quadrature references for the tests: they check pbadapt's vectorized and
closed-form integrals against one kernel value at a time. Same conventions
as ``pbadapt.kernels``: kernels carry the 1/(4*pi) factor and ``dgdn_*``
differentiates with respect to the source point along the source normal.
"""

from __future__ import annotations

import numpy as np

from pbadapt.errors import SingularityError, UsageError
from pbadapt.physics import coulomb_trace
from pbadapt.quadrature import GAUSS7, QuadratureRule, subdivided
from pbadapt.solver import System

COINCIDENT_TOL = 1e-14
NEAR_RULE = subdivided(GAUSS7, 3)  # 448-point composite rule, a quadrature reference for near pairs
SMOOTH_RULE = subdivided(GAUSS7, 2)  # 112 points, for smooth integrands: the Yukawa remainder
CENTROID = QuadratureRule(np.array([[1.0, 1.0, 1.0]]) / 3.0, np.array([1.0]), degree=1)
FOUR_PI = 4.0 * np.pi


def dense(a):
    """The dense float64 matrix of a ``solver.System``, one product per column.
    The blocks are upcast once, and each product takes the system's block
    layout (``System._apply``) with one float64 matrix-vector product per
    block column. A unit vector leaves one nonzero term in each float64 sum,
    so column j is bit for bit ``a @ e_j``, whatever the product's chunks."""
    b, n = System(a.blocks.astype(float), a.ratio, a.lengths), len(a) // 2

    def halves(rows, u, v):
        return rows[:, :n] @ u, rows[:, n:] @ v

    return np.column_stack([b._apply(e, halves) for e in np.eye(len(a))])


def coulomb_gradient(charges, physics, points):  # (M, 3): ``coulomb_trace`` along each axis
    axes = (np.broadcast_to(e, points.shape) for e in np.eye(3))
    return np.column_stack([coulomb_trace(charges, physics, points, n)[1] for n in axes])


def map_to(rule: QuadratureRule, corners) -> np.ndarray:
    """Physical quadrature points of ``rule`` for a triangle given as (3, 3) corner rows."""
    return rule.points @ np.asarray(corners, dtype=float)


def mean_edge_length(mesh) -> float:
    """Mean length of the mesh's edges, each counted once per incident triangle."""
    p = mesh.corners
    e = np.linalg.norm(p[:, [1, 2, 0]] - p, axis=2)
    return float((e[:, 0] + e[:, 1] + e[:, 2]).sum() / e.size)


def _dist(r, rp):
    d = np.asarray(r, dtype=float) - np.asarray(rp, dtype=float)
    dist = np.sqrt(np.sum(d * d, axis=-1))
    if np.any(dist < COINCIDENT_TOL):
        raise SingularityError("kernel evaluated at coincident points")
    return d, dist


def g_laplace(r, rp):
    """1 / (4*pi*|r - rp|)."""
    _, dist = _dist(r, rp)
    return 1.0 / (FOUR_PI * dist)


def g_yukawa(r, rp, kappa: float):
    """exp(-kappa*|r - rp|) / (4*pi*|r - rp|)."""
    if kappa < 0:
        raise UsageError("kappa must be >= 0")
    _, dist = _dist(r, rp)
    return np.exp(-kappa * dist) / (FOUR_PI * dist)


def dgdn_laplace(r, rp, normal):
    """Source-normal derivative of the Laplace kernel at rp."""
    d, dist = _dist(r, rp)
    dot = np.sum(d * np.asarray(normal, dtype=float), axis=-1)
    return dot / (FOUR_PI * dist**3)


def dgdn_yukawa(r, rp, normal, kappa: float):
    """Source-normal derivative of the Yukawa kernel at rp."""
    if kappa < 0:
        raise UsageError("kappa must be >= 0")
    d, dist = _dist(r, rp)
    dot = np.sum(d * np.asarray(normal, dtype=float), axis=-1)
    return dot * (1.0 + kappa * dist) * np.exp(-kappa * dist) / (FOUR_PI * dist**3)


def panel_integral(kernel, target, panel, rule: QuadratureRule) -> float:
    """Quadrature of ``kernel(target, x)`` over a flat triangle.

    ``panel`` is a (3, 3) array of corner rows; the target must not lie on
    the panel (regular quadrature only).
    """
    panel = np.asarray(panel, dtype=float)
    pts = map_to(rule, panel)
    area = 0.5 * np.linalg.norm(np.cross(panel[1] - panel[0], panel[2] - panel[0]))
    vals = np.asarray(kernel(np.asarray(target, dtype=float), pts))
    return float(area * np.dot(rule.weights, vals))
