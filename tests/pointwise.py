"""Pointwise Laplace and Yukawa kernels and a plain panel quadrature.

Quadrature references for the tests: they check pbadapt's vectorized and
closed-form integrals against one kernel value at a time. Same conventions
as ``pbadapt.kernels``: kernels carry the 1/(4*pi) factor and ``dgdn_*``
differentiates with respect to the source point along the source normal.
"""

from __future__ import annotations

import numpy as np

from pbadapt.errors import SingularityError, UsageError
from pbadapt.quadrature import GAUSS7, QuadratureRule, subdivided

COINCIDENT_TOL = 1e-14
NEAR_RULE = subdivided(GAUSS7, 3)  # 448-point composite rule, a quadrature reference for near pairs
FOUR_PI = 4.0 * np.pi


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
    pts = rule.map_to(panel)
    area = 0.5 * np.linalg.norm(np.cross(panel[1] - panel[0], panel[2] - panel[0]))
    vals = np.asarray(kernel(np.asarray(target, dtype=float), pts))
    return float(area * np.dot(rule.weights, vals))
