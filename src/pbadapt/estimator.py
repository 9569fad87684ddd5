"""Goal-oriented per-panel estimates of the solvation-energy error.

Both estimators weight the forward traces with the dual solution phi over
the surface; the volumetric remainder of the exact error representation is
dropped. Grouping the surface integral by coarse panel (integrating over
each panel's fine descendants) gives per-panel indicators whose absolute
values bound the total estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EffectivityUndefinedError, UsageError
from .kernels import panel_quad_points
from .mesh import SurfaceMesh
from .physics import BiePhysics, ChargeSet, coulomb_trace
from .quadrature import GAUSS3, QuadratureRule
from .solver import PanelSolution


@dataclass(frozen=True)
class ErrorMap:
    """Per-panel error indicators (kcal/mol) for one estimator.

    ``per_panel`` holds |panel contribution|; ``signed_per_panel`` the
    contributions before taking absolute values, summing to ``signed_total``.
    """

    estimator_tag: str
    per_panel: np.ndarray
    signed_per_panel: np.ndarray
    signed_total: float
    mesh_ref: SurfaceMesh

    def __post_init__(self):
        if self.per_panel.shape != (self.mesh_ref.n_panels,):
            raise UsageError("per_panel length must match the mesh")
        if abs(self.signed_total) > self.per_panel.sum() * (1.0 + 1e-9) + 1e-300:
            raise UsageError("inconsistent error map: |total| exceeds sum of panel terms")


def _panel_quadrature(mesh: SurfaceMesh, rule: QuadratureRule):
    """Flattened quadrature points, per-point normals and weights for a mesh."""
    pts = panel_quad_points(mesh, rule).reshape(-1, 3)
    nrm = np.repeat(mesh.normals, rule.n_points, axis=0)
    wts = (rule.weights[None, :] * mesh.areas[:, None]).ravel()
    return pts, nrm, wts


def _estimate(
    forward: PanelSolution,
    adjoint: PanelSolution,
    charges: ChargeSet,
    physics: BiePhysics,
    tag: str,
) -> ErrorMap:
    if forward.space != "P0":
        raise UsageError("forward solution must be piecewise constant")
    if adjoint.space != "P1":
        raise UsageError("adjoint solution must be piecewise linear")
    coarse = forward.mesh_ref
    fine = adjoint.mesh_ref
    parents = fine.parent_map
    if parents is None:
        raise UsageError("adjoint mesh lacks the parent map onto the forward mesh")
    if parents.max() >= coarse.n_panels or len(np.unique(parents)) != coarse.n_panels:
        raise UsageError("adjoint mesh does not descend from the forward mesh")
    half_eps = 0.5 * physics.eps_m
    nq = GAUSS3.n_points

    # Terms carrying the dual traces live on the (possibly conforming) fine
    # mesh; the piecewise-constant forward data is spread over descendants.
    pts, nrm, wts = _panel_quadrature(fine, GAUSS3)
    tris = fine.triangles
    phi = np.einsum("ql,tl->tq", GAUSS3.points, adjoint.u_trace[tris]).ravel()
    dphi = np.einsum("ql,tl->tq", GAUSS3.points, adjoint.dudn_trace[tris]).ravel()
    if tag == "Ephi":
        # the dual bracket of the Coulomb traces plus that of the reaction-field
        # traces u_f - u_c: the Coulomb traces cancel, leaving the forward ones
        u_f = np.repeat(forward.u_trace[parents], nq)
        du_f = np.repeat(forward.dudn_trace[parents], nq)
        integrand = half_eps * (dphi * u_f - phi * du_f)
        forward_only = 0.0
    else:  # Eu
        u_c, du_c = coulomb_trace(charges, physics, pts, nrm)
        integrand = half_eps * (dphi * u_c - phi * du_c)
        # The bracket holding only forward data belongs to the mesh the
        # forward traces were solved on; there it regroups the discrete
        # energy exactly.
        pts_c, nrm_c, wts_c = _panel_quadrature(coarse, GAUSS3)
        u_cc, du_cc = coulomb_trace(charges, physics, pts_c, nrm_c)
        u_f = np.repeat(forward.u_trace, nq)
        du_f = np.repeat(forward.dudn_trace, nq)
        fwd_bracket = half_eps * (u_cc * du_f - du_cc * u_f)
        forward_only = (wts_c * fwd_bracket).reshape(coarse.n_panels, nq).sum(axis=1)
    per_fine = (wts * integrand).reshape(fine.n_panels, nq).sum(axis=1)
    signed = np.bincount(parents, weights=per_fine, minlength=coarse.n_panels) - forward_only
    signed *= physics.energy_unit
    return ErrorMap(tag, np.abs(signed), signed, float(signed.sum()), coarse)


def estimate_Ephi(
    forward: PanelSolution,
    adjoint: PanelSolution,
    charges: ChargeSet,
    physics: BiePhysics,
) -> ErrorMap:
    """Estimator weighting the dual traces against the reaction-field traces."""
    return _estimate(forward, adjoint, charges, physics, "Ephi")


def estimate_Eu(
    forward: PanelSolution,
    adjoint: PanelSolution,
    charges: ChargeSet,
    physics: BiePhysics,
) -> ErrorMap:
    """Estimator weighting the Coulomb trace against the full forward traces."""
    return _estimate(forward, adjoint, charges, physics, "Eu")


ESTIMATORS = {"Ephi": estimate_Ephi, "Eu": estimate_Eu}


def effectivity(estimate: float, dG_numeric: float, dG_exact: float) -> float:
    """Estimated error over true error; 1 means the estimate is exact."""
    denom = dG_exact - dG_numeric
    if denom == 0.0:
        raise EffectivityUndefinedError("true error is zero")
    return estimate / denom
