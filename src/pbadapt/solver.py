"""Assembly and solution of the coupled boundary-integral system.

The interior trace u- and its normal derivative satisfy, at collocation
point r on the surface,

    c(r) u- + K_L[u-] - V_L[du-/dn]                = u_c(r)
    (1-c(r)) u- - K_Y[u-] + (eps_m/eps_w) V_Y[du-/dn] = 0

with K/V the double/single layer operators of the Laplace (L) and Yukawa
(Y) kernels. For piecewise-constant unknowns collocated at panel centroids
the free term c is exactly 1/2 and the double-layer diagonal vanishes
(principal value on a flat panel). For continuous piecewise-linear unknowns
collocated at mesh vertices the surface has corners, so c is the interior
solid-angle fraction; it is recovered from the assembled Laplace
double-layer row sums, which annihilates constants exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import gmres

from . import kernels
from .errors import SolverError, UsageError
from .mesh import SurfaceMesh, close_marking, refine_all, refine_conforming
from .physics import BiePhysics, ChargeSet, coulomb_potential, require_charges_inside

DEFAULT_GMRES_TOL = 1e-8
DEFAULT_MAX_ITERS = 1000


@dataclass(frozen=True)
class PanelSolution:
    """Surface traces of the interior potential.

    ``space`` is "P0" (one value per panel, centroid collocation) or "P1"
    (one value per vertex); ``mesh_ref`` is the mesh the solve ran on.
    """

    space: str
    u_trace: np.ndarray
    dudn_trace: np.ndarray
    mesh_ref: SurfaceMesh
    gmres_residual: float
    gmres_iters: int

    def __post_init__(self):
        n = self.mesh_ref.n_panels if self.space == "P0" else self.mesh_ref.n_vertices
        if self.u_trace.shape != (n,) or self.dudn_trace.shape != (n,):
            raise UsageError("trace length does not match the discretization")


def assemble_system(
    mesh: SurfaceMesh,
    physics: BiePhysics,
    charges: ChargeSet,
    space: str = "P0",
    threads: int | None = None,
):
    """Dense 2N x 2N collocation matrix and right-hand side.

    Unknown ordering: [u-, du-/dn]; the second block row is homogeneous.
    """
    require_charges_inside(charges, mesh)
    if space not in ("P0", "P1"):
        raise UsageError(f"unknown space {space!r}")
    p1 = space == "P1"
    colloc = mesh.vertices if p1 else mesh.centroids
    n = len(colloc)
    a = np.empty((2 * n, 2 * n))
    kl, vl, ky, vy = a[:n, :n], a[:n, n:], a[n:, :n], a[n:, n:]
    kernels.operator_blocks(
        colloc, mesh, physics.kappa, (vl, kl, vy, ky), p1, collocated=True, threads=threads
    )
    vl *= -1.0
    ky *= -1.0
    vy *= physics.eps_m / physics.eps_w
    # P0: flat panels, c = 1/2; P1: c is the interior solid-angle fraction at
    # each vertex, which the Laplace double layer's row sums give
    c = -kl.sum(axis=1) if p1 else np.full(n, 0.5)
    idx = np.arange(n)
    a[idx, idx] += c
    a[n + idx, idx] += 1.0 - c
    b = np.concatenate([coulomb_potential(charges, physics, colloc), np.zeros(n)])
    return a, b


def _gmres_solve(a, b, tol: float, max_iters: int):
    """GMRES, restarted from its iterate until the true relative residual is
    at most ``tol``; scipy stops on its own residual estimate, which can end
    slightly above ``tol``. Raises SolverError once ``max_iters`` iterations
    are spent or a restart makes no progress."""
    n = len(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), 0.0, 0
    iters = [0]

    def count(_residual):
        iters[0] += 1

    x = np.zeros(n)
    while True:
        start = iters[0]
        x, _info = gmres(
            a,
            b,
            x0=x,
            rtol=tol,
            atol=0.0,
            restart=min(max_iters - start, n),
            maxiter=1,
            callback=count,
            callback_type="pr_norm",
        )
        residual = float(np.linalg.norm(b - a @ x)) / b_norm
        if residual <= tol:
            return x, residual, iters[0]
        if iters[0] >= max_iters or iters[0] == start:
            raise SolverError(
                f"GMRES stalled at relative residual {residual:.3e} after {iters[0]} iterations",
                residual=residual,
                iterations=iters[0],
            )


def solve_forward(
    mesh: SurfaceMesh,
    physics: BiePhysics,
    charges: ChargeSet,
    gmres_tol: float = DEFAULT_GMRES_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    threads: int | None = None,
) -> PanelSolution:
    """Piecewise-constant traces collocated at panel centroids."""
    a, b = assemble_system(mesh, physics, charges, space="P0", threads=threads)
    x, residual, iters = _gmres_solve(a, b, gmres_tol, max_iters)
    n = mesh.n_panels
    return PanelSolution("P0", x[:n], x[n:], mesh, residual, iters)


def solve_adjoint(
    mesh: SurfaceMesh,
    physics: BiePhysics,
    charges: ChargeSet,
    refine_levels: int = 1,
    background: SurfaceMesh | None = None,
    gmres_tol: float = DEFAULT_GMRES_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    threads: int | None = None,
) -> PanelSolution:
    """Dual traces on a uniformly refined mesh, continuous piecewise linear.

    The dual problem has the same boundary-integral form as the forward one,
    so this solves the same system with vertex collocation on the mesh
    obtained by ``refine_levels`` uniform 4-splits. With a ``background``
    mesh the splits are surface-conforming (new vertices snapped onto it),
    which lets the dual solution resolve the geometric part of the error,
    not just the discretization part. The returned solution's mesh carries a
    parent map back to the input mesh.
    """
    if refine_levels < 0:
        raise UsageError("refine_levels must be >= 0")
    fine = dataclasses.replace(mesh, parent_map=np.arange(mesh.n_panels))
    for _ in range(refine_levels):
        if background is not None:
            refined = refine_conforming(
                fine, close_marking(fine, range(fine.n_panels)), background
            )
        else:
            refined = refine_all(fine)
        fine = dataclasses.replace(
            refined, parent_map=fine.parent_map[refined.parent_map]
        )
    a, b = assemble_system(fine, physics, charges, space="P1", threads=threads)
    x, residual, iters = _gmres_solve(a, b, gmres_tol, max_iters)
    n = fine.n_vertices
    return PanelSolution("P1", x[:n], x[n:], fine, residual, iters)
