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
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, gmres

from . import kernels
from .errors import SolverError, UsageError
from .mesh import SurfaceMesh, close_marking, refine_all, refine_conforming
from .physics import BiePhysics, ChargeSet, coulomb_potential, require_charges_inside
from .quadrature import GAUSS7

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
    if space == "P0":
        vl, kl, vy, ky = _p0_operators(mesh, physics.kappa, threads)
        colloc = mesh.centroids
        free_1 = np.full(mesh.n_panels, 0.5)
        free_2 = np.full(mesh.n_panels, 0.5)
    elif space == "P1":
        vl, kl, vy, ky = _p1_operators(mesh, physics.kappa, threads)
        colloc = mesh.vertices
        c = -kl.sum(axis=1)  # interior solid-angle fraction at each vertex
        free_1 = c
        free_2 = 1.0 - c
    else:
        raise UsageError(f"unknown space {space!r}")

    n = len(colloc)
    a = np.empty((2 * n, 2 * n))
    a[:n, :n] = kl
    a[:n, n:] = -vl
    a[n:, :n] = -ky
    a[n:, n:] = (physics.eps_m / physics.eps_w) * vy
    idx = np.arange(n)
    a[idx, idx] += free_1
    a[n + idx, idx] += free_2
    b = np.concatenate([coulomb_potential(charges, physics, colloc), np.zeros(n)])
    return a, b


def _p0_operators(mesh: SurfaceMesh, kappa: float, threads=None):
    """Panel-to-centroid operator blocks with self and near-singular terms."""
    cen = mesh.centroids
    vl, kl, vy, ky = kernels.kernel_row_blocks(cen, mesh, GAUSS7, kappa, threads=threads)

    ti, pj = kernels.near_pairs(cen, mesh)
    off = ti != pj
    ti, pj = ti[off], pj[off]
    if len(ti):
        coarse = kernels.kernel_pair_entries(cen[ti], mesh, pj, GAUSS7, kappa, threads=threads)
        fine = kernels.kernel_pair_entries(
            cen[ti], mesh, pj, kernels.NEAR_RULE, kappa, threads=threads
        )
        for block, c, f in zip((vl, kl, vy, ky), coarse, fine):
            block[ti, pj] += f - c

    idx = np.arange(mesh.n_panels)
    v_self = kernels.centroid_self_single_layer(mesh)
    vl[idx, idx] = v_self
    vy[idx, idx] = v_self + kernels.yukawa_regular_part(cen, mesh, idx, kappa, threads=threads)
    kl[idx, idx] = 0.0  # flat panel: principal value vanishes
    ky[idx, idx] = 0.0
    return vl, kl, vy, ky


def _p1_operators(mesh: SurfaceMesh, kappa: float, threads=None):
    """Vertex-collocated operator blocks for continuous linear elements."""
    verts = mesh.vertices
    n_vert, n_pan = mesh.n_vertices, mesh.n_panels
    tris = mesh.triangles
    scatter = csr_matrix(
        (np.ones(3 * n_pan), (np.arange(3 * n_pan), tris.ravel())),
        shape=(3 * n_pan, n_vert),
    )
    vl, kl, vy, ky = kernels.kernel_row_blocks(
        verts, mesh, GAUSS7, kappa, shape_functions=True, threads=threads, scatter=scatter
    )

    def adjust(block, pair_targets, pair_panels, delta):
        # one target row can hit the same vertex column through several
        # panels, so accumulation must not collapse duplicates
        for l in range(3):
            np.add.at(block, (pair_targets, tris[pair_panels, l]), delta[:, l])

    ti, pj = kernels.near_pairs(verts, mesh)
    incident = (tris[pj] == ti[:, None]).any(axis=1)
    near_t, near_p = ti[~incident], pj[~incident]
    if len(near_t):
        coarse = kernels.kernel_pair_entries(
            verts[near_t], mesh, near_p, GAUSS7, kappa, shape_functions=True, threads=threads
        )
        fine = kernels.kernel_pair_entries(
            verts[near_t], mesh, near_p, kernels.NEAR_RULE, kappa, shape_functions=True,
            threads=threads,
        )
        for block, c, f in zip((vl, kl, vy, ky), coarse, fine):
            adjust(block, near_t, near_p, f - c)

    # Incident pairs (vertex on panel): replace the regular-rule contribution
    # with the polar corner integral for the single layer; the flat-panel
    # double layer vanishes for any vertex lying on the panel.
    inc_t = np.repeat(np.arange(n_pan), 3)
    inc_v = tris.ravel()
    inc_local = np.tile(np.arange(3), n_pan)
    reg = kernels.kernel_pair_entries(
        verts[inc_v], mesh, inc_t, GAUSS7, kappa, shape_functions=True, threads=threads
    )
    v_corner = kernels.corner_single_layer_linear(mesh, inc_t, inc_local)
    y_corner = v_corner + kernels.yukawa_regular_part(
        verts[inc_v], mesh, inc_t, kappa, shape_functions=True, threads=threads
    )
    adjust(vl, inc_v, inc_t, v_corner - reg[0])
    adjust(kl, inc_v, inc_t, -reg[1])
    adjust(vy, inc_v, inc_t, y_corner - reg[2])
    adjust(ky, inc_v, inc_t, -reg[3])
    return vl, kl, vy, ky


def _gmres_solve(a, b, tol: float, max_iters: int, diagonal_scaling: bool):
    n = len(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), 0.0, 0
    m = None
    if diagonal_scaling:
        d = np.abs(np.diag(a))
        d[d == 0.0] = 1.0
        m = LinearOperator((n, n), matvec=lambda x: x / d)
    iters = [0]

    def count(_residual):
        iters[0] += 1

    x, _info = gmres(
        a,
        b,
        rtol=tol,
        atol=0.0,
        restart=min(max_iters, n),
        maxiter=1,
        M=m,
        callback=count,
        callback_type="pr_norm",
    )
    residual = float(np.linalg.norm(b - a @ x)) / b_norm
    if residual > tol:
        raise SolverError(
            f"GMRES stalled at relative residual {residual:.3e} after {iters[0]} iterations",
            residual=residual,
            iterations=iters[0],
        )
    return x, residual, iters[0]


def solve_forward(
    mesh: SurfaceMesh,
    physics: BiePhysics,
    charges: ChargeSet,
    gmres_tol: float = DEFAULT_GMRES_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    diagonal_scaling: bool = False,
    threads: int | None = None,
) -> PanelSolution:
    """Piecewise-constant traces collocated at panel centroids."""
    a, b = assemble_system(mesh, physics, charges, space="P0", threads=threads)
    x, residual, iters = _gmres_solve(a, b, gmres_tol, max_iters, diagonal_scaling)
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
    diagonal_scaling: bool = False,
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
    x, residual, iters = _gmres_solve(a, b, gmres_tol, max_iters, diagonal_scaling)
    n = fine.n_vertices
    return PanelSolution("P1", x[:n], x[n:], fine, residual, iters)
