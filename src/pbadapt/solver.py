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

GMRES solves the system right-preconditioned by the point block-Jacobi
inverse D^-1: D holds, for each collocation point, the 2x2 block coupling
its u- and du-/dn unknowns, the block-diagonal preconditioner of PyGBe
(Cooper, Bardhan & Barba, Comput. Phys. Commun. 185 (2014) 720). Right
rather than left, so that the residual GMRES stops on is the true one.

An adaptive loop changes a few panels per step. Assembly through a
``SystemCache`` copies every entry whose row and column geometry is
unchanged from the system the cache holds and integrates only the rest.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from . import kernels
from .errors import SolverError, UsageError
from .mesh import SurfaceMesh, refine
from .physics import BiePhysics, ChargeSet, coulomb_potential, require_charges_inside

DEFAULT_GMRES_TOL = 1e-8
DEFAULT_MAX_ITERS = 1000
_PROC_CGROUP = Path("/proc/self/cgroup")
_CGROUP_ROOT = Path("/sys/fs/cgroup")


@dataclass(frozen=True)
class PanelSolution:
    """Surface traces of the interior potential.

    ``space`` is "P0" (one value per panel, centroid collocation) or "P1"
    (one value per vertex); ``mesh_ref`` is the mesh the solve ran on.
    ``charges``, when set, are the charges the solve found inside
    ``mesh_ref``; ``reaction_potential`` does not test them again.
    """

    space: str
    u_trace: np.ndarray
    dudn_trace: np.ndarray
    mesh_ref: SurfaceMesh
    gmres_residual: float
    gmres_iters: int
    charges: ChargeSet | None = None

    def __post_init__(self):
        n = self.mesh_ref.n_panels if self.space == "P0" else self.mesh_ref.n_vertices
        if self.u_trace.shape != (n,) or self.dudn_trace.shape != (n,):
            raise UsageError("trace length does not match the discretization")


class _Held(NamedTuple):
    space: str
    physics: BiePhysics
    mesh: SurfaceMesh
    matrix: np.ndarray


class SystemCache:
    """The last system assembled through it, kept for the next mesh.

    ``assemble_system(..., cache=...)`` copies from the held system every
    entry whose row and column are unchanged, integrates the others, and
    then holds the new system in place of the old one. The held matrix is
    the one ``assemble_system`` returned, so callers must not modify it.
    ``reused`` and ``computed`` count that assembly's (rows, columns) of
    each N x N block.
    """

    def __init__(self):
        self._held: _Held | None = None
        self.reused = (0, 0)
        self.computed = (0, 0)


def _match(old, new) -> np.ndarray:
    """Index of the row of ``old`` equal bit for bit to each row of ``new``, -1 if none."""
    index = {row.tobytes(): i for i, row in enumerate(old)}
    return np.array([index.get(row.tobytes(), -1) for row in new], dtype=np.int64)


def _unchanged(old: SurfaceMesh, mesh: SurfaceMesh, p1: bool):
    """(rows, cols): the old row and column each new one equals, -1 where it changed.

    A P0 row or column is its panel's operator; it is unchanged when the
    panel's three corners are. A P1 row is unchanged when its vertex is,
    a P1 column when in addition every panel of the vertex's star is.
    """
    panels = _match(old.vertices[old.triangles].reshape(-1, 9),
                    mesh.vertices[mesh.triangles].reshape(-1, 9))
    if not p1:
        return panels, panels
    rows = _match(old.vertices, mesh.vertices)
    star = np.bincount(mesh.triangles.ravel(), minlength=mesh.n_vertices)
    kept = np.bincount(mesh.triangles[panels >= 0].ravel(), minlength=mesh.n_vertices)
    old_star = np.bincount(old.triangles.ravel(), minlength=old.n_vertices)
    same = (rows >= 0) & (kept == star) & (old_star[rows] == star)
    return rows, np.where(same, rows, -1)


def _runs(dst, src) -> list[tuple[slice, slice]]:
    """(dst, src) slice pairs over the maximal stretches where both indices step by one."""
    if len(dst) == 0:
        return []
    cut = np.flatnonzero((np.diff(dst) != 1) | (np.diff(src) != 1)) + 1
    return [(slice(dst[i], dst[j - 1] + 1), slice(src[i], src[j - 1] + 1))
            for i, j in zip(np.r_[0, cut], np.r_[cut, len(dst)])]


def _copy(a, old, dst_rows, src_rows, dst_cols, src_cols) -> None:
    """a[dst_rows x dst_cols] = old[src_rows x src_cols], one slice copy per
    pair of stretches (``_runs``)."""
    col_runs = _runs(dst_cols, src_cols)
    for rd, rs in _runs(dst_rows, src_rows):
        for cd, cs in col_runs:
            a[rd, cd] = old[rs, cs]


def _memory_budget() -> int:
    """Bytes a new allocation may take: physical memory, or less if the
    process's cgroup (v2) limit leaves less. Only reads system files."""
    budget = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    try:
        entry = next(line for line in _PROC_CGROUP.read_text().splitlines()
                     if line.startswith("0::"))
        group = _CGROUP_ROOT / entry[3:].lstrip("/")
        limit = (group / "memory.max").read_text().strip()
        if limit != "max":
            budget = min(budget, int(limit) - int((group / "memory.current").read_text()))
    except (OSError, StopIteration, ValueError):
        pass  # no cgroup v2 memory limit: physical memory is the bound
    return budget


def _scaled(blocks, physics):
    vl, _, vy, ky = blocks
    vl *= -1.0
    ky *= -1.0
    vy *= physics.eps_m / physics.eps_w
    return blocks


def _operator_rows(colloc, mesh, physics, p1, targets, panels=None):
    """Scaled (VL, KL, VY, KY) blocks at the collocation points ``targets``,
    with every column, or the columns of ``kernels.basis_columns`` for ``panels``."""
    n_cols = len(colloc) if panels is None else len(kernels.basis_columns(mesh, p1, panels))
    out = tuple(np.empty((len(targets), n_cols)) for _ in range(4))
    kernels.operator_blocks(colloc[targets], mesh, physics.kappa, out, p1, panels=panels)
    return _scaled(out, physics)


def assemble_system(
    mesh: SurfaceMesh,
    physics: BiePhysics,
    charges: ChargeSet,
    space: str = "P0",
    cache: SystemCache | None = None,
):
    """Dense 2N x 2N collocation matrix and right-hand side.

    Unknown ordering: [u-, du-/dn]; the second block row is homogeneous.
    With a ``cache`` that holds a system of the same space and physics, the
    entries of unchanged rows and columns (``_unchanged``) are copied from
    it; the cache then holds the new system. Freshly integrated far entries
    can differ from the copied ones in the last bit, as between row batches
    of different sizes (``kernels.kernel_row_blocks``). Raises SolverError
    when the matrix would not fit in memory.
    """
    require_charges_inside(charges, mesh)
    if space not in ("P0", "P1"):
        raise UsageError(f"unknown space {space!r}")
    p1 = space == "P1"
    colloc = mesh.vertices if p1 else mesh.centroids
    n = len(colloc)
    need, budget = 32 * n * n, _memory_budget()
    if need > budget:
        raise SolverError(
            f"the dense {2 * n} x {2 * n} system needs {need / 1e9:.2f} GB, "
            f"more than the {budget / 1e9:.2f} GB available"
        )
    held = None if cache is None else cache._held
    rows = cols = np.full(n, -1)
    if held is not None and (held.space, held.physics) == (space, physics):
        rows, cols = _unchanged(held.mesh, mesh, p1)
    new_rows, kept_rows = np.flatnonzero(rows < 0), np.flatnonzero(rows >= 0)
    new_cols, kept_cols = np.flatnonzero(cols < 0), np.flatnonzero(cols >= 0)
    a = np.empty((2 * n, 2 * n))
    blocks = (a[:n, n:], a[:n, :n], a[n:, n:], a[n:, :n])  # VL, KL, VY, KY
    if len(kept_rows) == 0:  # nothing to copy: write straight into the matrix
        kernels.operator_blocks(colloc, mesh, physics.kappa, blocks, p1)
        _scaled(blocks, physics)
    else:
        old_n = len(held.matrix) // 2
        _copy(a, held.matrix,
              np.r_[kept_rows, kept_rows + n], np.r_[rows[kept_rows], rows[kept_rows] + old_n],
              np.r_[kept_cols, kept_cols + n], np.r_[cols[kept_cols], cols[kept_cols] + old_n])
        if len(new_rows):
            for block, value in zip(blocks, _operator_rows(colloc, mesh, physics, p1, new_rows)):
                block[new_rows] = value
        if len(new_cols):
            # every panel that reaches a new column; its other columns are dropped
            panels = new_cols
            if p1:
                panels = np.flatnonzero(np.isin(mesh.triangles, new_cols).any(axis=1))
            pick = np.searchsorted(kernels.basis_columns(mesh, p1, panels), new_cols)
            values = _operator_rows(colloc, mesh, physics, p1, kept_rows, panels)
            for block, value in zip(blocks, values):
                block[kept_rows[:, None], new_cols] = value[:, pick]
    # the KL and KY diagonals are 0, the principal value on the target's own
    # panels; a copied KL diagonal still carries the old free term
    idx = np.arange(n)
    a[idx, idx] = 0.0
    # P0: flat panels, c = 1/2; P1: c is the interior solid-angle fraction at
    # each vertex, which the Laplace double layer's row sums give
    c = -a[:n, :n].sum(axis=1) if p1 else np.full(n, 0.5)
    a[idx, idx] = c
    a[n + idx, idx] = 1.0 - c
    b = np.concatenate([coulomb_potential(charges, physics, colloc), np.zeros(n)])
    if cache is not None:
        cache._held = _Held(space, physics, mesh, a)
        cache.reused = (len(kept_rows), len(kept_cols))
        cache.computed = (len(new_rows), len(new_cols))
    return a, b


def _block_jacobi(a):
    """y -> D^-1 y, where D holds the 2x2 block of ``a`` at each collocation point.

    Point i's block couples its u- and du-/dn unknowns, rows and columns i
    and n+i; each is inverted in closed form, so no copy of ``a`` is made.
    Raises SolverError naming the first point whose block is singular.
    """
    n = len(a) // 2
    idx = np.arange(n)
    p, q = a[idx, idx], a[idx, n + idx]
    r, s = a[n + idx, idx], a[n + idx, n + idx]
    det = p * s - q * r
    bad = np.flatnonzero(~np.isfinite(det) | (det == 0.0))
    if bad.size:
        raise SolverError(
            f"singular 2x2 diagonal block at collocation point {bad[0]} "
            f"(determinant {det[bad[0]]}); {bad.size} point(s) affected"
        )
    p, q, r, s = p / det, q / det, r / det, s / det

    def apply(y):
        u, v = y.reshape(2, n)
        return np.concatenate([s * u - q * v, p * v - r * u])

    return apply


def _gmres_solve(a, b, tol: float, max_iters: int):
    """GMRES on A D^-1 y = b, returning x = D^-1 y, with D^-1 from ``_block_jacobi``.

    Right, not left, preconditioning: the residual GMRES minimises,
    b - A D^-1 y, is then the true residual b - A x, whereas scipy's ``M=``
    applies D^-1 on the left and stops on D^-1 (b - A x), which can leave
    the true residual above ``tol``. Scipy still stops on its own residual
    estimate, so GMRES is restarted from its iterate until the true relative
    residual is at most ``tol``. Raises SolverError once ``max_iters``
    iterations are spent or a restart makes no progress.
    """
    n = len(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), 0.0, 0
    precondition = _block_jacobi(a)
    operator = LinearOperator(a.shape, matvec=lambda y: a @ precondition(y), dtype=a.dtype)
    iters = [0]

    def count(_residual):
        iters[0] += 1

    y = np.zeros(n)
    while True:
        start = iters[0]
        y, _info = gmres(
            operator,
            b,
            x0=y,
            rtol=tol,
            atol=0.0,
            restart=min(max_iters - start, n),
            maxiter=1,
            callback=count,
            callback_type="pr_norm",
        )
        x = precondition(y)
        residual = float(np.linalg.norm(b - a @ x)) / b_norm
        if residual <= tol:
            return x, residual, iters[0]
        if iters[0] >= max_iters or iters[0] == start:
            raise SolverError(
                f"GMRES stalled at relative residual {residual:.3e} after {iters[0]} iterations",
                residual=residual,
                iterations=iters[0],
            )


def _solve(mesh, physics, charges, space, gmres_tol, max_iters, cache) -> PanelSolution:
    """Assemble the system of ``space`` on ``mesh`` and solve it with GMRES."""
    a, b = assemble_system(mesh, physics, charges, space=space, cache=cache)
    x, residual, iters = _gmres_solve(a, b, gmres_tol, max_iters)
    n = len(b) // 2
    return PanelSolution(space, x[:n], x[n:], mesh, residual, iters, charges)


def solve_forward(
    mesh: SurfaceMesh,
    physics: BiePhysics,
    charges: ChargeSet,
    gmres_tol: float = DEFAULT_GMRES_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    cache: SystemCache | None = None,
) -> PanelSolution:
    """Piecewise-constant traces collocated at panel centroids; ``cache`` as
    in ``assemble_system``."""
    return _solve(mesh, physics, charges, "P0", gmres_tol, max_iters, cache)


def solve_adjoint(
    mesh: SurfaceMesh,
    physics: BiePhysics,
    charges: ChargeSet,
    refine_levels: int = 1,
    background: SurfaceMesh | None = None,
    gmres_tol: float = DEFAULT_GMRES_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    cache: SystemCache | None = None,
) -> PanelSolution:
    """Dual traces on a uniformly refined mesh, continuous piecewise linear.

    The dual problem has the same boundary-integral form as the forward one,
    so this solves the same system with vertex collocation on the mesh
    obtained by ``refine_levels`` uniform 4-splits. With a ``background``
    mesh the splits are surface-conforming (new vertices snapped onto it),
    which lets the dual solution resolve the geometric part of the error,
    not just the discretization part. The returned solution's mesh carries a
    parent map back to the input mesh. ``cache`` as in ``assemble_system``.
    """
    if refine_levels < 0:
        raise UsageError("refine_levels must be >= 0")
    fine, parents = mesh, np.arange(mesh.n_panels)
    for _ in range(refine_levels):
        fine = refine(fine, range(fine.n_panels), background)
        parents = parents[fine.parent_map]
    fine = dataclasses.replace(fine, parent_map=parents)
    return _solve(fine, physics, charges, "P1", gmres_tol, max_iters, cache)
