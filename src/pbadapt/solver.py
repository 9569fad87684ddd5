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

At kappa = 0 the Yukawa kernel is the Laplace kernel, so with the top block
row [T | R] = [K_L + cI | -V_L] the bottom one is [I - T | -(eps_m/eps_w) R]
bit for bit: negation is exact. Only the top row is stored then, half the
bytes, and the product applies the bottom row from it.

Every system is stored in float32 (``System``) and solved by GMRES with
iterative refinement (GMRES-IR: Carson & Higham, SIAM J. Sci. Comput. 39
(2017) A2834 and 40 (2018) A817): each GMRES cycle runs on float32 products
and the true residual b - Ax between cycles on float64 ones. Each entry is
rounded once, when it is written. A single-layer column, the only part of
the operator that carries a length, is stored divided by a length of its
own basis function's support, so the stored values, and their rounding, do
not change when every length is scaled.

GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7 (1986) 856) solves the
system right-preconditioned by the point block-Jacobi inverse D^-1: D
holds, for each collocation point, the 2x2 block coupling its u- and
du-/dn unknowns, the block-diagonal preconditioner of PyGBe (Cooper,
Bardhan & Barba, Comput. Phys. Commun. 185 (2014) 720). Right rather than
left, so that the residual GMRES stops on is the true one.

An adaptive loop changes a few panels per step. Assembly through a
``SystemCache`` copies every entry whose row and column geometry is
unchanged from the system the cache holds and integrates only the rest.
The copy, the free terms and the preconditioner read the stored rows as one
view (block row, row, block column, column), one block row at kappa = 0.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import SolverError, UsageError
from .mesh import SurfaceMesh, refine
from .physics import BiePhysics, ChargeSet, coulomb_potential, require_charges_inside
from .sweep import chunks, per_worker, run_parallel, runs

DEFAULT_GMRES_TOL = 1e-8
DEFAULT_MAX_ITERS = 1000
CYCLE_REDUCTION = 1e-4     # a GMRES-IR cycle stops when it has cut the true residual this much
PRODUCT_VALUES = 1 << 17   # stored values a float64 product upcasts at once (1 MB), per worker
# bytes per collocation point that a solve holds besides its system: near pairs
# and their integrals, row batches, GMRES basis. A level-4 sphere at kappa =
# 0.125 peaked 39 MB (P0, 5,120 points) and 70 MB (P1, 2,562 points) above its
# RSS before the solve plus the system: 7.7 and 27.3 kB a point, rounded up
SOLVE_BYTES_PER_POINT = {"P0": 10_000, "P1": 32_000}
_PROC_MEMINFO = Path("/proc/meminfo")
_PROC_CGROUP = Path("/proc/self/cgroup")
_CGROUP_ROOT = Path("/sys/fs/cgroup")


@dataclass(frozen=True)
class PanelSolution:
    """Surface traces of the interior potential.

    ``space`` is "P0" (one value per panel, centroid collocation) or "P1"
    (one value per vertex); ``mesh_ref`` is the mesh the solve ran on.
    ``charges``, when set, are the charges the solve found inside
    ``mesh_ref``; ``reaction_potential`` does not test them again.
    ``gmres_history`` is the true relative residual after each refinement
    cycle, the last of which is ``gmres_residual``; a zero right-hand side
    takes none.
    """

    space: str
    u_trace: np.ndarray
    dudn_trace: np.ndarray
    mesh_ref: SurfaceMesh
    gmres_residual: float
    gmres_iters: int
    charges: ChargeSet | None = None
    gmres_history: tuple[float, ...] = ()

    def __post_init__(self):
        n = self.mesh_ref.n_panels if self.space == "P0" else self.mesh_ref.n_vertices
        if self.u_trace.shape != (n,) or self.dudn_trace.shape != (n,):
            raise UsageError("trace length does not match the discretization")


class System:
    """A 2N x 2N collocation system as it is stored, for x = [u, v] of length 2N.

    ``blocks`` is the float32 view (block row, row, block column, column).
    At kappa = 0 it holds the top block row [T | R] alone, and the products
    apply the bottom row [I - T | -ratio R], ratio = eps_m/eps_w, from T u
    and R v. Column j of the single-layer block column is stored divided by
    ``lengths[j]``; the products multiply v by the lengths, so they act on
    the unknowns themselves.

    ``a @ x`` accumulates in float64, upcasting one chunk of rows at a time
    on ``sweep.run_parallel``; ``a.single(x)`` rounds x to float32 and
    accumulates in float32 (BLAS sgemv). ``np.asarray(a)`` builds the dense
    float64 matrix of the stored values times their lengths, on request.
    ``len(a)`` is 2N and ``a.nbytes`` the stored bytes.
    """

    def __init__(self, blocks: np.ndarray, ratio: float, lengths: np.ndarray):
        self.blocks, self.ratio, self.lengths = blocks, ratio, lengths

    def __len__(self):
        return 2 * self.blocks.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), len(self)

    @property
    def nbytes(self) -> int:
        return self.blocks.nbytes

    def _apply(self, x, halves):
        n = len(x) // 2
        t, w = halves(self.blocks.reshape(-1, 2 * n), x[:n], self.lengths * x[n:])
        if len(self.blocks) == 2:
            return t + w
        return np.concatenate([t + w, x[:n] - t - self.ratio * w])

    def __matmul__(self, x):
        return self._apply(x, _float64_halves)

    def single(self, x):
        return self._apply(x, _float32_halves)

    def point_blocks(self):
        """(p, q, r, s): each collocation point's 2x2 block [[p, q], [r, s]],
        float64, as the products apply it."""
        n = len(self) // 2
        idx = np.arange(n)
        # diag[j, k]: the diagonal of block row k, block column j
        diag = self.blocks[:, idx, :, idx].T.astype(float)
        p, q = diag[0, 0], diag[1, 0] * self.lengths
        if len(self.blocks) == 1:
            return p, q, 1.0 - p, -self.ratio * q
        return p, q, diag[0, 1], diag[1, 1] * self.lengths

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("the dense system is built on request, so it is always a copy")
        n = len(self) // 2
        a = np.empty((2 * n, 2 * n))
        stored = a[: len(self.blocks) * n]
        stored[:] = self.blocks.reshape(-1, 2 * n)
        stored[:, n:] *= self.lengths
        if len(self.blocks) == 1:
            np.negative(a[:n, :n], out=a[n:, :n])
            np.multiply(a[:n, n:], -self.ratio, out=a[n:, n:])
            idx = np.arange(n)
            a[n + idx, idx] = 1.0 - a[idx, idx]
        return a if dtype is None else a.astype(dtype)


def _float32_halves(rows, u, v):
    """(rows[:, :n] @ u, rows[:, n:] @ v) with u and v rounded to float32, in float32."""
    n = len(u)
    return ((rows[:, :n] @ u.astype(np.float32)).astype(float),
            (rows[:, n:] @ v.astype(np.float32)).astype(float))


def _float64_halves(rows, u, v):
    """(rows[:, :n] @ u, rows[:, n:] @ v) accumulated in float64. Each worker
    takes one run of consecutive cache-sized chunks of rows and upcasts them
    one at a time into one reused buffer: no float64 copy of ``rows``."""
    n = len(u)
    t, w = np.empty(len(rows)), np.empty(len(rows))
    spans = chunks(len(rows), 2 * n, PRODUCT_VALUES)

    def run(run_spans):
        buf = np.empty((run_spans[0].stop - run_spans[0].start, 2 * n))
        for sl in run_spans:
            chunk = buf[: sl.stop - sl.start]
            np.copyto(chunk, rows[sl])
            np.matmul(chunk[:, :n], u, out=t[sl])
            np.matmul(chunk[:, n:], v, out=w[sl])

    run_parallel(run, per_worker(spans))
    return t, w


class _Held(NamedTuple):
    space: str
    physics: BiePhysics
    mesh: SurfaceMesh
    matrix: System


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
    panels = _match(old.corners.reshape(-1, 9), mesh.corners.reshape(-1, 9))
    if not p1:
        return panels, panels
    rows = _match(old.vertices, mesh.vertices)
    star = np.bincount(mesh.triangles.ravel(), minlength=mesh.n_vertices)
    kept = np.bincount(mesh.triangles[panels >= 0].ravel(), minlength=mesh.n_vertices)
    old_star = np.bincount(old.triangles.ravel(), minlength=old.n_vertices)
    same = (rows >= 0) & (kept == star) & (old_star[rows] == star)
    return rows, np.where(same, rows, -1)


def _cgroup_headroom() -> int | None:
    """Bytes the process's cgroup (v2) memory limit leaves, None without a
    limit. What the process already holds counts against it. Only reads
    system files."""
    try:
        entry = next(line for line in _PROC_CGROUP.read_text().splitlines()
                     if line.startswith("0::"))
        group = _CGROUP_ROOT / entry[3:].lstrip("/")
        limit = (group / "memory.max").read_text().strip()
        if limit != "max":
            return int(limit) - int((group / "memory.current").read_text())
    except (OSError, StopIteration, ValueError):
        pass  # no cgroup v2 memory limit
    return None


def _available_memory() -> int | None:
    """Bytes the kernel reports as ``MemAvailable``, None where it cannot be
    read. What the process already holds is not available. Only reads
    system files."""
    try:
        line = next(line for line in _PROC_MEMINFO.read_text().splitlines()
                    if line.startswith("MemAvailable:"))
        return int(line.split()[1]) * 1024  # kB
    except (OSError, StopIteration, ValueError, IndexError):
        return None


def _memory_budget() -> int:
    """Bytes a new allocation may take: the smaller of the available memory
    and the process's cgroup (v2) headroom, both of which count what the
    process holds; physical memory, which does not, when neither is known."""
    known = [m for m in (_available_memory(), _cgroup_headroom()) if m is not None]
    return min(known) if known else os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _column_lengths(mesh: SurfaceMesh, p1: bool) -> np.ndarray:
    """The length each single-layer column is stored divided by: the panel's
    diameter (P0), or the largest diameter in the vertex's star (P1). It
    depends only on the panels the column integrates over."""
    if not p1:
        return mesh.diameters
    lengths = np.zeros(mesh.n_vertices)
    np.maximum.at(lengths, mesh.triangles, mesh.diameters[:, None])
    return lengths


def assemble_system(
    mesh: SurfaceMesh,
    physics: BiePhysics,
    charges: ChargeSet,
    space: str = "P0",
    cache: SystemCache | None = None,
):
    """2N x 2N collocation system (a ``System``) and right-hand side.

    Unknown ordering: [u-, du-/dn]; the second block row is homogeneous.
    The system stores 4 bytes per entry: 16 N^2 bytes, or 8 N^2 at kappa = 0,
    where only the top block row is stored. With a ``cache`` that holds a
    system of the same space and physics, the entries of unchanged rows and
    columns (``_unchanged``) are copied from it; the cache then holds the
    new system. Freshly integrated far entries can differ from the copied
    ones in the last bit, as between row batches of different sizes
    (``kernels.kernel_row_blocks``). Raises SolverError when the system and
    an allowance of SOLVE_BYTES_PER_POINT per point for the rest of the solve
    would not fit in memory beside the held system.
    """
    require_charges_inside(charges, mesh)
    if space not in ("P0", "P1"):
        raise UsageError(f"unknown space {space!r}")
    p1 = space == "P1"
    colloc = mesh.vertices if p1 else mesh.centroids
    n = len(colloc)
    held = None if cache is None else cache._held
    # the held system stays allocated while the new one is built; the available
    # memory and a cgroup's headroom already count it, physical memory does not
    counted = _available_memory() is not None or _cgroup_headroom() is not None
    held_bytes = 0 if held is None or counted else held.matrix.nbytes
    top_only = physics.kappa == 0.0
    block_rows = 1 if top_only else 2
    need, budget = 4 * block_rows * n * 2 * n, _memory_budget()
    allowance = SOLVE_BYTES_PER_POINT[space] * n
    if need + allowance + held_bytes > budget:
        what = f"top block row ({n} x {2 * n}) of the" if top_only else "dense"
        raise SolverError(
            f"the {what} {2 * n} x {2 * n} system needs {need / 1e9:.2f} GB, and the rest "
            f"of the solve {allowance / 1e9:.2f} GB, more than the {budget / 1e9:.2f} GB available"
            + (f" beside the {held_bytes / 1e9:.2f} GB held system" if held_bytes else "")
        )
    rows = cols = np.full(n, -1)
    old = None
    if held is not None and (held.space, held.physics, kernels.grades(held.mesh)) == (
            space, physics, kernels.grades(mesh)):
        rows, cols = _unchanged(held.mesh, mesh, p1)
        old = held.matrix.blocks
    new_rows, kept_rows = np.flatnonzero(rows < 0), np.flatnonzero(rows >= 0)
    new_cols, kept_cols = np.flatnonzero(cols < 0), np.flatnonzero(cols >= 0)
    view = np.empty((block_rows, n, 2, n), dtype=np.float32)
    col_runs = runs(kept_cols, cols[kept_cols])
    for rd, rs in runs(kept_rows, rows[kept_rows]):
        for cd, cs in col_runs:
            view[:, rd, :, cd] = old[:, rs, :, cs]
    # VL, KL, VY, KY; at kappa = 0 the Yukawa blocks follow from the Laplace ones
    blocks = tuple(view[i, :, j] if i < block_rows else None
                   for i, j in ((0, 1), (0, 0), (1, 1), (1, 0)))
    ratio = physics.eps_m / physics.eps_w
    lengths = _column_lengths(mesh, p1)
    # the row batches round each value once, as they write it times its factor
    scale = (-1.0 / lengths, 1.0, ratio / lengths, -1.0)
    kernels.operator_blocks(colloc[new_rows], mesh, physics.kappa, blocks, p1, scale=scale,
                            rows=new_rows)
    if len(kept_rows) and len(new_cols):
        # held rows x new columns: every panel that reaches a new column is
        # integrated, and the columns of its other vertices are dropped
        panels = new_cols
        if p1:
            panels = np.flatnonzero(np.isin(mesh.triangles, new_cols).any(axis=1))
        columns = kernels.basis_columns(mesh, p1, panels)
        values = tuple(None if block is None else np.empty((len(kept_rows), len(columns)))
                       for block in blocks)
        kernels.operator_blocks(colloc[kept_rows], mesh, physics.kappa, values, p1, panels,
                                tuple(f if np.isscalar(f) else f[columns] for f in scale))
        pick = np.searchsorted(columns, new_cols)
        for block, value in zip(blocks, values):
            if block is not None:
                block[kept_rows[:, None], new_cols] = value[:, pick]
    # the KL and KY diagonals are 0, the principal value on the target's own
    # panels; a copied KL diagonal still carries the old free term
    idx = np.arange(n)
    view[0, idx, 0, idx] = 0.0
    # P0: flat panels, c = 1/2; P1: c is the interior solid-angle fraction at
    # each vertex, which the Laplace double layer's row sums give, summed in
    # float64 over the stored values
    c = -view[0, :, 0].sum(axis=1, dtype=float) if p1 else np.full(n, 0.5)
    view[0, idx, 0, idx] = c
    view[1:, idx, 0, idx] = 1.0 - c
    system = System(view, ratio, lengths)
    b = np.concatenate([coulomb_potential(charges, physics, colloc), np.zeros(n)])
    if cache is not None:
        cache._held = _Held(space, physics, mesh, system)
        cache.reused = (len(kept_rows), len(kept_cols))
        cache.computed = (len(new_rows), len(new_cols))
    return system, b


def _block_jacobi(a: System):
    """(y, out) -> out = D^-1 y, where D holds the 2x2 block of ``a`` at each
    collocation point (``System.point_blocks``).

    Point i's block couples its u- and du-/dn unknowns, rows and columns i
    and n+i; each is inverted in closed form in float64, so no copy of ``a``
    is made. Raises SolverError naming the first point whose block is
    singular.
    """
    n = len(a) // 2
    p, q, r, s = a.point_blocks()
    det = p * s - q * r
    bad = np.flatnonzero(~np.isfinite(det) | (det == 0.0))
    if bad.size:
        raise SolverError(
            f"singular 2x2 diagonal block at collocation point {bad[0]} "
            f"(determinant {det[bad[0]]}); {bad.size} point(s) affected"
        )
    p, q, r, s = p / det, q / det, r / det, s / det

    def apply(y, out):
        u, v = y[:n], y[n:]
        return np.concatenate([s * u - q * v, p * v - r * u], out=out)

    return apply


def gmres(operator, b, *, restart: int, atol: float):
    """One GMRES cycle for ``operator(y) = b`` from y = 0; returns (y, steps).

    Runs at most ``restart`` Arnoldi steps and stops after the step whose
    least-squares residual estimate is at most ``atol``, or at a breakdown,
    where the Krylov space holds the solution. Each step orthogonalises by
    classical Gram-Schmidt done twice, two ``basis @ w`` products a pass,
    which keeps the basis orthogonal to working precision (Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50 (2005) 1069). The Givens rotations
    run on Python floats; the cycle ends with one triangular solve.
    ``operator`` returns a new array, which the cycle may overwrite.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros(len(b)), 0
    eps = np.finfo(float).eps
    basis = np.empty((restart + 1, len(b)))
    np.divide(b, beta, out=basis[0])
    columns, rotations, g = [], [], [beta]
    for j in range(restart):
        w = operator(basis[j])
        head = float(np.linalg.norm(w))
        v = basis[: j + 1]
        h = v @ w
        w -= h @ v
        again = v @ w
        w -= again @ v
        h += again
        tail = float(np.linalg.norm(w))
        col = h.tolist()
        for k, (c, sn) in enumerate(rotations):
            col[k], col[k + 1] = c * col[k] + sn * col[k + 1], c * col[k + 1] - sn * col[k]
        rho = math.hypot(col[j], tail)
        c, sn = (col[j] / rho, tail / rho) if rho else (1.0, 0.0)
        col[j] = rho
        rotations.append((c, sn))
        columns.append(col)
        g[j], residual = c * g[j], -sn * g[j]
        g.append(residual)
        if abs(residual) <= atol or tail <= eps * head:
            break
        np.divide(w, tail, out=basis[j + 1])
    steps = len(columns)
    # back substitution on the rotated Hessenberg matrix, column by column;
    # a zero diagonal (a singular least-squares problem) drops its direction
    y = g[:steps]
    for k in range(steps - 1, -1, -1):
        y[k] = y[k] / columns[k][k] if columns[k][k] else 0.0
        for i in range(k):
            y[i] -= columns[k][i] * y[k]
    return np.asarray(y) @ basis[:steps], steps


def _gmres_solve(a: System, b, tol: float, max_iters: int):
    """GMRES-IR on A D^-1 y = b, x = D^-1 y, with D^-1 from ``_block_jacobi``;
    returns (x, history, iterations).

    Right, not left, preconditioning: the residual GMRES minimises,
    b - A D^-1 y, is then the true residual b - A x. Each ``gmres`` cycle
    runs on the float32 products ``a.single`` and stops once its residual
    estimate is CYCLE_REDUCTION times the residual it started from; the
    true residual b - A x is then computed in float64, one ``a @ x``, and
    the next cycle starts from it, until the true relative residual is at
    most ``tol``. ``history`` holds that residual after each cycle. Raises
    SolverError once ``max_iters`` steps are spent, or when a cycle takes no
    step or does not lower the true residual: the float32 products then
    cannot take it further.
    """
    n = len(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), [], 0
    precondition = _block_jacobi(a)
    buffer = np.empty(n)

    def operator(y):
        return a.single(precondition(y, buffer))

    x, r, iters, history = np.zeros(n), b, 0, [1.0]
    while True:
        y, steps = gmres(operator, r, restart=min(max_iters - iters, n),
                         atol=CYCLE_REDUCTION * history[-1] * b_norm)
        iters += steps
        x += precondition(y, buffer)
        r = b - a @ x
        history.append(float(np.linalg.norm(r)) / b_norm)
        if history[-1] <= tol:
            return x, history[1:], iters
        if iters >= max_iters or steps == 0 or history[-1] >= history[-2]:
            raise SolverError(
                f"GMRES stalled at relative residual {history[-1]:.3e} after {iters} "
                f"iterations in {len(history) - 1} refinement cycles",
                residual=history[-1],
                iterations=iters,
            )


def _solve(mesh, physics, charges, space, gmres_tol, max_iters, cache) -> PanelSolution:
    """Assemble the system of ``space`` on ``mesh`` and solve it with GMRES-IR."""
    a, b = assemble_system(mesh, physics, charges, space=space, cache=cache)
    x, history, iters = _gmres_solve(a, b, gmres_tol, max_iters)
    n = len(b) // 2
    residual = history[-1] if history else 0.0  # a zero right-hand side takes no cycle
    return PanelSolution(space, x[:n], x[n:], mesh, residual, iters, charges, tuple(history))


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
