"""Laplace and Yukawa free-space kernels and triangle-panel quadrature.

Conventions: kernels carry the 1/(4*pi) factor. ``dgdn_*`` differentiates
with respect to the *source* point along the source normal,

    dG_L/dn' = (r - r') . n' / (4*pi*|r - r'|^3),

so that with outward normals the double layer of a constant density over a
closed surface sums to -1 for targets inside (Gauss identity).

The singular self-integrals split the panel into a fan of subtriangles
around the target and integrate the radial direction in closed form with a
Gaussian rule in angle.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import SingularityError, UsageError
from .mesh import SurfaceMesh
from .quadrature import GAUSS7, QuadratureRule, subdivided

COINCIDENT_TOL = 1e-14
NEAR_FACTOR = 2.0                  # targets within this many diameters are "near"
NEAR_RULE = subdivided(GAUSS7, 3)  # 448-point composite rule for near panels
SMOOTH_RULE = subdivided(GAUSS7, 2)
FOUR_PI = 4.0 * np.pi
ROW_BATCH_VALUES = 6.0e6           # values per kernel array, summed over concurrent row batches
PAIR_CHUNK_POINTS = 4096 * 7       # quadrature points per chunk of (target, panel) pairs
FAN_ANGLES = 16                    # Gauss points in angle per fan subtriangle


# ---------------------------------------------------------------------------
# pointwise kernels


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


# ---------------------------------------------------------------------------
# singular fan quadrature


def _fan_single_layer(targets, corners, grads=None, psi_at_target=None):
    """Single-layer Laplace integral over triangles whose target lies on them.

    For each entry the triangle is fanned into subtriangles around the
    target; the radial integral is closed-form and the angle is integrated
    with a ``FAN_ANGLES``-point Gauss rule. With ``grads`` (per-entry shape
    function gradients, (P, 3, 3)) and ``psi_at_target`` (P, 3) the density
    is piecewise linear and the result has one column per shape function.
    """
    gx, gw = np.polynomial.legendre.leggauss(FAN_ANGLES)
    targets = np.asarray(targets, dtype=float)
    n_entries = len(targets)
    linear = grads is not None
    out = np.zeros((n_entries, 3)) if linear else np.zeros(n_entries)
    for e in range(3):
        a = corners[:, e] - targets
        b = corners[:, (e + 1) % 3] - targets
        cr = np.cross(a, b)
        crn = np.linalg.norm(cr, axis=1)
        la = np.linalg.norm(a, axis=1)
        lb = np.linalg.norm(b, axis=1)
        ok = crn > 1e-12 * np.maximum(la * lb, 1e-300)
        if not np.any(ok):
            continue
        ai, bi = a[ok], b[ok]
        e1 = ai / la[ok][:, None]
        nhat = cr[ok] / crn[ok][:, None]
        e2 = np.cross(nhat, e1)
        a2x = la[ok]
        b2x = np.einsum("ij,ij->i", bi, e1)
        b2y = np.einsum("ij,ij->i", bi, e2)  # > 0 by construction of e2
        alpha = np.arctan2(b2y, b2x)
        theta = 0.5 * alpha[:, None] * (gx[None, :] + 1.0)
        ct, st = np.cos(theta), np.sin(theta)
        # distance to the line through the opposite edge, per angle
        nlx, nly = b2y, a2x - b2x
        rho = (a2x * nlx)[:, None] / (ct * nlx[:, None] + st * nly[:, None])
        wt = 0.5 * alpha[:, None] * gw[None, :]
        if not linear:
            out[ok] += (wt * rho).sum(axis=1) / FOUR_PI
        else:
            omega = ct[:, :, None] * e1[:, None, :] + st[:, :, None] * e2[:, None, :]
            for l in range(3):
                gdot = np.einsum("pnx,px->pn", omega, grads[ok, l])
                vals = psi_at_target[ok, l][:, None] * rho + 0.5 * gdot * rho**2
                out[ok, l] += (wt * vals).sum(axis=1) / FOUR_PI
    return out


def _require_on_panel(panel, target):
    p0, p1, p2 = panel
    cr = np.cross(p1 - p0, p2 - p0)
    area2 = np.linalg.norm(cr)
    if area2 < 1e-300:
        raise UsageError("degenerate panel")
    n = cr / area2
    diam = max(np.linalg.norm(p1 - p0), np.linalg.norm(p2 - p1), np.linalg.norm(p0 - p2))
    if abs(np.dot(target - p0, n)) > 1e-9 * diam:
        raise UsageError("target does not lie on the panel plane")
    lam = np.array(
        [
            np.dot(np.cross(p1 - target, p2 - target), n),
            np.dot(np.cross(p2 - target, p0 - target), n),
            np.dot(np.cross(p0 - target, p1 - target), n),
        ]
    ) / area2
    if np.any(lam < -1e-9):
        raise UsageError("target lies outside the panel")


def singular_self_integral(panel, target) -> float:
    """Laplace single-layer self integral of a flat panel, unit density.

    The target must lie on the panel (typically its collocation point).
    """
    panel = np.asarray(panel, dtype=float)
    target = np.asarray(target, dtype=float)
    _require_on_panel(panel, target)
    return float(_fan_single_layer(target[None, :], panel[None, :, :])[0])


# ---------------------------------------------------------------------------
# vectorized mesh machinery (assembly and potential evaluation)


def panel_quad_points(mesh: SurfaceMesh, rule: QuadratureRule) -> np.ndarray:
    """(T, nq, 3) physical quadrature points for every panel."""
    corners = mesh.vertices[mesh.triangles]
    return np.einsum("qk,tkx->tqx", rule.points, corners)


def shape_gradients(mesh: SurfaceMesh) -> np.ndarray:
    """(T, 3, 3) in-plane gradients of the three linear shape functions."""
    p = mesh.vertices[mesh.triangles]
    n = mesh.normals
    inv2a = 1.0 / (2.0 * mesh.areas)
    g = np.empty((mesh.n_panels, 3, 3))
    g[:, 0] = np.cross(n, p[:, 2] - p[:, 1]) * inv2a[:, None]
    g[:, 1] = np.cross(n, p[:, 0] - p[:, 2]) * inv2a[:, None]
    g[:, 2] = np.cross(n, p[:, 1] - p[:, 0]) * inv2a[:, None]
    return g


def _usable_cpus() -> int:
    """Number of CPUs this process may run on (affinity mask, not machine size)."""
    return len(os.sched_getaffinity(0))


def _chunks(n: int, size: int) -> list[slice]:
    """Consecutive slices of ``size`` items covering range(n)."""
    return [slice(s, min(s + size, n)) for s in range(0, n, size)]


def run_parallel(fn, items, threads: int | None = None) -> None:
    """Call ``fn(item)`` for every item on a pool of worker threads.

    ``threads=None`` uses every usable CPU, ``threads=1`` runs serially in
    the caller; more threads than usable CPUs are capped. The items are
    fixed by the caller independently of the worker count and each call
    writes its own output slice, so results do not depend on ``threads``.
    The numpy kernels release the interpreter lock, so the workers overlap.
    """
    if threads is not None and threads < 1:
        raise UsageError("threads must be >= 1")
    workers = min(threads or _usable_cpus(), _usable_cpus(), len(items))
    if workers <= 1:
        for item in items:
            fn(item)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fn, items))  # re-raises the first worker exception


def _batch_kernels(tb, xqf, xx, xn, normals, kappa, yukawa, T, nq, near):
    """Kernel values for a batch of targets against all panel quad points.

    ``near`` = (batch rows, panels) of the pairs integrated elsewhere: their
    kernel values are zero. A target can only sit on a quadrature point of
    its own panel, and that pair is always near.

    Every batch-sized array lives in one block allocated here: a block that
    large is mapped and unmapped as a whole, so batches run on worker
    threads leave no freed heap memory behind in the threads' arenas.
    """
    b = len(tb)
    work = np.empty((6 if yukawa else 4, b, T, nq))
    r, gl, klk, tmp = work[:4]
    tt = np.einsum("ij,ij->i", tb, tb)
    np.matmul(tb, xqf.T, out=r.reshape(b, T * nq))
    r *= -2.0
    r += tt[:, None, None]
    r += xx.reshape(1, T, nq)
    np.maximum(r, 0.0, out=r)
    np.sqrt(r, out=r)
    r[near] = 1.0
    np.multiply(r, FOUR_PI, out=gl)
    np.divide(1.0, gl, out=gl)
    np.subtract((tb @ normals.T)[:, :, None], xn[None, :, :], out=klk)
    klk *= gl
    klk /= np.multiply(r, r, out=tmp)
    gy = kyk = None
    if yukawa:
        ex, gy, kyk = tmp, work[4], work[5]
        np.multiply(r, -kappa, out=ex)
        np.exp(ex, out=ex)
        np.multiply(gl, ex, out=gy)
        np.multiply(r, kappa, out=kyk)
        kyk += 1.0
        kyk *= klk
        kyk *= ex
    kerns = (gl, klk, gy, kyk)
    for k in kerns:
        if k is not None:
            k[near] = 0.0
    return kerns


def basis_tables(mesh: SurfaceMesh, rule: QuadratureRule, shape_functions: bool):
    """(shape, cols, n_cols): the two tables of a boundary basis and its column count.

    ``shape`` holds the local shape functions at the rule points, ``cols``
    each panel's global columns. P0: ones (nq,) and the panel index (T, 1);
    P1: the barycentric rule points (nq, 3) and the panel's corners (T, 3).
    Without a local axis in ``shape``, P0 integrals are plain panel integrals.
    """
    if shape_functions:
        return rule.points, mesh.triangles, mesh.n_vertices
    return np.ones(rule.n_points), np.arange(mesh.n_panels)[:, None], mesh.n_panels


def kernel_row_blocks(
    targets,
    mesh: SurfaceMesh,
    rule: QuadratureRule,
    kappa: float,
    out,
    near,
    shape_functions: bool = False,
    threads: int | None = None,
):
    """Single- and double-layer integrals of the basis functions at a set of targets.

    Fills ``out`` = (VL, KL, VY, KY), (M, n_cols) arrays or views (see
    ``basis_tables``); VY and KY may be None to skip the Yukawa kernel. P1
    integrals are folded into vertex columns batch by batch (keeps memory
    at O(batch * T)). ``near`` = (ti, pj), sorted by target as
    ``near_pairs`` returns them: these (target, panel) pairs are left out.
    Batches of targets run on ``threads`` workers (see ``run_parallel``).
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    T, nq = mesh.n_panels, rule.n_points
    xq = panel_quad_points(mesh, rule)
    xqf = np.ascontiguousarray(xq.reshape(T * nq, 3))
    xx = np.einsum("ij,ij->i", xqf, xqf)
    xn = np.einsum("tqx,tx->tq", xq, mesh.normals)
    shape, cols, n_cols = basis_tables(mesh, rule, shape_functions)
    w = np.einsum("q...,t->tq...", np.einsum("q,q...->q...", rule.weights, shape), mesh.areas)
    fold = None  # P0 columns are the panels: no fold
    if shape_functions:
        fold = csr_matrix(
            (np.ones(cols.size), (np.arange(cols.size), cols.ravel())), shape=(cols.size, n_cols)
        )
    yukawa = out[2] is not None

    # the budget is shared by the batches that can run at once; it depends on
    # the usable CPUs, never on ``threads``, so results do not either
    batch = max(1, int(ROW_BATCH_VALUES / _usable_cpus() / max(T * nq, 1)))

    ti, pj = near

    def run(sl):
        lo, hi = np.searchsorted(ti, (sl.start, sl.stop))
        kerns = _batch_kernels(targets[sl], xqf, xx, xn, mesh.normals, kappa, yukawa, T, nq,
                               (ti[lo:hi] - sl.start, pj[lo:hi]))
        for block, kern in zip(out, kerns):
            if kern is not None:
                rows = np.einsum("mtq,tq...->mt...", kern, w)
                block[sl] = rows if fold is None else rows.reshape(len(rows), -1) @ fold

    run_parallel(run, _chunks(len(targets), batch), threads)


def _pair_quadrature(points, mesh: SurfaceMesh, panels, rule, shape_functions, n_kernels,
                     formula, threads):
    """Integrals of ``n_kernels`` kernels against the basis for (point, panel) pairs.

    ``formula(d, pid)`` returns the kernel values at the offsets ``d``
    (point minus quadrature point, (P, nq, 3)) from the pairs' panels
    ``pid``. Each panel's points are mapped once and gathered per pair;
    chunks of pairs run on ``threads`` workers (see ``run_parallel``).
    Returns a list of (P,) arrays, (P, 3) with ``shape_functions``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    panels = np.asarray(panels, dtype=np.int64)
    shape, _, _ = basis_tables(mesh, rule, shape_functions)
    out = [np.zeros((len(panels),) + shape.shape[1:]) for _ in range(n_kernels)]
    if len(panels) == 0:
        return out
    xq_all = panel_quad_points(mesh, rule)
    wl = np.einsum("q,q...->q...", rule.weights, shape)

    def run(sl):
        pid = panels[sl]
        area = mesh.areas[pid]
        for o, k in zip(out, formula(points[sl][:, None, :] - xq_all[pid], pid)):
            o[sl] = np.einsum("pq,q...,p->p...", k, wl, area)

    chunk = max(1, PAIR_CHUNK_POINTS // rule.n_points)
    run_parallel(run, _chunks(len(panels), chunk), threads)
    return out


def kernel_pair_entries(
    points,
    mesh: SurfaceMesh,
    panels,
    rule: QuadratureRule,
    kappa: float,
    yukawa: bool = True,
    shape_functions: bool = False,
    threads: int | None = None,
):
    """Panel integrals for explicit (target point, panel) pairs.

    Returns (VL, KL, VY, KY) with shape (P,) or (P, 3) when integrating
    against the linear shape functions; VY and KY are None without
    ``yukawa``. The target must not lie on the panel.
    """

    def layers(d, pid):
        r = np.linalg.norm(d, axis=-1)
        dotn = np.einsum("pqx,px->pq", d, mesh.normals[pid])
        gl = 1.0 / (FOUR_PI * r)
        klk = dotn * gl / (r * r)
        if not yukawa:
            return gl, klk
        ex = np.exp(-kappa * r)
        return gl, klk, gl * ex, klk * (1.0 + kappa * r) * ex

    vals = _pair_quadrature(
        points, mesh, panels, rule, shape_functions, 4 if yukawa else 2, layers, threads
    )
    return tuple(vals) if yukawa else (*vals, None, None)


def _add_pairs(block, ti, pair_cols, delta):
    """block[ti, col] += delta for every pair and each of its local columns.

    A row can reach one column through several panels, so duplicates
    accumulate (np.add.at); local columns run in the outer loop.
    """
    np.add.at(block, (ti, pair_cols.T), delta.reshape(pair_cols.shape).T)


def operator_blocks(
    targets,
    mesh: SurfaceMesh,
    kappa: float,
    out,
    shape_functions: bool = False,
    collocated: bool = False,
    threads: int | None = None,
):
    """Laplace and Yukawa single- and double-layer operators of a basis at targets.

    Fills ``out`` as ``kernel_row_blocks`` does and integrates every
    (target, panel) pair once: GAUSS7 for far pairs, NEAR_RULE for the
    pairs of ``near_pairs``. With ``collocated`` the targets are the
    basis's collocation points (P0: centroids, P1: vertices) and all four
    blocks are given; a pair whose target lies on the panel gets the polar
    single-layer integrals instead, and its flat-panel double layer vanishes.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    _, cols, _ = basis_tables(mesh, GAUSS7, shape_functions)
    ti, pj = near_pairs(targets, mesh)
    kernel_row_blocks(targets, mesh, GAUSS7, kappa, out, (ti, pj), shape_functions, threads)
    pair_cols = cols[pj]
    on_panel = pair_cols == ti[:, None]  # target is this local column's node
    on = collocated & on_panel.any(axis=1)
    off = ~on
    fine = kernel_pair_entries(
        targets[ti[off]], mesh, pj[off], NEAR_RULE, kappa, yukawa=out[2] is not None,
        shape_functions=shape_functions, threads=threads,
    )
    for block, f in zip(out, fine):
        if block is not None:
            _add_pairs(block, ti[off], pair_cols[off], f)
    if not collocated:
        return
    if shape_functions:
        # a vertex lies on each incident panel, at one of its corners
        v = corner_single_layer_linear(mesh, pj[on], on_panel[on].argmax(axis=1))
    else:
        # a centroid lies on its own panel only
        v = centroid_self_single_layer(mesh)[pj[on]]
    y = v + yukawa_regular_part(
        targets[ti[on]], mesh, pj[on], kappa, shape_functions=shape_functions, threads=threads
    )
    for block, value in ((out[0], v), (out[2], y)):
        _add_pairs(block, ti[on], pair_cols[on], value)


def near_pairs(points, mesh: SurfaceMesh):
    """(target, panel) index pairs with |point - centroid| < NEAR_FACTOR * diameter,
    sorted by target, then panel."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    radius = NEAR_FACTOR * mesh.diameters
    # the tree's test is inclusive and rounds its own way: a slightly wider
    # ball finds every candidate, the strict test below decides
    hits = cKDTree(points).query_ball_point(mesh.centroids, r=radius * (1.0 + 1e-12))
    counts = np.fromiter(map(len, hits), dtype=np.int64, count=len(hits))
    ti = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.int64, count=counts.sum())
    pj = np.repeat(np.arange(mesh.n_panels), counts)
    keep = np.linalg.norm(points[ti] - mesh.centroids[pj], axis=1) < radius[pj]
    ti, pj = ti[keep], pj[keep]
    order = np.lexsort((pj, ti))
    return ti[order], pj[order]


def centroid_self_single_layer(mesh: SurfaceMesh) -> np.ndarray:
    """Laplace single-layer self integral of every panel at its centroid."""
    corners = mesh.vertices[mesh.triangles]
    return _fan_single_layer(mesh.centroids, corners)


def corner_single_layer_linear(mesh: SurfaceMesh, panels, corner_local) -> np.ndarray:
    """(P, 3) Laplace single-layer integrals with linear density, target at a corner."""
    panels = np.asarray(panels, dtype=np.int64)
    corner_local = np.asarray(corner_local, dtype=np.int64)
    corners = mesh.vertices[mesh.triangles[panels]]
    targets = corners[np.arange(len(panels)), corner_local]
    grads = shape_gradients(mesh)[panels]
    psi_t = np.zeros((len(panels), 3))
    psi_t[np.arange(len(panels)), corner_local] = 1.0
    return _fan_single_layer(targets, corners, grads=grads, psi_at_target=psi_t)


def yukawa_regular_part(
    points,
    mesh: SurfaceMesh,
    panels,
    kappa: float,
    rule: QuadratureRule = SMOOTH_RULE,
    shape_functions: bool = False,
    threads: int | None = None,
):
    """Integrals of (exp(-kappa*r) - 1) / (4*pi*r), the bounded Yukawa remainder.

    Adding this to the Laplace self integral gives the Yukawa self integral.
    """
    if kappa == 0.0:  # the remainder vanishes
        return np.zeros((len(panels), 3) if shape_functions else len(panels))

    def remainder(d, _pid):
        r = np.linalg.norm(d, axis=-1)
        small = r < 1e-12
        rs = np.where(small, 1.0, r)
        vals = (np.exp(-kappa * rs) - 1.0) / (FOUR_PI * rs)
        return (np.where(small, -kappa / FOUR_PI, vals),)  # removable limit at r = 0

    return _pair_quadrature(points, mesh, panels, rule, shape_functions, 1, remainder, threads)[0]
