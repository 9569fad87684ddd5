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

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
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


def _fan_single_layer(targets, corners, n_angles, grads=None, psi_at_target=None):
    """Single-layer Laplace integral over triangles whose target lies on them.

    For each entry the triangle is fanned into subtriangles around the
    target; the radial integral is closed-form and the angle is integrated
    with an ``n_angles``-point Gauss rule. With ``grads`` (per-entry shape
    function gradients, (P, 3, 3)) and ``psi_at_target`` (P, 3) the density
    is piecewise linear and the result has one column per shape function.
    """
    gx, gw = np.polynomial.legendre.leggauss(n_angles)
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


def singular_self_integral(panel, target, n_angles: int = 16) -> float:
    """Laplace single-layer self integral of a flat panel, unit density.

    The target must lie on the panel (typically its collocation point).
    """
    panel = np.asarray(panel, dtype=float)
    target = np.asarray(target, dtype=float)
    _require_on_panel(panel, target)
    return float(_fan_single_layer(target[None, :], panel[None, :, :], n_angles)[0])


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


def _batch_kernels(tb, xqf, xx, xn, normals, kappa, yukawa, T, nq):
    """Kernel values for a batch of targets against all panel quad points.

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
    zero = r < 1e-14
    any_zero = np.any(zero)
    if any_zero:
        r[zero] = 1.0
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
    if any_zero:
        for k in (gl, klk, gy, kyk):
            if k is not None:
                k[zero] = 0.0
    return gl, klk, gy, kyk


def kernel_row_blocks(
    targets,
    mesh: SurfaceMesh,
    rule: QuadratureRule,
    kappa: float,
    yukawa: bool = True,
    shape_functions: bool = False,
    threads: int | None = None,
    scatter=None,
):
    """Single- and double-layer panel integrals for a set of targets.

    Returns (VL, KL, VY, KY). Without ``shape_functions`` each block is
    (M, T): plain panel integrals (piecewise-constant columns). With it the
    integrals run against the linear shape functions; pass ``scatter``, a
    (3T, n_cols) sparse matrix, to fold the three per-panel columns into
    global columns batch by batch (keeps memory at O(batch * T)). Entries
    whose target coincides with a quadrature point come out zero and must be
    fixed by the caller (self terms). Batches of targets run on ``threads``
    workers (see ``run_parallel``).
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    T, nq = mesh.n_panels, rule.n_points
    xq = panel_quad_points(mesh, rule)
    xqf = np.ascontiguousarray(xq.reshape(T * nq, 3))
    xx = np.einsum("ij,ij->i", xqf, xqf)
    xn = np.einsum("tqx,tx->tq", xq, mesh.normals)
    w_area = rule.weights[None, :] * mesh.areas[:, None]  # (T, nq)
    if shape_functions:
        w_shape = np.einsum("q,ql->ql", rule.weights, rule.points)  # (nq, 3)
        if scatter is None:
            raise UsageError("shape-function rows need a scatter matrix")
    m = len(targets)
    n_cols = scatter.shape[1] if shape_functions else T
    vl = np.empty((m, n_cols))
    kl = np.empty((m, n_cols))
    vy = np.empty((m, n_cols)) if yukawa else None
    ky = np.empty((m, n_cols)) if yukawa else None

    # the budget is shared by the batches that can run at once; it depends on
    # the usable CPUs, never on ``threads``, so results do not either
    batch = max(1, int(ROW_BATCH_VALUES / _usable_cpus() / max(T * nq, 1)))

    def run(sl):
        gl, klk, gy, kyk = _batch_kernels(
            targets[sl], xqf, xx, xn, mesh.normals, kappa, yukawa, T, nq
        )
        if shape_functions:
            areas = mesh.areas
            nb = sl.stop - sl.start
            for out, kern in ((vl, gl), (kl, klk), (vy, gy), (ky, kyk)):
                if kern is None:
                    continue
                contrib = np.einsum("mtq,ql,t->mtl", kern, w_shape, areas)
                out[sl] = contrib.reshape(nb, 3 * T) @ scatter
        else:
            vl[sl] = np.einsum("mtq,tq->mt", gl, w_area)
            kl[sl] = np.einsum("mtq,tq->mt", klk, w_area)
            if yukawa:
                vy[sl] = np.einsum("mtq,tq->mt", gy, w_area)
                ky[sl] = np.einsum("mtq,tq->mt", kyk, w_area)

    run_parallel(run, _chunks(m, batch), threads)
    return vl, kl, vy, ky


def kernel_pair_entries(
    points,
    mesh: SurfaceMesh,
    panels,
    rule: QuadratureRule,
    kappa: float,
    yukawa: bool = True,
    shape_functions: bool = False,
    chunk: int = 4096,
    threads: int | None = None,
):
    """Panel integrals for explicit (target point, panel) pairs.

    Returns (VL, KL, VY, KY) with shape (P,) or (P, 3) when integrating
    against the linear shape functions. Used to patch near-singular entries
    with a finer rule. Chunks of pairs run on ``threads`` workers (see
    ``run_parallel``).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    panels = np.asarray(panels, dtype=np.int64)
    n_pairs = len(panels)
    shape = (n_pairs, 3) if shape_functions else (n_pairs,)
    vl = np.zeros(shape)
    kl = np.zeros(shape)
    vy = np.zeros(shape) if yukawa else None
    ky = np.zeros(shape) if yukawa else None
    if n_pairs == 0:
        return vl, kl, vy, ky
    # each panel has many near targets: map its points once, gather per pair
    xq_all = panel_quad_points(mesh, rule)
    if shape_functions:
        wl = np.einsum("q,ql->ql", rule.weights, rule.points)
        red = lambda k, area: np.einsum("pq,ql,p->pl", k, wl, area)  # noqa: E731
    else:
        red = lambda k, area: np.einsum("pq,q,p->p", k, rule.weights, area)  # noqa: E731

    def run(sl):
        pid = panels[sl]
        d = points[sl][:, None, :] - xq_all[pid]
        r = np.linalg.norm(d, axis=-1)
        dotn = np.einsum("pqx,px->pq", d, mesh.normals[pid])
        gl = 1.0 / (FOUR_PI * r)
        klk = dotn * gl / (r * r)
        area = mesh.areas[pid]
        vl[sl] = red(gl, area)
        kl[sl] = red(klk, area)
        if yukawa:
            ex = np.exp(-kappa * r)
            vy[sl] = red(gl * ex, area)
            ky[sl] = red(klk * (1.0 + kappa * r) * ex, area)

    run_parallel(run, _chunks(n_pairs, max(1, int(chunk * 7 / rule.n_points))), threads)
    return vl, kl, vy, ky


def near_pairs(points, mesh: SurfaceMesh, factor: float = NEAR_FACTOR):
    """(target, panel) index pairs with |point - centroid| < factor * diameter."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    radius = factor * float(mesh.diameters.max())
    tree = cKDTree(mesh.centroids)
    ti, pj = [], []
    hits = tree.query_ball_point(points, r=radius)
    for i, js in enumerate(hits):
        if not js:
            continue
        js = np.sort(np.asarray(js, dtype=np.int64))
        d = np.linalg.norm(points[i] - mesh.centroids[js], axis=1)
        keep = js[d < factor * mesh.diameters[js]]
        ti.append(np.full(len(keep), i, dtype=np.int64))
        pj.append(keep)
    if not ti:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(ti), np.concatenate(pj)


def centroid_self_single_layer(mesh: SurfaceMesh, n_angles: int = 16) -> np.ndarray:
    """Laplace single-layer self integral of every panel at its centroid."""
    corners = mesh.vertices[mesh.triangles]
    return _fan_single_layer(mesh.centroids, corners, n_angles)


def corner_single_layer_linear(
    mesh: SurfaceMesh, panels, corner_local, n_angles: int = 16
) -> np.ndarray:
    """(P, 3) Laplace single-layer integrals with linear density, target at a corner."""
    panels = np.asarray(panels, dtype=np.int64)
    corner_local = np.asarray(corner_local, dtype=np.int64)
    corners = mesh.vertices[mesh.triangles[panels]]
    targets = corners[np.arange(len(panels)), corner_local]
    grads = shape_gradients(mesh)[panels]
    psi_t = np.zeros((len(panels), 3))
    psi_t[np.arange(len(panels)), corner_local] = 1.0
    return _fan_single_layer(targets, corners, n_angles, grads=grads, psi_at_target=psi_t)


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
    points = np.atleast_2d(np.asarray(points, dtype=float))
    panels = np.asarray(panels, dtype=np.int64)
    n_pairs = len(panels)
    out = np.zeros((n_pairs, 3) if shape_functions else (n_pairs,))
    if n_pairs == 0 or kappa == 0.0:
        return out
    xq_all = panel_quad_points(mesh, rule)
    wl = np.einsum("q,ql->ql", rule.weights, rule.points)

    def run(sl):
        pid = panels[sl]
        r = np.linalg.norm(points[sl][:, None, :] - xq_all[pid], axis=-1)
        small = r < 1e-12
        rs = np.where(small, 1.0, r)
        vals = (np.exp(-kappa * rs) - 1.0) / (FOUR_PI * rs)
        vals = np.where(small, -kappa / FOUR_PI, vals)  # removable limit at r = 0
        if shape_functions:
            out[sl] = np.einsum("pq,ql,p->pl", vals, wl, mesh.areas[pid])
        else:
            out[sl] = np.einsum("pq,q,p->p", vals, rule.weights, mesh.areas[pid])

    run_parallel(run, _chunks(n_pairs, 2048), threads)
    return out
