"""Laplace and Yukawa free-space kernels and triangle-panel quadrature.

Conventions: kernels carry the 1/(4*pi) factor. ``dgdn_*`` differentiates
with respect to the *source* point along the source normal,

    dG_L/dn' = (r - r') . n' / (4*pi*|r - r'|^3),

so that with outward normals the double layer of a constant density over a
closed surface sums to -1 for targets inside (Gauss identity).

Near and on-panel pairs use exact flat-triangle Laplace integrals: edge sums
for constant density (Wilton, Rao, Glisson et al., IEEE TAP 32 (1984) 276),
their ρ-moment forms for linear density (Graglia, IEEE TAP 41 (1993) 1448)
and the van Oosterom–Strackee solid angle; Yukawa adds a bounded remainder.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import SingularityError, UsageError
from .mesh import SurfaceMesh, half_solid_angles
from .quadrature import GAUSS7, QuadratureRule, subdivided

COINCIDENT_TOL = 1e-14
NEAR_FACTOR = 2.0                  # targets within this many diameters are "near"
NEAR_RULE = subdivided(GAUSS7, 3)  # 448-point composite rule, a quadrature reference for near pairs
SMOOTH_RULE = subdivided(GAUSS7, 2)
REMAINDER_RULE = subdivided(GAUSS7, 1)  # 28 points: remainder error in dG < 1e-8 relative
FOUR_PI = 4.0 * np.pi
ROW_BATCH_VALUES = 1.2e5           # values per kernel array in one row batch (~1 MB, cache-sized)
PAIR_CHUNK_POINTS = 4096 * 7       # quadrature points per chunk of (target, panel) pairs


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
# closed-form flat-panel integrals


def _edge_sum(r, l, r0sq):
    """R + l at an edge end, as R0^2 / (R - l) where l < 0 so it does not cancel."""
    neg = l < 0.0
    return np.where(neg, r0sq / np.where(neg, r - l, 1.0), r + l)


def _flat_panel_laplace(x, corners, normals, areas, linear):
    """Exact Laplace single and double layer of flat triangles at points.

    ``x`` (P, 3) targets; ``corners`` (P, 3, 3), unit ``normals`` and ``areas``
    of the pairs' panels. Returns (V, K), (P,) for a unit density or (P, 3)
    for the linear shape functions. Edge k runs from corner k to k + 1 with
    unit tangent s and in-plane outward normal m; l-+ are its ends along s,
    t0 the distance from its line to the target's projection, R-+ and R0 the
    target's distances to the ends and the line, f2 = ln((R+ + l+)/(R- + l-)).
    On an edge line (R0 = 0) f2 is set to 0: every term using it carries a
    factor t0, h or R0^2, so that is the limit at a vertex. A target inside
    the panel in its plane gets K = -+1/2, not the principal value 0.
    """
    rel = corners - x[:, None, :]                      # corner k minus target
    r = np.sqrt(np.einsum("pki,pki->pk", rel, rel))
    edge = np.roll(corners, -1, axis=1) - corners
    length = np.sqrt(np.einsum("pki,pki->pk", edge, edge))
    tangent = edge / length[..., None]
    m = np.cross(tangent, normals[:, None, :])
    h = -np.einsum("pi,pi->p", rel[:, 0], normals)    # target height above the plane
    t0 = np.einsum("pki,pki->pk", rel, m)
    lm = np.einsum("pki,pki->pk", rel, tangent)
    lp = np.einsum("pki,pki->pk", np.roll(rel, -1, axis=1), tangent)
    rm, rp = r, np.roll(r, -1, axis=1)
    r0sq = t0 * t0 + (h * h)[:, None]
    sp, sm = _edge_sum(rp, lp, r0sq), _edge_sum(rm, lm, r0sq)
    ok = (sp > 0.0) & (sm > 0.0)
    f2 = np.log(np.where(ok, sp, 1.0) / np.where(ok, sm, 1.0))
    omega = 2.0 * half_solid_angles(rel, r)
    v = (np.einsum("pk,pk->p", t0, f2) + h * omega) / FOUR_PI
    k = -omega / FOUR_PI
    if not linear:
        return v, k
    # linear density psi(y) = psi(rho) + grad psi . (y - rho), rho the projection;
    # the gradient of shape function k is -L m / (2A) of the opposite edge k + 1
    two_a = 2.0 * areas[:, None]
    psi = np.roll(t0 * length, -1, axis=1) / two_a
    grads = -np.roll(length[..., None] * m, -1, axis=1) / two_a[..., None]
    first = np.einsum("pj,pji->pi", r0sq * f2 + lp * rp - lm * rm, m)  # 2 * int (y - rho) / R
    inverse = np.einsum("pj,pji->pi", f2, m)                          # -int (y - rho) / R^3
    v = psi * v[:, None] + np.einsum("pki,pi->pk", grads, first) / (2.0 * FOUR_PI)
    k = psi * k[:, None] - h[:, None] * np.einsum("pki,pi->pk", grads, inverse) / FOUR_PI
    return v, k


# ---------------------------------------------------------------------------
# vectorized mesh machinery (assembly and potential evaluation)


def _panel_index(panels):
    """Index of a panel subset into per-panel arrays; every panel when None."""
    return slice(None) if panels is None else np.asarray(panels, dtype=np.int64)


def panel_quad_points(mesh: SurfaceMesh, rule: QuadratureRule, panels=None) -> np.ndarray:
    """(T, nq, 3) physical quadrature points for every panel, or for ``panels``."""
    corners = mesh.vertices[mesh.triangles[_panel_index(panels)]]
    return np.einsum("qk,tkx->tqx", rule.points, corners)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on (affinity mask, not machine size)."""
    return len(os.sched_getaffinity(0))


def _chunks(n: int, size: int) -> list[slice]:
    """Consecutive slices of ``size`` items covering range(n)."""
    return [slice(s, min(s + size, n)) for s in range(0, n, size)]


def run_parallel(fn, items) -> None:
    """Call ``fn(item)`` for every item, one worker thread per usable CPU.

    With one usable CPU (``taskset -c 0``) or one item the calls run serially
    in the caller. Each call writes its own output slice, so results do not
    depend on how many workers share the items. The numpy kernels release
    the interpreter lock, so the workers overlap.
    """
    workers = min(_usable_cpus(), len(items))
    if workers <= 1:
        for item in items:
            fn(item)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fn, items))  # re-raises the first worker exception


def _batch_kernels(tb, xq, xx, xn, normals, kappa, yukawa, T, nq, near):
    """Kernel values for a batch of targets against all panel quad points.

    Every batch-sized array is laid out (rows, rule point, panel): the
    quadrature points ``xq`` are (3, nq * T), ``xn`` is (nq, T), and the
    inner loops run over the panels. The distance product stays a k = 3
    BLAS product with nothing else folded in: a wider one can be large
    enough for OpenBLAS to thread inside each pool worker and oversubscribe
    the cores.

    ``near`` = (batch rows, panels) of the pairs integrated elsewhere: their
    kernel values are zero. A target can only sit on a quadrature point of
    its own panel, and that pair is always near.

    Every batch-sized array lives in one block allocated here: a block that
    large is mapped and unmapped as a whole, so batches run on worker
    threads leave no freed heap memory behind in the threads' arenas.
    """
    b = len(tb)
    work = np.empty((6 if yukawa else 4, b, nq, T))
    r2, r, gl, klk = work[:4]
    tt = np.einsum("ij,ij->i", tb, tb)
    np.matmul(-2.0 * tb, xq, out=r2.reshape(b, nq * T))  # scaling by -2 is exact
    r2 += tt[:, None, None]
    r2 += xx.reshape(1, nq, T)
    np.maximum(r2, 0.0, out=r2)
    rows, panels = near
    r2[rows, :, panels] = 1.0
    np.sqrt(r2, out=r)
    np.divide(1.0 / FOUR_PI, r, out=gl)
    np.subtract((tb @ normals.T)[:, None, :], xn, out=klk)
    klk *= gl
    klk /= r2
    gy = kyk = None
    if yukawa:
        ex, gy, kyk = r2, work[4], work[5]
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
            k[rows, :, panels] = 0.0
    return kerns


def basis_tables(mesh: SurfaceMesh, rule: QuadratureRule, shape_functions: bool, panels=None):
    """(shape, cols, n_cols): the two tables of a boundary basis and its column count.

    ``shape`` holds the local shape functions at the rule points, ``cols``
    each panel's global columns. P0: ones (nq,) and the panel index (T, 1);
    P1: the barycentric rule points (nq, 3) and the panel's corners (T, 3).
    Without a local axis in ``shape``, P0 integrals are plain panel integrals.
    With ``panels`` the tables cover those panels only, and column k is the
    k-th entry of ``basis_columns(mesh, shape_functions, panels)``.
    """
    if panels is not None:
        columns = basis_columns(mesh, shape_functions, panels)
        if shape_functions:
            return rule.points, np.searchsorted(columns, mesh.triangles[panels]), len(columns)
        return np.ones(rule.n_points), np.arange(len(panels))[:, None], len(panels)
    if shape_functions:
        return rule.points, mesh.triangles, mesh.n_vertices
    return np.ones(rule.n_points), np.arange(mesh.n_panels)[:, None], mesh.n_panels


def basis_columns(mesh: SurfaceMesh, shape_functions: bool, panels) -> np.ndarray:
    """Global columns that ``panels`` reach, ascending: the panels themselves
    for P0 (given ascending), their corners for P1."""
    panels = np.asarray(panels, dtype=np.int64)
    return np.unique(mesh.triangles[panels]) if shape_functions else panels


def kernel_row_blocks(
    targets,
    mesh: SurfaceMesh,
    rule: QuadratureRule,
    kappa: float,
    out,
    near,
    shape_functions: bool = False,
    panels=None,
):
    """Single- and double-layer integrals of the basis functions at a set of targets.

    Fills ``out`` = (VL, KL, VY, KY), (M, n_cols) arrays or views (see
    ``basis_tables``); VY and KY may be None to skip the Yukawa kernel.
    Each kernel is reduced over the rule by one BLAS product of the
    (weights x shape functions) table with the batch, then scaled by the
    panel areas; P1 integrals are folded into vertex columns batch by batch
    (keeps memory at O(batch * T)). ``near`` = (ti, pj), sorted by target as
    ``near_pairs`` returns them: these (target, panel) pairs are left out.
    With ``panels`` (ascending) only those panels are integrated, ``pj``
    counts positions in ``panels`` and the columns are those of
    ``basis_columns``. Batches of targets run on ``run_parallel``.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    sel = _panel_index(panels)
    normals = mesh.normals[sel]
    T, nq = len(normals), rule.n_points
    xq = panel_quad_points(mesh, rule, panels)
    xn = np.einsum("tqx,tx->qt", xq, normals)
    xq = np.ascontiguousarray(xq.transpose(2, 1, 0).reshape(3, nq * T))  # coordinate first
    xx = np.einsum("in,in->n", xq, xq)
    shape, cols, n_cols = basis_tables(mesh, rule, shape_functions, panels)
    wt = np.ascontiguousarray((rule.weights[:, None] * shape.reshape(nq, -1)).T)  # (1 or 3, nq)
    areas = mesh.areas[sel]
    fold = None  # P0 columns are the panels: no fold
    if shape_functions:  # rows of the fold: shape function first, then panel
        fold = csr_matrix(
            (np.ones(cols.size), (np.arange(cols.size), cols.T.ravel())), shape=(cols.size, n_cols)
        )
    # at kappa = 0 the Yukawa rows equal the Laplace ones bit for bit (exp(-0 r) = 1): copy them
    copy_laplace = out[2] is not None and kappa == 0.0
    yukawa = out[2] is not None and not copy_laplace

    # a fixed budget per batch, whatever the CPU count: the batch size can move
    # the last bit of the BLAS distance product in ``_batch_kernels``
    batch = max(1, int(ROW_BATCH_VALUES / max(T * nq, 1)))

    ti, pj = near

    def run(sl):
        lo, hi = np.searchsorted(ti, (sl.start, sl.stop))
        kerns = _batch_kernels(targets[sl], xq, xx, xn, normals, kappa, yukawa, T, nq,
                               (ti[lo:hi] - sl.start, pj[lo:hi]))
        for block, kern in zip(out, kerns):
            if kern is not None:
                rows = np.matmul(wt, kern)  # (batch, 1 or 3, T)
                rows *= areas
                block[sl] = rows[:, 0] if fold is None else rows.reshape(len(rows), -1) @ fold
        if copy_laplace:
            out[2][sl], out[3][sl] = out[0][sl], out[1][sl]

    run_parallel(run, _chunks(len(targets), batch))


def _pair_quadrature(points, mesh: SurfaceMesh, panels, rule, shape_functions, n_kernels,
                     formula):
    """Integrals of ``n_kernels`` kernels against the basis for (point, panel) pairs.

    ``formula(d, pid)`` returns the kernel values at the offsets ``d``
    (point minus quadrature point, (P, nq, 3)) from the pairs' panels
    ``pid``. Each panel's points are mapped once and gathered per pair;
    chunks of pairs run on ``run_parallel``.
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
    run_parallel(run, _chunks(len(panels), chunk))
    return out


def kernel_pair_entries(
    points,
    mesh: SurfaceMesh,
    panels,
    rule: QuadratureRule,
    kappa: float,
    yukawa: bool = True,
    shape_functions: bool = False,
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
        points, mesh, panels, rule, shape_functions, 4 if yukawa else 2, layers
    )
    return tuple(vals) if yukawa else (*vals, None, None)


def _yukawa_remainder(mesh: SurfaceMesh, kappa: float):
    """``_pair_quadrature`` formula of the bounded Yukawa remainders, (exp(-kappa r) - 1)
    / (4 pi r) and (r - r').n' ((1 + kappa r) exp(-kappa r) - 1) / (4 pi r^3) on a flat
    panel, with expm1 so that small kappa r does not cancel."""

    def remainder(d, pid):
        r = np.sqrt(np.einsum("pqx,pqx->pq", d, d))
        small = r < 1e-12
        rs = np.where(small, 1.0, r)
        em = np.expm1(-kappa * rs)
        g = np.where(small, -kappa / FOUR_PI, em / (FOUR_PI * rs))  # removable limit at r = 0
        h = np.einsum("px,px->p", d[:, 0], mesh.normals[pid])  # (r - r').n' is the same at every point
        return g, h[:, None] * (em + kappa * rs * (em + 1.0)) / (FOUR_PI * rs * rs * rs)

    return remainder


def near_pair_entries(points, mesh: SurfaceMesh, panels, kappa: float, yukawa: bool = True,
                      shape_functions: bool = False):
    """Single- and double-layer integrals for (target point, panel) pairs at any distance.

    Returns (VL, KL, VY, KY) like ``kernel_pair_entries``. The Laplace parts
    are exact (``_flat_panel_laplace``; on the panel the caller sets KL = 0);
    the Yukawa parts add the bounded remainder integrated with
    ``REMAINDER_RULE``. Chunks of pairs run on ``run_parallel``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    panels = np.asarray(panels, dtype=np.int64)
    vl, kl = (np.empty((len(panels), 3) if shape_functions else len(panels)) for _ in range(2))
    corners = mesh.vertices[mesh.triangles]

    def run(sl):
        pid = panels[sl]
        vl[sl], kl[sl] = _flat_panel_laplace(
            points[sl], corners[pid], mesh.normals[pid], mesh.areas[pid], shape_functions
        )

    run_parallel(run, _chunks(len(panels), PAIR_CHUNK_POINTS // GAUSS7.n_points))
    if not yukawa:
        return vl, kl, None, None
    if kappa == 0.0:  # the remainder vanishes
        return vl, kl, vl.copy(), kl.copy()
    vr, kr = _pair_quadrature(points, mesh, panels, REMAINDER_RULE, shape_functions, 2,
                              _yukawa_remainder(mesh, kappa))
    return vl, kl, vl + vr, kl + kr


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
    panels=None,
):
    """Laplace and Yukawa single- and double-layer operators of a basis at targets.

    Fills ``out`` as ``kernel_row_blocks`` does and integrates every
    (target, panel) pair once: GAUSS7 for far pairs, ``near_pair_entries``
    for the pairs of ``near_pairs``. A pair whose target is a node of the
    panel (P0: its centroid, P1: a vertex), as collocation points are, lies
    on it and gets the principal value 0 of the flat-panel double layer.
    With ``panels`` (ascending) only those panels are integrated and ``out``
    has the columns of ``basis_columns``.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    _, cols, _ = basis_tables(mesh, GAUSS7, shape_functions, panels)
    ti, pj = near_pairs(targets, mesh, panels)
    kernel_row_blocks(targets, mesh, GAUSS7, kappa, out, (ti, pj), shape_functions, panels)
    pid = pj if panels is None else np.asarray(panels, dtype=np.int64)[pj]
    near = near_pair_entries(targets[ti], mesh, pid, kappa, yukawa=out[2] is not None,
                             shape_functions=shape_functions)
    nodes = mesh.vertices[mesh.triangles[pid]] if shape_functions else mesh.centroids[pid, None]
    on = (nodes == targets[ti, None]).all(axis=2).any(axis=1)
    for k in (1, 3):  # KL, KY: a target on the panel gets the principal value 0
        if near[k] is not None:
            near[k][on] = 0.0
    pair_cols = cols[pj]
    for block, value in zip(out, near):
        if block is not None:
            _add_pairs(block, ti, pair_cols, value)


def near_pairs(points, mesh: SurfaceMesh, panels=None):
    """(target, panel) index pairs with |point - centroid| < NEAR_FACTOR * diameter,
    sorted by target, then panel. With ``panels`` only those panels are
    tested, and the panel index is the position in ``panels``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sel = _panel_index(panels)
    centroids, radius = mesh.centroids[sel], NEAR_FACTOR * mesh.diameters[sel]
    T = len(radius)
    if T == 0 or len(points) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    tree = cKDTree(points)
    # one dual-tree query per group of panels whose radii lie within a factor
    # sqrt(2); the tree's test is inclusive and rounds its own way, so a
    # slightly wider ball finds every candidate and the strict test decides
    group = np.floor(2.0 * np.log2(radius / radius.min())).astype(np.int64)
    keys = []
    for g in np.unique(group):
        members = np.flatnonzero(group == g)
        found = tree.sparse_distance_matrix(
            cKDTree(centroids[members]), radius[members].max() * (1.0 + 1e-12),
            output_type="ndarray",
        )
        ti, pj = found["i"].astype(np.int64), members[found["j"]]
        keep = np.linalg.norm(points[ti] - centroids[pj], axis=1) < radius[pj]
        keys.append(ti[keep] * T + pj[keep])
    return np.divmod(np.sort(np.concatenate(keys)), T)


def centroid_self_single_layer(mesh: SurfaceMesh) -> np.ndarray:
    """Laplace single-layer self integral of every panel at its centroid."""
    return near_pair_entries(mesh.centroids, mesh, np.arange(mesh.n_panels), 0.0, yukawa=False)[0]


def corner_single_layer_linear(mesh: SurfaceMesh, panels, corner_local) -> np.ndarray:
    """(P, 3) Laplace single-layer integrals with linear density, target at a corner."""
    panels = np.asarray(panels, dtype=np.int64)
    targets = mesh.vertices[mesh.triangles[panels, np.asarray(corner_local, dtype=np.int64)]]
    return near_pair_entries(targets, mesh, panels, 0.0, yukawa=False, shape_functions=True)[0]


def yukawa_regular_part(
    points,
    mesh: SurfaceMesh,
    panels,
    kappa: float,
    rule: QuadratureRule = SMOOTH_RULE,
    shape_functions: bool = False,
):
    """Integrals of (exp(-kappa*r) - 1) / (4*pi*r), the bounded Yukawa remainder.

    Adding this to the Laplace self integral gives the Yukawa self integral.
    """
    return _pair_quadrature(points, mesh, panels, rule, shape_functions, 2,
                            _yukawa_remainder(mesh, kappa))[0]
