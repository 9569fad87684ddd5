"""Laplace and Yukawa free-space kernels and triangle-panel quadrature.

Conventions: kernels carry the 1/(4*pi) factor. The double layer
differentiates with respect to the *source* point along the source normal,

    dG_L/dn' = (r - r') . n' / (4*pi*|r - r'|^3),

so that with outward normals the double layer of a constant density over a
closed surface sums to -1 for targets inside (Gauss identity).

Near and on-panel pairs use exact flat-triangle Laplace integrals: edge sums
for constant density (Wilton, Rao, Glisson et al., IEEE TAP 32 (1984) 276),
their ρ-moment forms for linear density (Graglia, IEEE TAP 41 (1993) 1448)
and the van Oosterom–Strackee solid angle; Yukawa adds a bounded remainder.
Far pairs use GAUSS7. On a mesh where most pairs lie beyond FAR_FACTOR panel
diameters (``grades``), those pairs take its nested 4-point subset E4
instead, graded by distance as in PyGBe (Cooper, Bardhan & Barba, Comput.
Phys. Commun. 185 (2014) 720).
"""

from __future__ import annotations

import weakref

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .mesh import SurfaceMesh, half_solid_angles
from .quadrature import E4, GAUSS7, QuadratureRule, subdivided
from .sweep import chunks, run_parallel, runs

NEAR_FACTOR = 2.0                  # targets within this many diameters are "near"
FAR_FACTOR = 6.0                   # graded far pairs beyond this many diameters take E4
GRADED_FAR_SHARE = 0.9             # meshes with this share of pairs beyond FAR_FACTOR are graded
GROUP_BATCHES = 4                  # graded row batches that share one pass over the nearer pairs
SMOOTH_RULE = subdivided(GAUSS7, 2)
REMAINDER_RULE = subdivided(GAUSS7, 1)  # 28 points: remainder error in dG < 1e-8 relative
FOUR_PI = 4.0 * np.pi
ROW_BATCH_VALUES = 1.2e5           # values per kernel array in one row batch (~1 MB, cache-sized)


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
    omega = 2.0 * half_solid_angles(rel.transpose(1, 2, 0), r.T)
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
    return np.einsum("qk,tkx->tqx", rule.points, mesh.corners[_panel_index(panels)])


def _batch_kernels(tb, xq, xx, xn, normals, kappa, yukawa, near):
    """Kernel values for a batch of targets against n panels' quad points.

    Every batch-sized array is laid out (rows, rule point, panel): the
    quadrature points ``xq`` are (3, nq * n), their squared norms ``xx``
    (nq * n,), ``xn`` (nq, n) their dot products with their panel's normal,
    ``normals`` (n, 3), and the inner loops run over the panels. The
    distance product stays a k = 3 BLAS product with nothing else folded
    in: a wider one can be large enough for OpenBLAS to thread inside each
    pool worker and oversubscribe the cores.

    ``near`` = (batch rows, panels) of the pairs integrated elsewhere: their
    distances are set to 1, so no kernel divides by zero, and the caller
    writes their entries. A target can only sit on a quadrature point of its
    own panel, and that pair is always near.

    Returns the kernels stacked, (2 or 4, rows, nq, n): GL and KL, then GY
    and KY with ``yukawa``. Every batch-sized array lives in one block
    allocated here: a block that large is mapped and unmapped as a whole,
    so batches run on worker threads leave no freed heap memory behind in
    the threads' arenas.
    """
    b, (nq, T) = len(tb), xn.shape
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
    if yukawa:
        ex, gy, kyk = r2, work[4], work[5]
        np.multiply(r, -kappa, out=ex)
        np.exp(ex, out=ex)
        np.multiply(gl, ex, out=gy)
        np.multiply(r, kappa, out=kyk)
        kyk += 1.0
        kyk *= klk
        kyk *= ex
    return work[2:]


def basis_tables(mesh: SurfaceMesh, rule: QuadratureRule, shape_functions: bool, panels=None):
    """(shape, cols, n_cols): the two tables of a boundary basis and its column count.

    ``shape`` holds the local shape functions at the rule points, ``cols``
    each panel's global columns. P0: ones (nq,) and the panel index (T, 1);
    P1: the barycentric rule points (nq, 3) and the panel's corners (T, 3).
    Without a local axis in ``shape``, P0 integrals are plain panel integrals.
    The tables cover ``panels``, every panel when None, and column k is the
    k-th entry of ``basis_columns(mesh, shape_functions, panels)``; with
    every panel that is panel k, or vertex k, as every vertex has a panel.
    """
    panels = np.arange(mesh.n_panels) if panels is None else panels
    columns = basis_columns(mesh, shape_functions, panels)
    if shape_functions:
        return rule.points, np.searchsorted(columns, mesh.triangles[panels]), len(columns)
    return np.ones(rule.n_points), np.arange(len(panels))[:, None], len(panels)


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
    scale=(1.0, 1.0, 1.0, 1.0),
    rows=None,
):
    """Single- and double-layer integrals of the basis functions at a set of targets.

    Fills ``out`` = (VL, KL, VY, KY), arrays or views with ``n_cols`` columns
    (see ``basis_tables``); VY and KY may be None to skip the Yukawa kernel.
    Each kernel is reduced over the rule by one BLAS product of the
    (weights x shape functions) table with the batch, then scaled by the
    panel areas; P1 integrals are folded into vertex columns group by group
    (keeps memory at O(group * T)). ``near`` = (ti, pj) or (ti, pj, values),
    sorted by target as ``near_pairs`` returns them: these (target, panel)
    pairs are not integrated with ``rule``. Their entries are 0, or the pair
    integrals ``values`` = (VL, KL, VY, KY) laid out as ``near_pair_entries``
    returns them. Each entry is written once: the batch's integrals times the
    block's ``scale`` factor, to row ``rows[i]`` (ascending) of ``out`` for
    target i, or row i when ``rows`` is None. At kappa = 0 the Yukawa
    integrals equal the Laplace ones bit for bit: exp(-0 r) = 1 and
    (0 r + 1) K = K. With ``panels`` (ascending) only those panels are
    integrated, ``pj`` counts positions in ``panels`` and the columns are
    those of ``basis_columns``. Groups of batches of targets run on
    ``run_parallel``, one batch per group unless graded.

    With ``rule`` GAUSS7 on a mesh that ``grades``, the far field is graded
    by distance: a pair whose squared centroid distance, summed x, y, z for
    the pair alone, exceeds (FAR_FACTOR diameters)^2 takes E4, GAUSS7's
    first four points. A group of up to GROUP_BATCHES consecutive batches
    first finds its pairs within FAR_FACTOR diameters. Each batch evaluates
    the kernels at E4's points for every panel and reduces them by E4's
    weights, and by GAUSS7's at the panels of those pairs; the group then
    evaluates GAUSS7's other three points at those panels and gives those
    pairs GAUSS7. A pair's rule depends on the pair alone, not on its batch
    or group.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    graded = rule is GAUSS7 and grades(mesh)
    sel = _panel_index(panels)
    normals = mesh.normals[sel]
    T, nq = len(normals), rule.n_points
    xq = panel_quad_points(mesh, rule, panels)
    xn = np.einsum("tqx,tx->qt", xq, normals)
    xq = np.ascontiguousarray(xq.transpose(2, 1, 0).reshape(3, nq * T))  # coordinate first
    xx = np.einsum("in,in->n", xq, xq)
    shape, cols, n_cols = basis_tables(mesh, rule, shape_functions, panels)
    wt = np.ascontiguousarray((rule.weights[:, None] * shape.reshape(nq, -1)).T)  # (1 or 3, nq)
    s = len(wt)
    areas = mesh.areas[sel]
    fold = None  # P0 columns are the panels: no fold
    if shape_functions:  # rows of the fold: shape function first, then panel
        fold = csr_matrix(
            (np.ones(cols.size), (np.arange(cols.size), cols.T.ravel())), shape=(cols.size, n_cols)
        )
    yukawa = out[2] is not None
    ti, pj = near[:2]
    values = near[2] if len(near) > 2 else (None,) * 4
    rows = np.arange(len(targets)) if rows is None else rows
    n_kernels = 4 if yukawa else 2
    # a fixed budget per batch, whatever the CPU count: the batch size can move
    # the last bit of the BLAS distance product in ``_batch_kernels``; a graded
    # batch holds E4's points, so more rows; at least 16 groups share the workers
    batches = chunks(len(targets), T * (E4.n_points if graded else nq), ROW_BATCH_VALUES)
    size = max(1, min(GROUP_BATCHES, len(batches) // 16)) if graded else 1
    groups = [batches[i:i + size] for i in range(0, len(batches), size)]
    head = (xq, xx, xn, normals)
    if graded:  # the batches evaluate E4's points, the first of GAUSS7's
        nh = E4.n_points
        head = (np.ascontiguousarray(xq[:, : nh * T]), xx[: nh * T], xn[:nh], normals)
        w_head, w_tail = np.ascontiguousarray(wt[:, :nh]), np.ascontiguousarray(wt[:, nh:])
        wt = np.ascontiguousarray((E4.weights[:, None] * shape.reshape(nq, -1)[:nh]).T)
        cx, cy, cz = np.ascontiguousarray(mesh.centroids[sel].T)
        reach = FAR_FACTOR * mesh.diameters[sel]
        reach2 = reach * reach

    def within_reach(tg):
        """Panels with a pair within reach of the targets ``tg``, and the
        (targets, panels) table of those pairs: the squared distance summed
        x, y, z for each pair alone, after a cut by the targets' bounding sphere."""
        mx, my, mz = tg.mean(axis=0)
        radius = np.sqrt(((tg - (mx, my, mz)) ** 2).sum(axis=1).max())
        dist2 = (cx - mx) ** 2
        dist2 += (cy - my) ** 2
        dist2 += (cz - mz) ** 2
        bound = (radius + reach) * (1.0 + 1e-9) + 1e-12 * (abs(mx) + abs(my) + abs(mz))
        c = np.flatnonzero(dist2 <= bound * bound)
        d2 = (tg[:, 0, None] - cx[c]) ** 2
        d2 += (tg[:, 1, None] - cy[c]) ** 2
        d2 += (tg[:, 2, None] - cz[c]) ** 2
        within = d2 <= reach2[c]
        used = within.any(axis=0)
        return c[used], within[:, used]

    def run(group):
        start, stop = group[0].start, group[-1].stop
        lo, hi = np.searchsorted(ti, (start, stop))
        rb, pb = ti[lo:hi] - start, pj[lo:hi]
        tg = targets[start:stop]
        part = np.empty((n_kernels, stop - start, s, T))
        if graded:  # GAUSS7 for the pairs within reach: its weights at E4's points here
            c, within = within_reach(tg)
            full = np.empty((n_kernels, stop - start, s, len(c)))
        for sl in group:
            i, j = sl.start - start, sl.stop - start
            a, b = np.searchsorted(rb, (i, j))
            kern = _batch_kernels(targets[sl], *head, kappa, yukawa, (rb[a:b] - i, pb[a:b]))
            np.matmul(wt, kern, out=part[:, i:j])  # (kernels, rows, 1 or 3, T)
            if graded:
                np.matmul(w_head, np.take(kern, c, axis=-1), out=full[:, i:j])
            del kern  # freed before the next batch maps its block: two at once cost page faults
        if graded and len(c):  # ... and at its other points
            at = np.minimum(np.searchsorted(c, pb), len(c) - 1)
            hit = c[at] == pb
            tail = _batch_kernels(tg, xq.reshape(3, nq, T)[:, nh:, c].reshape(3, -1),
                                  xx.reshape(nq, T)[nh:, c].ravel(), xn[nh:, c], normals[c],
                                  kappa, yukawa, (rb[hit], at[hit]))
            full += np.matmul(w_tail, tail)
            flat = part.reshape(-1, T)
            mixed = np.take(flat, c, axis=1)
            np.copyto(mixed.reshape(full.shape), full, where=within[:, None])
            flat[:, c] = mixed
        part *= areas
        parts = []
        for p, value in zip(part, values):
            p[rb, :, pb] = 0.0 if value is None else value[lo:hi].reshape(len(rb), s)
            parts.append(p[:, 0] if fold is None else p.reshape(len(p), -1) @ fold)
        # consecutive rows take one slice: array work per group holds the
        # interpreter lock that the other workers wait for
        first, last = rows[start], rows[stop - 1]
        dst = ([(slice(first, last + 1), slice(None))] if last - first == stop - start - 1
               else runs(rows[start:stop], np.arange(stop - start)))
        for block, part, factor in zip(out, parts, scale):
            if block is not None:
                for d, src in dst:
                    np.multiply(part[src], factor, out=block[d])

    run_parallel(run, groups)


_graded: dict[int, bool] = {}  # grades(mesh) by id(mesh), dropped with the mesh


def grades(mesh: SurfaceMesh) -> bool:
    """Whether ``kernel_row_blocks`` grades GAUSS7's far field on ``mesh``:
    when at least GRADED_FAR_SHARE of the pairs of about 64 of its centroids
    with its panels lie beyond FAR_FACTOR diameters. Below that share the
    pairs within reach of a group of targets spread over most panels, and
    grading costs more than the points it skips. Computed once per mesh and
    kept, as every row batch on the mesh asks again."""
    key = id(mesh)
    if key not in _graded:
        sample = mesh.centroids[:: max(1, mesh.n_panels // 64)]
        d2 = sum((sample[:, k, None] - mesh.centroids[:, k]) ** 2 for k in range(3))
        _graded[key] = np.mean(d2 > (FAR_FACTOR * mesh.diameters) ** 2) >= GRADED_FAR_SHARE
        weakref.finalize(mesh, _graded.pop, key, None)
    return _graded[key]


def _pair_quadrature(points, mesh: SurfaceMesh, panels, rule, shape_functions, n_kernels,
                     formula):
    """Integrals of ``n_kernels`` kernels against the basis for (point, panel) pairs.

    ``formula(d, pid)`` returns the kernel values at the offsets ``d``
    (point minus quadrature point, (P, nq, 3)) from the pairs' panels
    ``pid``. The points of each panel the pairs use are mapped once and
    gathered per pair; chunks of pairs run on ``run_parallel``.
    Returns a list of (P,) arrays, (P, 3) with ``shape_functions``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    panels = np.asarray(panels, dtype=np.int64)
    used, slot = np.unique(panels, return_inverse=True)
    shape, _, _ = basis_tables(mesh, rule, shape_functions, used)
    out = [np.zeros((len(panels),) + shape.shape[1:]) for _ in range(n_kernels)]
    xq_used = panel_quad_points(mesh, rule, used)
    wl = np.einsum("q,q...->q...", rule.weights, shape)

    def run(sl):
        pid = panels[sl]
        area = mesh.areas[pid]
        for o, k in zip(out, formula(points[sl][:, None, :] - xq_used[slot[sl]], pid)):
            o[sl] = np.einsum("pq,q...,p->p...", k, wl, area)

    run_parallel(run, chunks(len(panels), rule.n_points))
    return out


def kernel_pair_entries(points, mesh: SurfaceMesh, panels, rule: QuadratureRule, kappa: float,
                        shape_functions: bool = False):
    """Panel integrals for explicit (target point, panel) pairs.

    Returns (VL, KL, VY, KY) with shape (P,) or (P, 3) when integrating
    against the linear shape functions. The target must not lie on the panel.
    """

    def layers(d, pid):
        r = np.linalg.norm(d, axis=-1)
        dotn = np.einsum("pqx,px->pq", d, mesh.normals[pid])
        gl = 1.0 / (FOUR_PI * r)
        klk = dotn * gl / (r * r)
        ex = np.exp(-kappa * r)
        return gl, klk, gl * ex, klk * (1.0 + kappa * r) * ex

    return tuple(_pair_quadrature(points, mesh, panels, rule, shape_functions, 4, layers))


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
    ``REMAINDER_RULE``. At kappa = 0 the remainder integrates to +-0, so the
    Yukawa parts equal the Laplace ones. Chunks of pairs run on ``run_parallel``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    panels = np.asarray(panels, dtype=np.int64)
    vl, kl = (np.empty((len(panels), 3) if shape_functions else len(panels)) for _ in range(2))

    def run(sl):
        pid = panels[sl]
        vl[sl], kl[sl] = _flat_panel_laplace(
            points[sl], mesh.corners[pid], mesh.normals[pid], mesh.areas[pid], shape_functions
        )

    run_parallel(run, chunks(len(panels), GAUSS7.n_points))
    if not yukawa:
        return vl, kl, None, None
    vr, kr = _pair_quadrature(points, mesh, panels, REMAINDER_RULE, shape_functions, 2,
                              _yukawa_remainder(mesh, kappa))
    return vl, kl, vl + vr, kl + kr


def operator_blocks(
    targets,
    mesh: SurfaceMesh,
    kappa: float,
    out,
    shape_functions: bool = False,
    panels=None,
    scale=(1.0, 1.0, 1.0, 1.0),
    rows=None,
):
    """Laplace and Yukawa single- and double-layer operators of a basis at targets.

    Fills ``out`` as ``kernel_row_blocks`` does, ``scale`` and ``rows`` included,
    and integrates every (target, panel) pair once: ``near_pair_entries`` for
    the pairs of ``near_pairs``, computed first and written by the row
    batches, and GAUSS7 for far pairs; on a mesh that ``grades``, E4 for
    those beyond FAR_FACTOR panel diameters (``kernel_row_blocks``). A pair
    whose target is a node of the panel (P0: its centroid, P1: a vertex), as
    collocation points are, lies on it and gets the principal value 0 of the
    flat-panel double layer. With ``panels`` (ascending) only those panels
    are integrated and ``out`` has the columns of ``basis_columns``.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    ti, pj = near_pairs(targets, mesh, panels)
    pid = pj if panels is None else np.asarray(panels, dtype=np.int64)[pj]
    near = near_pair_entries(targets[ti], mesh, pid, kappa, yukawa=out[2] is not None,
                             shape_functions=shape_functions)
    nodes = mesh.corners[pid] if shape_functions else mesh.centroids[pid, None]
    on = (nodes == targets[ti, None]).all(axis=2).any(axis=1)
    for k in (1, 3):  # KL, KY: a target on the panel gets the principal value 0
        if near[k] is not None:
            near[k][on] = 0.0
    kernel_row_blocks(targets, mesh, GAUSS7, kappa, out, (ti, pj, near), shape_functions, panels,
                      scale, rows)


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
    targets = mesh.corners[panels, np.asarray(corner_local, dtype=np.int64)]
    return near_pair_entries(targets, mesh, panels, 0.0, yukawa=False, shape_functions=True)[0]


def yukawa_regular_part(points, mesh: SurfaceMesh, panels, kappa: float,
                        rule: QuadratureRule = SMOOTH_RULE):
    """Integrals of (exp(-kappa*r) - 1) / (4*pi*r), the bounded Yukawa remainder.

    Adding this to the Laplace self integral gives the Yukawa self integral.
    """
    return _pair_quadrature(points, mesh, panels, rule, False, 2,
                            _yukawa_remainder(mesh, kappa))[0]
