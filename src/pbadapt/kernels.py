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
Phys. Commun. 185 (2014) 720). The near pairs and the graded pairs within
FAR_FACTOR diameters come from one search, a cut by a group of targets'
bounding sphere (``_within_reach``); no spatial tree is built.
"""

from __future__ import annotations

import weakref

import numpy as np

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


def _batch_kernels(tb, xq, xx, kappa, yukawa, near):
    """1/r, 1/r^3 and, with ``yukawa``, exp(-kappa r)/r, (1 + kappa r) exp(-kappa r)/r^3
    for a batch of targets at n panels' quad points: the kernels less 1/(4 pi),
    the double layers less their normal height (t - y).n, constant on a flat panel.

    Every batch-sized array is laid out (rows, rule point, panel): the
    quadrature points ``xq`` are (3, nq, n), their squared norms ``xx``
    (nq, n). Each point takes one divide, 1/r^2, and one square root, 1/r.
    The distance product stays a k = 3 BLAS product with nothing else
    folded in: a wider one can be large enough for OpenBLAS to thread
    inside each pool worker and oversubscribe the cores.

    ``near`` = (batch rows, panels) of the pairs integrated elsewhere: their
    distances are set to 1, so no kernel divides by zero, and the caller
    writes their entries. A target can only sit on a quadrature point of its
    own panel, and that pair is always near; every other pair lies a panel
    diameter or more from the points, so r^2 needs no clamp at 0.

    Returns the kernels stacked, (2 or 4, rows, nq, n): GL and KL, then GY
    and KY with ``yukawa``, equal to GL and KL bit for bit at kappa = 0.
    Every batch-sized array lives in one block allocated here: a block that
    large is mapped and unmapped as a whole, so batches run on worker
    threads leave no freed heap memory behind in the threads' arenas.
    """
    b, (_, nq, n) = len(tb), xq.shape
    work = np.empty((5 if yukawa else 3, b, nq, n))
    r2, gl, kl = work[:3]
    np.matmul(-2.0 * tb, xq.reshape(3, nq * n), out=r2.reshape(b, nq * n))  # scaling by -2 is exact
    r2 += np.einsum("ij,ij->i", tb, tb)[:, None, None]
    r2 += xx
    rows, panels = near
    r2[rows, :, panels] = 1.0
    np.divide(1.0, r2, out=kl)
    np.sqrt(kl, out=gl)
    kl *= gl
    if yukawa:
        r, gy, ky = r2, work[3], work[4]
        r *= gl
        np.multiply(r, -kappa, out=gy)
        np.exp(gy, out=gy)  # exp(-kappa r), times 1/r last
        np.multiply(r, kappa, out=ky)
        ky += 1.0
        ky *= kl
        ky *= gy
        gy *= gl
    return work[1:]


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


def _fold_table(slot_cols, n_cols):
    """(valence, n_cols) table of each column's slots, ascending, padded with
    slot ``len(slot_cols)``; slot k of a P1 row is shape function k // T at
    panel k % T, and ``slot_cols[k]`` its column."""
    order = np.argsort(slot_cols, kind="stable")
    count = np.bincount(slot_cols, minlength=n_cols)
    rank = np.arange(len(order)) - np.repeat(np.cumsum(count) - count, count)
    table = np.full((count.max(), n_cols), len(order))
    table[rank, slot_cols[order]] = order
    return table


def _fold(p, table):
    """Sum each row's slots of every column, in ascending slot order: the
    (rows, slots) ``p`` with a zero slot appended, gathered by ``_fold_table``."""
    pz = np.concatenate([p, np.zeros((len(p), 1))], axis=1)
    acc = pz[:, table[0]]
    for slots in table[1:]:
        acc += pz[:, slots]
    return acc


def _within_reach(targets, centroids, reach):
    """(c, d2): the panels, ascending, whose (3, T) coordinate-major ``centroids``
    pass the ``targets``' bounding-sphere cut for a per-panel ``reach``, widened
    for rounding so no pair within reach is lost, and the (targets, c) squared
    distances, summed x, y, z for each pair alone."""
    cx, cy, cz = centroids
    mx, my, mz = targets.mean(axis=0)
    radius = np.sqrt(((targets - (mx, my, mz)) ** 2).sum(axis=1).max())
    dist2 = (cx - mx) ** 2
    dist2 += (cy - my) ** 2
    dist2 += (cz - mz) ** 2
    bound = (radius + reach) * (1.0 + 1e-9) + 1e-12 * (abs(mx) + abs(my) + abs(mz))
    c = np.flatnonzero(dist2 <= bound * bound)
    d2 = (targets[:, 0, None] - cx[c]) ** 2
    d2 += (targets[:, 1, None] - cy[c]) ** 2
    d2 += (targets[:, 2, None] - cz[c]) ** 2
    return c, d2


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
    Each kernel of ``_batch_kernels`` is reduced over the rule by one BLAS
    product with the (weights x shape functions / (4 pi)) table, then scaled
    by the panel areas and, in the double layers, by the height (t - c).n
    over the panel's centroid c; P1 integrals are folded into vertex columns
    group by group (memory O(group * T)). ``near`` = (ti, pj) or (ti, pj,
    values), sorted by target as ``near_pairs`` returns them: these (target,
    panel) pairs are not integrated with ``rule``. Their entries are 0, or
    the pair integrals ``values`` = (VL, KL, VY, KY) laid out as
    ``near_pair_entries`` returns them. Each entry is written once: the
    batch's float64 integrals times the block's ``scale`` factor (a number,
    or one per column), to row ``rows[i]`` (ascending) of ``out`` for target
    i, or row i when ``rows`` is None, rounded to the dtype of ``out``. At
    kappa = 0 the Yukawa integrals equal the Laplace ones bit for bit, as
    the batch's kernels do. With ``panels`` (ascending) only those panels
    are integrated, ``pj`` counts positions in ``panels`` and the columns
    are those of ``basis_columns``. Groups of batches of targets run on
    ``run_parallel``, one batch per group unless graded.

    With ``rule`` GAUSS7 on a mesh that ``grades``, the far field is graded
    by distance: a pair whose squared centroid distance, summed x, y, z for
    the pair alone, exceeds (FAR_FACTOR diameters)^2 takes E4, GAUSS7's
    first four points. A group of up to GROUP_BATCHES consecutive batches
    first finds its pairs within FAR_FACTOR diameters. Each batch evaluates
    the kernels at E4's points for every panel and reduces them by E4's
    weights, and by GAUSS7's at the panels of those pairs; the group then
    evaluates GAUSS7's other three points at those panels and gives those
    pairs GAUSS7; the heights come after. A pair's rule depends on the pair
    alone, not on its batch or group.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    graded = rule is GAUSS7 and grades(mesh)
    sel = _panel_index(panels)
    normals = mesh.normals[sel]
    T, nq = len(normals), rule.n_points
    cn = np.einsum("tx,tx->t", mesh.centroids[sel], normals)
    xq = np.ascontiguousarray(panel_quad_points(mesh, rule, panels).transpose(2, 1, 0))
    xx = np.einsum("iqt,iqt->qt", xq, xq)  # xq and xx: coordinate, then rule point first
    shape, cols, n_cols = basis_tables(mesh, rule, shape_functions, panels)
    wt = np.ascontiguousarray((rule.weights[:, None] * shape.reshape(nq, -1)).T) / FOUR_PI
    s = len(wt)
    areas = mesh.areas[sel]
    fold = _fold_table(cols.T.ravel(), n_cols) if shape_functions else None  # P0: no fold
    yukawa = out[2] is not None
    ti, pj = near[:2]
    values = near[2] if len(near) > 2 else (None,) * 4
    rows = np.arange(len(targets)) if rows is None else rows
    n_kernels = 4 if yukawa else 2
    # a fixed budget per batch, whatever the CPU count: the batch size can move
    # the last bit of the BLAS distance product in ``_batch_kernels``; a graded
    # batch holds E4's points, so more rows; at least 16 groups share the workers
    nh = E4.n_points if graded else nq  # the points a batch evaluates
    batches = chunks(len(targets), T * nh, ROW_BATCH_VALUES)
    size = max(1, min(GROUP_BATCHES, len(batches) // 16)) if graded else 1
    groups = [batches[i:i + size] for i in range(0, len(batches), size)]
    if graded:  # the batches evaluate E4's points, the first of GAUSS7's
        w_head, w_tail = np.ascontiguousarray(wt[:, :nh]), np.ascontiguousarray(wt[:, nh:])
        wt = np.ascontiguousarray((E4.weights[:, None] * shape.reshape(nq, -1)[:nh]).T) / FOUR_PI
        centroids = np.ascontiguousarray(mesh.centroids[sel].T)
        reach = FAR_FACTOR * mesh.diameters[sel]

    def run(group):
        start, stop = group[0].start, group[-1].stop
        lo, hi = np.searchsorted(ti, (start, stop))
        rb, pb = ti[lo:hi] - start, pj[lo:hi]
        tg = targets[start:stop]
        part = np.empty((n_kernels, stop - start, s, T))
        if graded:  # GAUSS7 for the pairs within reach: its weights at E4's points here
            c, d2 = _within_reach(tg, centroids, reach)
            within = d2 <= reach[c] ** 2
            used = within.any(axis=0)
            c, within = c[used], within[:, used]
            full = np.empty((n_kernels, stop - start, s, len(c)))
        for sl in group:
            i, j = sl.start - start, sl.stop - start
            a, b = np.searchsorted(rb, (i, j))
            kern = _batch_kernels(targets[sl], xq[:, :nh], xx[:nh], kappa, yukawa,
                                  (rb[a:b] - i, pb[a:b]))
            np.matmul(wt, kern, out=part[:, i:j])  # (kernels, rows, 1 or 3, T)
            if graded:
                np.matmul(w_head, np.take(kern, c, axis=-1), out=full[:, i:j])
            del kern  # freed before the next batch maps its block: two at once cost page faults
        if graded and len(c):  # ... and at its other points
            at = np.minimum(np.searchsorted(c, pb), len(c) - 1)
            hit = c[at] == pb
            tail = _batch_kernels(tg, xq[:, nh:, c], xx[nh:, c], kappa, yukawa, (rb[hit], at[hit]))
            full += np.matmul(w_tail, tail)
            mixed = np.take(part, c, axis=-1)
            np.copyto(mixed, full, where=within[:, None])
            part[..., c] = mixed
        height = tg @ normals.T  # (t - c).n, in place: a group's arrays are large
        height -= cn
        height *= areas
        part[0::2] *= areas
        part[1::2] *= height[:, None]
        parts = []
        for p, value in zip(part, values):
            p[rb, :, pb] = 0.0 if value is None else value[lo:hi].reshape(len(rb), s)
            parts.append(p[:, 0] if fold is None else _fold(p.reshape(len(p), -1), fold))
        # consecutive rows take one slice: array work per group holds the
        # interpreter lock that the other workers wait for
        first, last = rows[start], rows[stop - 1]
        dst = ([(slice(first, last + 1), slice(None))] if last - first == stop - start - 1
               else runs(rows[start:stop], np.arange(stop - start)))
        for block, part, factor in zip(out, parts, scale):
            if block is not None:
                part *= factor  # in float64: a float32 ``out`` would buffer the product
                for d, src in dst:
                    block[d] = part[src]

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
    tested, and the panel index is the position in ``panels``. Each row
    batch's worth of targets takes its candidates from ``_within_reach``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sel = _panel_index(panels)
    centroids = np.ascontiguousarray(mesh.centroids[sel].T)
    radius = NEAR_FACTOR * mesh.diameters[sel]
    found = [(np.empty(0, dtype=np.int64),) * 2]
    for sl in chunks(len(points), len(radius), ROW_BATCH_VALUES):
        c, d2 = _within_reach(points[sl], centroids, radius)
        ti, at = np.nonzero(np.sqrt(d2) < radius[c])
        found.append((ti + sl.start, c[at]))
    return tuple(np.concatenate(k) for k in zip(*found))


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
