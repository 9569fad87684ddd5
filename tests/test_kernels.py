import numpy as np
import pytest

import pbadapt.kernels as kn
import pbadapt.sweep as sweep
from pbadapt.errors import SingularityError
from pbadapt.quadrature import CENTROID, E4, GAUSS7, subdivided

import pointwise as pw
from conftest import make_tetrahedron

FOUR_PI = 4.0 * np.pi


# -- pointwise kernels --------------------------------------------------------


def test_g_laplace_values():
    assert pw.g_laplace([0, 0, 0], [1, 0, 0]) == pytest.approx(1.0 / FOUR_PI)
    assert pw.g_laplace([0, 0, 0], [0, 2, 0]) == pytest.approx(1.0 / (8.0 * np.pi))


def test_g_laplace_scaling_homogeneity():
    r = np.array([0.3, -0.2, 0.9])
    rp = np.array([-1.0, 0.4, 0.2])
    for lam in (2.0, 7.5):
        assert pw.g_laplace(lam * r, lam * rp) == pytest.approx(pw.g_laplace(r, rp) / lam)


def test_g_symmetry():
    r = np.array([0.3, -0.2, 0.9])
    rp = np.array([-1.0, 0.4, 0.2])
    assert pw.g_laplace(r, rp) == pw.g_laplace(rp, r)
    assert pw.g_yukawa(r, rp, 0.4) == pw.g_yukawa(rp, r, 0.4)


def test_coincident_points_raise():
    with pytest.raises(SingularityError):
        pw.g_laplace([1, 2, 3], [1, 2, 3])
    with pytest.raises(SingularityError):
        pw.g_yukawa([1, 2, 3], [1, 2, 3], 0.1)


def test_g_yukawa_limits_and_value():
    r = np.array([0.5, 0.1, -0.3])
    rp = np.array([1.5, -0.4, 0.6])
    assert pw.g_yukawa(r, rp, 0.0) == pytest.approx(pw.g_laplace(r, rp), rel=1e-15)
    # |r - rp| = 2, kappa = 0.125
    val = pw.g_yukawa([0, 0, 0], [2, 0, 0], 0.125)
    assert val == pytest.approx(np.exp(-0.25) / (8.0 * np.pi), rel=1e-14)
    # screened kernel never exceeds the bare one
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert pw.g_yukawa(a, b, 0.7) <= pw.g_laplace(a, b)


def test_dgdn_orthogonal_direction_is_zero():
    n = np.array([0.0, 0.0, 1.0])
    assert pw.dgdn_laplace([1, 0, 0], [0, 0, 0], n) == pytest.approx(0.0, abs=1e-16)
    assert pw.dgdn_yukawa([0, 1, 0], [0, 0, 0], n, 0.3) == pytest.approx(0.0, abs=1e-16)


@pytest.mark.parametrize("kappa", [0.0, 0.125, 0.8])
def test_dgdn_matches_finite_difference(kappa):
    rng = np.random.default_rng(1)
    r = np.array([0.9, 0.1, 0.4])
    for _ in range(5):
        rp = r + _unit(rng.normal(size=3))  # |r - rp| = 1
        n = _unit(rng.normal(size=3))
        h = 1e-5
        if kappa == 0.0:
            fd = (pw.g_laplace(r, rp + h * n) - pw.g_laplace(r, rp - h * n)) / (2 * h)
            got = pw.dgdn_laplace(r, rp, n)
        else:
            fd = (pw.g_yukawa(r, rp + h * n, kappa) - pw.g_yukawa(r, rp - h * n, kappa)) / (2 * h)
            got = pw.dgdn_yukawa(r, rp, n, kappa)
        assert got == pytest.approx(fd, rel=1e-6)


def _unit(v):
    return v / np.linalg.norm(v)


# -- panel quadrature ---------------------------------------------------------


TRI = np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [0.2, 0.9, 0.0]])


def test_panel_integral_constant_kernel_gives_area():
    area = 0.5 * np.linalg.norm(np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0]))
    val = pw.panel_integral(lambda t, x: np.ones(len(x)), np.array([5.0, 5, 5]), TRI, GAUSS7)
    assert val == pytest.approx(area, rel=1e-14)


def test_panel_integral_far_field_matches_centroid_value():
    target = np.array([60.0, 40.0, 30.0])
    area = 0.5 * np.linalg.norm(np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0]))
    kernel = lambda t, x: 1.0 / (FOUR_PI * np.linalg.norm(x - t, axis=1))  # noqa: E731
    val = pw.panel_integral(kernel, target, TRI, GAUSS7)
    approx = area * pw.g_laplace(target, TRI.mean(axis=0))
    d = np.linalg.norm(TRI.mean(axis=0) - target)
    diam = 1.2
    assert abs(val - approx) / abs(val) < (diam / d) ** 2


def test_panel_integral_split_consistency():
    target = np.array([0.7, 0.8, 1.5])
    kernel = lambda t, x: 1.0 / (FOUR_PI * np.linalg.norm(x - t, axis=1))  # noqa: E731
    whole = pw.panel_integral(kernel, target, TRI, GAUSS7)
    a, b, c = TRI
    ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
    parts = sum(
        pw.panel_integral(kernel, target, np.array(sub), GAUSS7)
        for sub in [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    )
    reference = pw.panel_integral(kernel, target, TRI, subdivided(GAUSS7, 3))
    # splitting moves the value by no more than the one-panel quadrature error
    assert abs(parts - whole) <= 2.0 * abs(whole - reference)
    assert abs(parts - reference) < abs(whole - reference)


# -- singular self integrals --------------------------------------------------


def brute_single_layer(panel, target, psi_corner=None, eps_fracs=(0.1, 0.05), max_depth=13):
    """Independent oracle: recursive subdivision excluding an eps-disk around
    the target, exact disk correction, Richardson extrapolation in eps."""
    panel = np.asarray(panel, float)
    diam = max(
        np.linalg.norm(panel[1] - panel[0]),
        np.linalg.norm(panel[2] - panel[1]),
        np.linalg.norm(panel[0] - panel[2]),
    )

    def bary(pts):
        T = np.column_stack([panel[0] - panel[2], panel[1] - panel[2]])
        sol, *_ = np.linalg.lstsq(T, (pts - panel[2]).T, rcond=None)
        return np.vstack([sol, 1 - sol.sum(axis=0)]).T

    linear = psi_corner is not None
    out = []
    for f in eps_fracs:
        eps = f * diam
        acc = np.zeros(3) if linear else 0.0
        stack = [(panel, 0)]
        while stack:
            tri, depth = stack.pop()
            cen = tri.mean(axis=0)
            size = max(
                np.linalg.norm(tri[0] - tri[1]),
                np.linalg.norm(tri[1] - tri[2]),
                np.linalg.norm(tri[2] - tri[0]),
            )
            rc = np.linalg.norm(cen - target)
            if rc - size >= eps and (depth >= 4 or size < 0.3 * rc):
                pts = GAUSS7.map_to(tri)
                a = 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
                vals = 1.0 / (FOUR_PI * np.linalg.norm(pts - target, axis=1))
                if linear:
                    acc = acc + a * np.einsum("q,q,ql->l", GAUSS7.weights, vals, bary(pts))
                else:
                    acc = acc + a * np.dot(GAUSS7.weights, vals)
                continue
            if rc + size <= eps:
                continue
            if depth >= max_depth:
                if rc > eps:
                    a = 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
                    v = 1.0 / (FOUR_PI * rc)
                    acc = acc + (a * v * bary(cen[None])[0] if linear else a * v)
                continue
            m01, m12, m20 = (tri[0] + tri[1]) / 2, (tri[1] + tri[2]) / 2, (tri[2] + tri[0]) / 2
            stack += [
                (np.array([tri[0], m01, m20]), depth + 1),
                (np.array([m01, tri[1], m12]), depth + 1),
                (np.array([m20, m12, tri[2]]), depth + 1),
                (np.array([m01, m12, m20]), depth + 1),
            ]
        if linear:
            u = panel[(psi_corner + 1) % 3] - target
            v = panel[(psi_corner + 2) % 3] - target
            alpha = np.arccos(np.clip(u @ v / np.linalg.norm(u) / np.linalg.norm(v), -1, 1))
            corr = np.zeros(3)
            corr[psi_corner] = alpha * eps / FOUR_PI
            acc = acc + corr
        else:
            acc = acc + eps / 2.0  # exact integral of the kernel over the disk
        out.append(acc)
    f1, f2 = eps_fracs
    v1, v2 = out
    return (f1**2 * np.asarray(v2) - f2**2 * np.asarray(v1)) / (f1**2 - f2**2)


def _tetrahedron_on(tri):
    """Closed mesh whose panel 0 is the counter-clockwise triangle ``tri`` in z = 0."""
    import pbadapt as pa

    apex = tri.mean(axis=0) - [0.0, 0.0, 1.0]
    tris = np.array([[0, 1, 2], [0, 3, 1], [1, 3, 2], [2, 3, 0]])
    return pa.SurfaceMesh(np.vstack([tri, apex]), tris)


def test_singular_self_integral_scaling():
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(3) / 2, 0.0]])
    v1 = kn.centroid_self_single_layer(_tetrahedron_on(tri))[0]
    v2 = kn.centroid_self_single_layer(_tetrahedron_on(2 * tri))[0]
    assert v2 == pytest.approx(2 * v1, rel=1e-13)


def test_singular_self_integral_against_brute_force():
    for tri in (
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(3) / 2, 0.0]]),
        np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.3, 0.9, 0.0]]),
    ):
        mine = kn.centroid_self_single_layer(_tetrahedron_on(tri))[0]
        brute = brute_single_layer(tri, tri.mean(axis=0))
        assert abs(mine - brute) / abs(brute) < 1e-6


def test_corner_single_layer_against_brute_force():
    mesh = make_tetrahedron()
    vals = kn.corner_single_layer_linear(mesh, np.array([3]), np.array([0]))[0]
    panel = mesh.vertices[mesh.triangles[3]]
    brute = brute_single_layer(panel, panel[0], psi_corner=0)
    assert np.all(np.abs(vals - brute) / np.abs(brute) < 5e-6)


def test_flat_panel_double_layer_self_is_zero():
    # target in the panel plane: (r - rp) is orthogonal to the normal
    n = np.array([0.0, 0.0, 1.0])
    target = TRI.mean(axis=0) + np.array([0.31, 0.07, 0.0])
    kernel = lambda t, x: pw.dgdn_laplace(t, x, n)  # noqa: E731
    assert pw.panel_integral(kernel, target, TRI, GAUSS7) == pytest.approx(0.0, abs=1e-15)


def test_yukawa_self_decomposition():
    # Yukawa self = Laplace self + bounded remainder, checked against a fine rule
    mesh = make_tetrahedron()
    kappa = 0.5
    idx = np.arange(mesh.n_panels)
    lap = kn.centroid_self_single_layer(mesh)
    rem = kn.yukawa_regular_part(mesh.centroids, mesh, idx, kappa)
    fine = kn.yukawa_regular_part(mesh.centroids, mesh, idx, kappa, rule=subdivided(GAUSS7, 4))
    assert np.allclose(rem, fine, rtol=5e-4, atol=1e-12)
    assert np.all(lap + rem < lap)  # screening strictly reduces the potential


# -- closed-form flat-panel integrals ----------------------------------------------


@pytest.fixture(scope="module")
def brute_rule():
    return subdivided(GAUSS7, 8)  # 458,752 points per panel


def _targets_at(mesh, panel, dist):
    """Points at distance ``dist`` from a panel: above and below an interior point,
    in its plane beyond an edge, on the extension of an edge, and off a corner."""
    p = mesh.vertices[mesh.triangles[panel]]
    n = mesh.normals[panel]
    inner = np.array([0.2, 0.3, 0.5]) @ p
    edge = p[1] - p[0]
    out = np.cross(edge, n) / np.linalg.norm(edge)  # in-plane, away from the panel
    along = -edge / np.linalg.norm(edge)
    corner = p[0] - p.mean(axis=0)
    off = (corner / np.linalg.norm(corner) + n) / np.sqrt(2.0)
    return np.array([
        inner + dist * n,
        inner - dist * n,
        0.5 * (p[0] + p[1]) + dist * out,
        p[0] + dist * along,
        p[0] + dist * off,
    ])


@pytest.mark.parametrize("shape_functions", [False, True])
@pytest.mark.parametrize("d_over_h", [0.05, 0.5, 1.0, 2.0])
def test_closed_form_matches_subdivided_rule(brute_rule, d_over_h, shape_functions):
    import pbadapt as pa

    mesh = pa.icosphere(1.0, 1)
    panels = np.repeat([3, 41], 5)
    points = np.vstack([_targets_at(mesh, t, d_over_h * mesh.diameters[t]) for t in (3, 41)])
    got = kn.near_pair_entries(points, mesh, panels, 0.125, shape_functions=shape_functions)
    want = kn.kernel_pair_entries(points, mesh, panels, brute_rule, 0.125,
                                  shape_functions=shape_functions)
    # Laplace parts are exact; the Yukawa remainder has the 28-point rule's error
    for g, w, tol in zip(got, want, (1e-10, 1e-10, 1e-5, 1e-5)):
        assert np.abs(g - w).max() <= tol * np.abs(w).max()


def duffy_single_layer(panel, target, n_points=80):
    """Linear-density single layer over a panel with the target on it.

    Each subtriangle (target, p_k, p_k+1) is mapped from the unit square by
    y = x + u (p_k - x + v (p_k+1 - p_k)); the Jacobian cancels 1/|y - x|,
    the u integral of the linear density is exact and v gets Gauss-Legendre.
    """
    gx, gw = np.polynomial.legendre.leggauss(n_points)
    v, w = 0.5 * (gx + 1.0), 0.5 * gw
    to_bary = np.linalg.pinv(np.vstack([panel.T, np.ones(3)]))  # exact on the plane
    bary = lambda y: (to_bary @ np.vstack([y.T, np.ones(len(y))])).T  # noqa: E731
    out = np.zeros(3)
    for k in range(3):
        a, b = panel[k] - target, panel[(k + 1) % 3] - target
        area2 = np.linalg.norm(np.cross(a, b))
        if area2 < 1e-12 * np.dot(a - b, a - b):
            continue  # the target is on this edge
        e = a + v[:, None] * (b - a)
        mean = 0.5 * (bary(target[None]) + bary(target + e))  # mean density along u
        out += area2 * np.einsum("q,q,ql->l", w, 1.0 / np.linalg.norm(e, axis=1), mean)
    return out / FOUR_PI


def test_closed_form_on_panel_matches_duffy_rule():
    import pbadapt as pa

    mesh = pa.icosphere(1.0, 1)
    for t in (0, 17, 55):
        p = mesh.vertices[mesh.triangles[t]]
        targets = np.vstack([p.mean(axis=0), p, np.array([0.5, 0.3, 0.2]) @ p])
        panels = np.full(len(targets), t)
        vl = kn.near_pair_entries(targets, mesh, panels, 0.0, yukawa=False, shape_functions=True)[0]
        want = np.array([duffy_single_layer(p, x) for x in targets])
        assert np.abs(vl - want).max() <= 1e-10 * np.abs(want).max()
        v0 = kn.near_pair_entries(targets, mesh, panels, 0.0, yukawa=False)[0]
        assert np.abs(v0 - want.sum(axis=1)).max() <= 1e-10 * np.abs(want).max()


def test_closed_form_vertex_target_is_finite(recwarn):
    import pbadapt as pa

    mesh = pa.icosphere(1.0, 1)
    panels = np.repeat(np.arange(mesh.n_panels), 3)
    corners = mesh.triangles[panels, np.tile([0, 1, 2], mesh.n_panels)]
    vals = kn.near_pair_entries(mesh.vertices[corners], mesh, panels, 0.125, shape_functions=True)
    assert all(np.isfinite(v).all() for v in vals)
    assert len(recwarn) == 0


def test_closed_form_double_layer_gauss_identity():
    import pbadapt as pa

    mesh = pa.icosphere(1.0, 2)
    everything = np.arange(mesh.n_panels)

    def total(x, shape_functions=False):
        points = np.broadcast_to(x, (mesh.n_panels, 3))
        kl = kn.near_pair_entries(points, mesh, everything, 0.0, yukawa=False,
                                  shape_functions=shape_functions)[1]
        return kl, kl.sum()

    for shape_functions in (False, True):
        for x, want in (([0.0, 0.0, 0.0], -1.0), ([0.3, -0.2, 0.4], -1.0),
                        ([0.0, 0.05, 0.97], -1.0), ([2.0, 0.0, 0.0], 0.0),
                        ([0.0, 0.05, 1.03], 0.0)):
            assert abs(total(np.array(x), shape_functions)[1] - want) < 1e-12
    for t in (0, 111, 250):
        kl, _ = total(mesh.centroids[t])
        kl[t] = 0.0  # principal value on the target's own flat panel
        assert abs(kl.sum() + 0.5) < 1e-12


# -- pair quadrature and the worker pool ----------------------------------------


def _pair_entries_mapped_per_pair(points, mesh, panels, rule, kappa, shape_functions):
    """Reference: the rule's points mapped again for every (target, panel) pair."""
    xq = np.einsum("qk,pkx->pqx", rule.points, mesh.vertices[mesh.triangles[panels]])
    d = points[:, None, :] - xq
    r = np.linalg.norm(d, axis=-1)
    dotn = np.einsum("pqx,px->pq", d, mesh.normals[panels])
    gl = 1.0 / (FOUR_PI * r)
    klk = dotn * gl / (r * r)
    ex = np.exp(-kappa * r)
    area = mesh.areas[panels]
    if shape_functions:
        wl = np.einsum("q,ql->ql", rule.weights, rule.points)
        red = lambda k: np.einsum("pq,ql,p->pl", k, wl, area)  # noqa: E731
    else:
        red = lambda k: np.einsum("pq,q,p->p", k, rule.weights, area)  # noqa: E731
    return red(gl), red(klk), red(gl * ex), red(klk * (1.0 + kappa * r) * ex)


@pytest.mark.parametrize("shape_functions", [False, True])
def test_pair_entries_match_per_pair_mapping_bitwise(shape_functions, monkeypatch):
    import pbadapt as pa

    mesh = pa.icosphere(1.0, 1)
    ti, pj = kn.near_pairs(mesh.centroids, mesh)
    off = ti != pj
    points, panels = mesh.centroids[ti[off]], pj[off]
    want = _pair_entries_mapped_per_pair(points, mesh, panels, pw.NEAR_RULE, 0.125, shape_functions)
    for cpus in (1, 2):
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
        got = kn.kernel_pair_entries(
            points, mesh, panels, pw.NEAR_RULE, 0.125, shape_functions=shape_functions
        )
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_near_pairs_match_brute_force_on_uneven_mesh():
    import pbadapt as pa
    from pbadapt.mesh import close_marking, refine_flat

    mesh = pa.icosphere(1.0, 1)
    for _ in range(2):  # refine one cap twice: panel sizes differ by 4x
        marked = np.flatnonzero(mesh.centroids[:, 2] > 0.4)
        mesh = refine_flat(mesh, close_marking(mesh, marked))
    rng = np.random.default_rng(5)
    inner = rng.standard_normal((50, 3))
    inner *= rng.uniform(0.5, 0.99, 50)[:, None] / np.linalg.norm(inner, axis=1)[:, None]
    for points in (mesh.centroids, mesh.vertices, inner):
        d = np.linalg.norm(points[:, None, :] - mesh.centroids[None, :, :], axis=-1)
        want = np.nonzero(d < kn.NEAR_FACTOR * mesh.diameters[None, :])
        got = kn.near_pairs(points, mesh)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_p0_operator_integrates_near_and_self_pairs_once():
    import pbadapt as pa

    mesh, kappa = pa.icosphere(1.0, 1), 0.125
    n = mesh.n_panels
    out = tuple(np.empty((n, n)) for _ in range(4))
    kn.operator_blocks(mesh.centroids, mesh, kappa, out)
    ti, pj = kn.near_pairs(mesh.centroids, mesh)
    fine = kn.near_pair_entries(mesh.centroids[ti], mesh, pj, kappa)
    on = ti == pj  # a centroid lies on its own panel: principal-value double layer 0
    for f in fine[1::2]:
        f[on] = 0.0
    for block, f in zip(out, fine):
        assert np.array_equal(block[ti, pj], f)


def test_p1_operator_matches_per_pair_reference():
    import pbadapt as pa

    mesh, kappa = pa.icosphere(1.0, 1), 0.125
    nv = mesh.n_vertices
    out = tuple(np.empty((nv, nv)) for _ in range(4))
    kn.operator_blocks(mesh.vertices, mesh, kappa, out, shape_functions=True)
    # every (vertex, panel) pair gets one integral: GAUSS7 if far, the near-pair
    # rule if near, with a zero double layer if the vertex is one of the panel's corners
    ti, pj = np.divmod(np.arange(nv * mesh.n_panels), mesh.n_panels)
    tris = mesh.triangles[pj]
    on = (tris == ti[:, None]).any(axis=1)
    d = np.linalg.norm(mesh.vertices[ti] - mesh.centroids[pj], axis=1)
    near = d < kn.NEAR_FACTOR * mesh.diameters[pj]
    vals = np.zeros((4, len(ti), 3))
    vals[:, ~near] = _pair_entries_mapped_per_pair(
        mesh.vertices[ti[~near]], mesh, pj[~near], GAUSS7, kappa, True
    )
    vals[:, near] = kn.near_pair_entries(mesh.vertices[ti[near]], mesh, pj[near], kappa,
                                         shape_functions=True)
    vals[1::2, on] = 0.0
    for block, val in zip(out, vals):
        want = np.zeros((nv, nv))
        np.add.at(want, (ti[:, None], tris), val)
        assert np.abs(block - want).max() <= 1e-13 * np.abs(want).max()


def _row_blocks(mesh, shape_functions, kappa):
    """Far-field (VL, KL, VY, KY) rows of the collocation points of a basis."""
    targets = mesh.vertices if shape_functions else mesh.centroids
    n_cols = mesh.n_vertices if shape_functions else mesh.n_panels
    out = tuple(np.zeros((len(targets), n_cols)) for _ in range(4))
    kn.kernel_row_blocks(targets, mesh, GAUSS7, kappa, out, kn.near_pairs(targets, mesh),
                         shape_functions)
    return out


@pytest.mark.parametrize("shape_functions", [False, True])
def test_row_blocks_at_kappa_zero_are_the_laplace_rows(shape_functions):
    import pbadapt as pa

    mesh = pa.icosphere(1.0, 2)
    vl, kl, vy, ky = _row_blocks(mesh, shape_functions, 0.0)
    assert np.array_equal(vy, vl) and np.array_equal(ky, kl)
    # a kappa this small takes the exponential path and rounds to the same kernels
    for got, want in zip(_row_blocks(mesh, shape_functions, 1e-300), (vl, kl, vy, ky)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape_functions", [False, True])
def test_row_blocks_independent_of_cpu_count(shape_functions, monkeypatch):
    import pbadapt as pa

    mesh = pa.icosphere(1.0, 2)
    n_targets = mesh.n_vertices if shape_functions else mesh.n_panels
    assert kn.ROW_BATCH_VALUES / (mesh.n_panels * GAUSS7.n_points) < n_targets / 2  # many batches
    blocks = []
    for cpus in (1, 2):
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
        blocks.append(_row_blocks(mesh, shape_functions, 0.125))
    for a, b in zip(*blocks):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("subset", [False, True])
@pytest.mark.parametrize("kappa", [0.0, 0.125])
@pytest.mark.parametrize("shape_functions", [False, True])
def test_row_blocks_match_per_pair_reference(shape_functions, kappa, subset):
    """Every far (target, panel) pair integrated on its own with GAUSS7 and
    summed into its columns; near pairs are left out of both."""
    import warnings

    import pbadapt as pa
    from pbadapt.mesh import close_marking, refine_flat

    mesh = pa.icosphere(1.0, 2)
    mesh = refine_flat(mesh, close_marking(mesh, np.flatnonzero(mesh.centroids[:, 2] > 0.4)))
    targets = mesh.vertices if shape_functions else mesh.centroids
    panels = np.flatnonzero(mesh.centroids[:, 0] > -0.3) if subset else None
    _, cols, n_cols = kn.basis_tables(mesh, GAUSS7, shape_functions, panels)
    ids = np.arange(mesh.n_panels) if panels is None else panels
    assert kn.ROW_BATCH_VALUES / (len(ids) * GAUSS7.n_points) < len(targets) / 2  # many batches
    near = kn.near_pairs(targets, mesh, panels)
    got = tuple(np.zeros((len(targets), n_cols)) for _ in range(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kn.kernel_row_blocks(targets, mesh, GAUSS7, kappa, got, near, shape_functions, panels)
    ti, pos = np.divmod(np.arange(len(targets) * len(ids)), len(ids))
    far = np.ones((len(targets), len(ids)), dtype=bool)
    far[near] = False
    ti, pos = ti[far.ravel()], pos[far.ravel()]
    vals = _pair_entries_mapped_per_pair(targets[ti], mesh, ids[pos], GAUSS7, kappa,
                                         shape_functions)
    for block, val in zip(got, vals):
        want = np.zeros_like(block)
        np.add.at(want, (ti[:, None], cols[pos]), val.reshape(len(ti), -1))
        assert np.abs(block - want).max() <= 1e-13 * np.abs(want).max()


def _graded_mesh():
    """Level-1 sphere with a cap refined twice: near pairs, pairs at 2-6
    diameters and pairs beyond 6 diameters all occur, for centroids and vertices."""
    import pbadapt as pa
    from pbadapt.mesh import close_marking, refine_flat

    mesh = pa.icosphere(1.0, 1)
    for _ in range(2):
        mesh = refine_flat(mesh, close_marking(mesh, np.flatnonzero(mesh.centroids[:, 2] > 0.4)))
    return mesh


def _graded_operator(mesh, kappa, shape_functions):
    colloc = mesh.vertices if shape_functions else mesh.centroids
    out = tuple(np.empty((len(colloc), len(colloc))) for _ in range(4))
    kn.operator_blocks(colloc, mesh, kappa, out, shape_functions)
    return out


@pytest.mark.parametrize("kappa", [0.0, 0.125])
@pytest.mark.parametrize("shape_functions", [False, True])
def test_graded_operator_matches_per_pair_reference(shape_functions, kappa, monkeypatch):
    """On a graded mesh every (target, panel) pair is integrated on its own:
    the closed form if near, GAUSS7 up to FAR_FACTOR diameters, E4 beyond,
    summed into its columns."""
    monkeypatch.setattr(kn, "grades", lambda mesh: True)
    mesh = _graded_mesh()
    colloc = mesh.vertices if shape_functions else mesh.centroids
    n, T = len(colloc), mesh.n_panels
    assert kn.ROW_BATCH_VALUES / (T * E4.n_points) < n / 2  # several batches
    got = _graded_operator(mesh, kappa, shape_functions)
    ti, pj = np.divmod(np.arange(n * T), T)
    off = colloc[ti] - mesh.centroids[pj]
    near = np.linalg.norm(off, axis=1) < kn.NEAR_FACTOR * mesh.diameters[pj]
    far = (off * off).sum(axis=1) > (kn.FAR_FACTOR * mesh.diameters[pj]) ** 2
    mid = ~near & ~far
    assert near.mean() > 0.05 and mid.mean() > 0.3 and far.mean() > 0.3
    width = 3 if shape_functions else 1
    vals = np.zeros((4, len(ti), width))
    for pick, rule in ((mid, GAUSS7), (far, E4)):
        ref = _pair_entries_mapped_per_pair(colloc[ti[pick]], mesh, pj[pick], rule, kappa,
                                            shape_functions)
        vals[:, pick] = np.reshape(ref, (4, -1, width))
    ref = kn.near_pair_entries(colloc[ti[near]], mesh, pj[near], kappa,
                               shape_functions=shape_functions)
    vals[:, near] = np.reshape(ref, (4, -1, width))
    on = (mesh.triangles[pj] == ti[:, None]).any(axis=1) if shape_functions else ti == pj
    vals[1::2, on] = 0.0
    cols = mesh.triangles[pj] if shape_functions else pj[:, None]
    for block, val in zip(got, vals):
        want = np.zeros((n, n))
        np.add.at(want, (ti[:, None], cols), val)
        assert np.abs(block - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("shape_functions", [False, True])
def test_graded_targets_with_every_pair_far_take_e4(shape_functions, monkeypatch):
    """Targets beyond FAR_FACTOR diameters of every panel, as the Born charge
    at the centre of a fine sphere is, have no pair to correct: every entry is
    the E4 integral."""
    monkeypatch.setattr(kn, "grades", lambda mesh: True)
    mesh = _graded_mesh()
    targets = np.array([[0.0, 0.0, 9.0], [6.0, -7.0, 0.5]])
    n_cols = mesh.n_vertices if shape_functions else mesh.n_panels
    got = tuple(np.empty((2, n_cols)) for _ in range(4))
    kn.operator_blocks(targets, mesh, 0.125, got, shape_functions)
    ti, pj = np.divmod(np.arange(2 * mesh.n_panels), mesh.n_panels)
    vals = _pair_entries_mapped_per_pair(targets[ti], mesh, pj, E4, 0.125, shape_functions)
    cols = mesh.triangles[pj] if shape_functions else pj[:, None]
    for block, val in zip(got, vals):
        want = np.zeros((2, n_cols))
        np.add.at(want, (ti[:, None], cols), val.reshape(len(ti), -1))
        assert np.abs(block - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("shape_functions", [False, True])
def test_graded_groups_only_save_work(shape_functions, monkeypatch):
    """One batch and one group for every target, one target per group, and
    groups of many batches give the entries of the default groups: a pair's
    rule depends on the pair alone, not on the targets that share its pass."""
    monkeypatch.setattr(kn, "grades", lambda mesh: True)
    mesh, kappa = _graded_mesh(), 0.125
    default = _graded_operator(mesh, kappa, shape_functions)
    for budget, group in ((1.0, 1), (1e12, 1), (kn.ROW_BATCH_VALUES / 32, 10**6)):
        monkeypatch.setattr(kn, "ROW_BATCH_VALUES", budget)
        monkeypatch.setattr(kn, "GROUP_BATCHES", group)
        for got, want in zip(_graded_operator(mesh, kappa, shape_functions), default):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_only_meshes_with_mostly_far_pairs_are_graded():
    """The level-4 sphere of the Born benchmark is graded; the coarser spheres
    and the cap-refined test mesh, where more than a tenth of the pairs lie
    within FAR_FACTOR diameters, keep GAUSS7 for every far pair."""
    import pbadapt as pa

    assert kn.grades(pa.icosphere(1.0, 4))
    for mesh in (pa.icosphere(1.0, 2), pa.icosphere(1.0, 3), _graded_mesh()):
        assert not kn.grades(mesh)


@pytest.mark.parametrize("kappa", [0.0, 0.125])
@pytest.mark.parametrize("shape_functions", [False, True])
def test_row_blocks_write_near_values_and_scales(shape_functions, kappa, monkeypatch):
    """Given near values and block scales, the row batch writes each entry as
    scale x (the far-rule integral, or the near values at the near pairs),
    the same with one and two workers. At kappa = 0 the Yukawa blocks take
    the Laplace integrals, near values included."""
    import pbadapt as pa

    mesh = pa.icosphere(1.0, 2)
    targets = mesh.vertices if shape_functions else mesh.centroids
    n_cols = mesh.n_vertices if shape_functions else mesh.n_panels
    ti, pj = kn.near_pairs(targets, mesh)
    rng = np.random.default_rng(7)
    values = [rng.standard_normal((len(ti), 3) if shape_functions else len(ti)) for _ in range(4)]
    if kappa == 0.0:
        values[2:] = values[:2]
    scale = (-1.0, 1.0, 4.0 / 80.0, -1.0)
    far = _row_blocks(mesh, shape_functions, kappa)  # zeros at the near pairs
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
        got = tuple(np.full((len(targets), n_cols), np.nan) for _ in range(4))
        kn.kernel_row_blocks(targets, mesh, GAUSS7, kappa, got, (ti, pj, values), shape_functions,
                             scale=scale)
        results.append(got)
    for a, b in zip(*results):
        assert np.array_equal(a, b)
    for got, f, value, factor in zip(results[0], far, values, scale):
        want = f.copy()
        if shape_functions:  # a vertex column sums its near and far panels in one fold
            np.add.at(want, (ti[:, None], mesh.triangles[pj]), value)
            assert np.abs(got - want * factor).max() <= 1e-14 * np.abs(want).max()
        else:
            want[ti, pj] = value
            assert np.array_equal(got, want * factor)
    if shape_functions:  # zero near values leave the far rows bit for bit
        zero = tuple(np.zeros_like(v) for v in values)
        got = tuple(np.empty((len(targets), n_cols)) for _ in range(4))
        kn.kernel_row_blocks(targets, mesh, GAUSS7, kappa, got, (ti, pj, zero), shape_functions)
        for g, f in zip(got, far):
            assert np.array_equal(g, f)


@pytest.mark.parametrize("shape_functions", [False, True])
def test_operator_rows_written_in_two_parts_equal_one_write(shape_functions, monkeypatch):
    """Rows that ``rows`` places in two stretches of a taller block equal one
    contiguous write bit for bit, and no other row is touched."""
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    mesh, kappa, gap = _uneven_mesh(), 0.125, 5
    colloc = mesh.vertices if shape_functions else mesh.centroids
    n = len(colloc)
    assert kn.ROW_BATCH_VALUES / (mesh.n_panels * GAUSS7.n_points) > n // 2  # a batch spans the gap
    scale = (-1.0, 1.0, 4.0 / 80.0, -1.0)
    one = tuple(np.empty((n, n)) for _ in range(4))
    kn.operator_blocks(colloc, mesh, kappa, one, shape_functions, scale=scale)
    rows = np.r_[np.arange(n // 2), np.arange(n // 2, n) + gap]
    tall = tuple(np.full((n + gap, n), np.nan) for _ in range(4))
    kn.operator_blocks(colloc, mesh, kappa, tall, shape_functions, scale=scale, rows=rows)
    for o, t in zip(one, tall):
        assert np.array_equal(t[rows], o)
        assert np.isnan(np.delete(t, rows, axis=0)).all()


def test_run_parallel_calls_each_item_once(monkeypatch):
    import sys

    seen = np.zeros(500, dtype=int)

    def bump(i):
        seen[i] += 1  # one item per call, so no two workers touch one slot

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2):
            monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
            sweep.run_parallel(bump, range(len(seen)))
    finally:
        sys.setswitchinterval(interval)
    assert np.all(seen == 2)


def test_run_parallel_raises_worker_errors(monkeypatch):
    def fail(i):
        if i == 7:
            raise SingularityError("boom")

    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    with pytest.raises(SingularityError):
        sweep.run_parallel(fail, range(20))


# -- Gauss identity -----------------------------------------------------------


def test_gauss_identity_interior_targets():
    import pbadapt as pa

    mesh = pa.icosphere(1.0, 3)
    corners = mesh.vertices[mesh.triangles]
    for target in (np.zeros(3), np.array([0.3, -0.2, 0.4])):
        total = sum(
            pw.panel_integral(
                lambda t, x, n=mesh.normals[i]: pw.dgdn_laplace(t, x, n),
                target,
                corners[i],
                CENTROID,
            )
            for i in range(mesh.n_panels)
        )
        assert abs(total - (-1.0)) < 1e-2


def _uneven_mesh():
    import pbadapt as pa
    from pbadapt.mesh import close_marking, refine_flat

    mesh = pa.icosphere(1.0, 1)
    marked = np.flatnonzero(mesh.centroids[:, 2] > 0.4)
    return refine_flat(mesh, close_marking(mesh, marked))


def test_near_pairs_on_panel_subset_are_the_subset_of_all_pairs():
    mesh = _uneven_mesh()
    panels = np.flatnonzero(mesh.centroids[:, 0] > 0.2)
    for points in (mesh.centroids, mesh.vertices):
        ti, pj = kn.near_pairs(points, mesh)
        keep = np.isin(pj, panels)
        sub_ti, sub_pos = kn.near_pairs(points, mesh, panels)
        assert np.array_equal(sub_ti, ti[keep])
        assert np.array_equal(panels[sub_pos], pj[keep])
    empty = kn.near_pairs(mesh.centroids, mesh, np.empty(0, dtype=np.int64))
    assert all(len(e) == 0 for e in empty)


@pytest.mark.parametrize("shape_functions", [False, True])
def test_operator_on_panel_subset_matches_full_columns(shape_functions):
    mesh, kappa = _uneven_mesh(), 0.125
    colloc = mesh.vertices if shape_functions else mesh.centroids
    n = len(colloc)
    full = tuple(np.empty((n, n)) for _ in range(4))
    kn.operator_blocks(colloc, mesh, kappa, full, shape_functions)
    targets = np.arange(0, n, 3)
    if shape_functions:  # the stars of some vertices: their columns are complete
        wanted = np.arange(1, n, 5)
        panels = np.flatnonzero(np.isin(mesh.triangles, wanted).any(axis=1))
    else:
        wanted = panels = np.arange(2, n, 4)
    columns = kn.basis_columns(mesh, shape_functions, panels)
    pick = np.searchsorted(columns, wanted)
    assert np.array_equal(columns[pick], wanted)
    sub = tuple(np.empty((len(targets), len(columns))) for _ in range(4))
    kn.operator_blocks(colloc[targets], mesh, kappa, sub, shape_functions, panels=panels)
    for f, s in zip(full, sub):
        want = f[np.ix_(targets, wanted)]
        # the far entries' BLAS distance products may differ in the last bits
        assert np.allclose(s[:, pick], want, rtol=1e-13, atol=1e-15 * np.abs(f).max())


@pytest.mark.parametrize("shape_functions", [False, True])
def test_collocated_double_layer_diagonals_are_zero(shape_functions):
    """Assembly writes the free term over the KL and KY diagonals: both are
    the principal value 0 on the target's own panels."""
    import pbadapt as pa
    from pbadapt.mesh import close_marking, refine_conforming

    mesh = pa.icosphere(1.0, 1)
    marked = np.flatnonzero(mesh.centroids[:, 2] > 0.4)
    mesh = refine_conforming(mesh, close_marking(mesh, marked), pa.icosphere(1.0, 4))
    colloc = mesh.vertices if shape_functions else mesh.centroids
    n = len(colloc)
    blocks = tuple(np.empty((n, n)) for _ in range(4))
    kn.operator_blocks(colloc, mesh, 0.125, blocks, shape_functions)
    assert np.all(np.diag(blocks[1]) == 0.0)
    assert np.all(np.diag(blocks[3]) == 0.0)


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("shape_functions", [False, True])
def test_operator_yukawa_blocks_at_kappa_zero_are_the_laplace_blocks(shape_functions, graded,
                                                                    monkeypatch):
    """At kappa = 0 the Yukawa kernels evaluate to the Laplace ones bit for bit,
    exp(-0 r) = 1 and (0 r + 1) K = K, near pairs and graded far pairs
    included: the kappa = 0 system derives its bottom block row from this."""
    monkeypatch.setattr(kn, "grades", lambda mesh: graded)
    mesh = _graded_mesh()
    colloc = mesh.vertices if shape_functions else mesh.centroids
    assert len(kn.near_pairs(colloc, mesh)[0]) > len(colloc)  # near pairs besides the own panels
    vl, kl, vy, ky = _graded_operator(mesh, 0.0, shape_functions)
    assert np.array_equal(vy, vl) and np.array_equal(ky, kl)
