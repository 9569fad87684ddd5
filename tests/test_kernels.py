import numpy as np
import pytest

import pbadapt.kernels as kn
from pbadapt.errors import SingularityError, UsageError
from pbadapt.quadrature import CENTROID, GAUSS7, subdivided

from conftest import make_tetrahedron

FOUR_PI = 4.0 * np.pi


# -- pointwise kernels --------------------------------------------------------


def test_g_laplace_values():
    assert kn.g_laplace([0, 0, 0], [1, 0, 0]) == pytest.approx(1.0 / FOUR_PI)
    assert kn.g_laplace([0, 0, 0], [0, 2, 0]) == pytest.approx(1.0 / (8.0 * np.pi))


def test_g_laplace_scaling_homogeneity():
    r = np.array([0.3, -0.2, 0.9])
    rp = np.array([-1.0, 0.4, 0.2])
    for lam in (2.0, 7.5):
        assert kn.g_laplace(lam * r, lam * rp) == pytest.approx(kn.g_laplace(r, rp) / lam)


def test_g_symmetry():
    r = np.array([0.3, -0.2, 0.9])
    rp = np.array([-1.0, 0.4, 0.2])
    assert kn.g_laplace(r, rp) == kn.g_laplace(rp, r)
    assert kn.g_yukawa(r, rp, 0.4) == kn.g_yukawa(rp, r, 0.4)


def test_coincident_points_raise():
    with pytest.raises(SingularityError):
        kn.g_laplace([1, 2, 3], [1, 2, 3])
    with pytest.raises(SingularityError):
        kn.g_yukawa([1, 2, 3], [1, 2, 3], 0.1)


def test_g_yukawa_limits_and_value():
    r = np.array([0.5, 0.1, -0.3])
    rp = np.array([1.5, -0.4, 0.6])
    assert kn.g_yukawa(r, rp, 0.0) == pytest.approx(kn.g_laplace(r, rp), rel=1e-15)
    # |r - rp| = 2, kappa = 0.125
    val = kn.g_yukawa([0, 0, 0], [2, 0, 0], 0.125)
    assert val == pytest.approx(np.exp(-0.25) / (8.0 * np.pi), rel=1e-14)
    # screened kernel never exceeds the bare one
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert kn.g_yukawa(a, b, 0.7) <= kn.g_laplace(a, b)


def test_dgdn_orthogonal_direction_is_zero():
    n = np.array([0.0, 0.0, 1.0])
    assert kn.dgdn_laplace([1, 0, 0], [0, 0, 0], n) == pytest.approx(0.0, abs=1e-16)
    assert kn.dgdn_yukawa([0, 1, 0], [0, 0, 0], n, 0.3) == pytest.approx(0.0, abs=1e-16)


@pytest.mark.parametrize("kappa", [0.0, 0.125, 0.8])
def test_dgdn_matches_finite_difference(kappa):
    rng = np.random.default_rng(1)
    r = np.array([0.9, 0.1, 0.4])
    for _ in range(5):
        rp = r + _unit(rng.normal(size=3))  # |r - rp| = 1
        n = _unit(rng.normal(size=3))
        h = 1e-5
        if kappa == 0.0:
            fd = (kn.g_laplace(r, rp + h * n) - kn.g_laplace(r, rp - h * n)) / (2 * h)
            got = kn.dgdn_laplace(r, rp, n)
        else:
            fd = (kn.g_yukawa(r, rp + h * n, kappa) - kn.g_yukawa(r, rp - h * n, kappa)) / (2 * h)
            got = kn.dgdn_yukawa(r, rp, n, kappa)
        assert got == pytest.approx(fd, rel=1e-6)


def _unit(v):
    return v / np.linalg.norm(v)


# -- panel quadrature ---------------------------------------------------------


TRI = np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [0.2, 0.9, 0.0]])


def test_panel_integral_constant_kernel_gives_area():
    area = 0.5 * np.linalg.norm(np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0]))
    val = kn.panel_integral(lambda t, x: np.ones(len(x)), np.array([5.0, 5, 5]), TRI, GAUSS7)
    assert val == pytest.approx(area, rel=1e-14)


def test_panel_integral_far_field_matches_centroid_value():
    target = np.array([60.0, 40.0, 30.0])
    area = 0.5 * np.linalg.norm(np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0]))
    kernel = lambda t, x: 1.0 / (FOUR_PI * np.linalg.norm(x - t, axis=1))  # noqa: E731
    val = kn.panel_integral(kernel, target, TRI, GAUSS7)
    approx = area * kn.g_laplace(target, TRI.mean(axis=0))
    d = np.linalg.norm(TRI.mean(axis=0) - target)
    diam = 1.2
    assert abs(val - approx) / abs(val) < (diam / d) ** 2


def test_panel_integral_split_consistency():
    target = np.array([0.7, 0.8, 1.5])
    kernel = lambda t, x: 1.0 / (FOUR_PI * np.linalg.norm(x - t, axis=1))  # noqa: E731
    whole = kn.panel_integral(kernel, target, TRI, GAUSS7)
    a, b, c = TRI
    ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
    parts = sum(
        kn.panel_integral(kernel, target, np.array(sub), GAUSS7)
        for sub in [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    )
    reference = kn.panel_integral(kernel, target, TRI, subdivided(GAUSS7, 3))
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


def test_singular_self_integral_scaling():
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(3) / 2, 0.0]])
    v1 = kn.singular_self_integral(tri, tri.mean(axis=0))
    v2 = kn.singular_self_integral(2 * tri, 2 * tri.mean(axis=0))
    assert v2 == pytest.approx(2 * v1, rel=1e-13)


def test_singular_self_integral_against_brute_force():
    for tri in (
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(3) / 2, 0.0]]),
        np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.3, 0.9, 0.0]]),
    ):
        target = tri.mean(axis=0)
        mine = kn.singular_self_integral(tri, target)
        brute = brute_single_layer(tri, target)
        assert abs(mine - brute) / abs(brute) < 1e-6


def test_corner_single_layer_against_brute_force():
    mesh = make_tetrahedron()
    vals = kn.corner_single_layer_linear(mesh, np.array([3]), np.array([0]))[0]
    panel = mesh.vertices[mesh.triangles[3]]
    brute = brute_single_layer(panel, panel[0], psi_corner=0)
    assert np.all(np.abs(vals - brute) / np.abs(brute) < 5e-6)


def test_singular_self_integral_rejects_off_panel_target():
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(UsageError):
        kn.singular_self_integral(tri, np.array([0.3, 0.3, 0.5]))
    with pytest.raises(UsageError):
        kn.singular_self_integral(tri, np.array([2.0, 2.0, 0.0]))


def test_flat_panel_double_layer_self_is_zero():
    # target in the panel plane: (r - rp) is orthogonal to the normal
    n = np.array([0.0, 0.0, 1.0])
    target = TRI.mean(axis=0) + np.array([0.31, 0.07, 0.0])
    kernel = lambda t, x: kn.dgdn_laplace(t, x, n)  # noqa: E731
    assert kn.panel_integral(kernel, target, TRI, GAUSS7) == pytest.approx(0.0, abs=1e-15)


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
def test_pair_entries_match_per_pair_mapping_bitwise(shape_functions):
    import pbadapt as pa

    mesh = pa.icosphere(1.0, 1)
    ti, pj = kn.near_pairs(mesh.centroids, mesh)
    off = ti != pj
    points, panels = mesh.centroids[ti[off]], pj[off]
    want = _pair_entries_mapped_per_pair(points, mesh, panels, kn.NEAR_RULE, 0.125, shape_functions)
    for threads in (1, 2):
        got = kn.kernel_pair_entries(
            points, mesh, panels, kn.NEAR_RULE, 0.125, shape_functions=shape_functions,
            threads=threads,
        )
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_run_parallel_calls_each_item_once():
    import sys

    seen = np.zeros(500, dtype=int)

    def bump(i):
        seen[i] += 1  # one item per call, so no two workers touch one slot

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (None, 1, 2, 64):
            kn.run_parallel(bump, range(len(seen)), threads)
    finally:
        sys.setswitchinterval(interval)
    assert np.all(seen == 4)


def test_run_parallel_raises_worker_errors_and_rejects_zero_threads():
    def fail(i):
        if i == 7:
            raise SingularityError("boom")

    with pytest.raises(SingularityError):
        kn.run_parallel(fail, range(20), threads=2)
    with pytest.raises(UsageError):
        kn.run_parallel(fail, range(20), threads=0)


# -- Gauss identity -----------------------------------------------------------


def test_gauss_identity_interior_targets():
    import pbadapt as pa

    mesh = pa.icosphere(1.0, 3)
    corners = mesh.vertices[mesh.triangles]
    for target in (np.zeros(3), np.array([0.3, -0.2, 0.4])):
        total = sum(
            kn.panel_integral(
                lambda t, x, n=mesh.normals[i]: kn.dgdn_laplace(t, x, n),
                target,
                corners[i],
                CENTROID,
            )
            for i in range(mesh.n_panels)
        )
        assert abs(total - (-1.0)) < 1e-2
