import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import pbadapt as pa
import pbadapt.grid as grid_mod
import pbadapt.mesh as mesh_mod
import pbadapt.sweep as sweep
from pbadapt.errors import MeshInvariantError, ParseError, UsageError
from pbadapt.mesh import (
    MarkedSet,
    close_marking,
    mark_elements,
    points_inside,
    refine_all,
    refine_conforming,
    refine_flat,
    winding_number,
)

from conftest import BUMPS, bumpy_sphere, imbalanced_sphere_start, make_tetrahedron
from pointwise import mean_edge_length


# -- construction and invariants -------------------------------------------


def test_icosphere_counts():
    m = pa.icosphere(1.0, 0)
    assert m.n_vertices == 12 and m.n_panels == 20
    m3 = pa.icosphere(1.0, 3)
    assert m3.n_panels == 1280
    norms = np.linalg.norm(m3.vertices, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_icosphere_area_below_sphere_area():
    m = pa.icosphere(2.0, 1)
    assert m.n_panels == 80
    assert m.areas.sum() < 16.0 * np.pi
    # area approaches the sphere from below under subdivision
    m2 = pa.icosphere(2.0, 3)
    assert m.areas.sum() < m2.areas.sum() < 16.0 * np.pi


def test_icosphere_oriented_outward():
    m = pa.icosphere(1.5, 1)
    assert m.signed_volume > 0
    outward = np.einsum("ij,ij->i", m.normals, m.centroids)
    assert np.all(outward > 0)


def test_open_surface_rejected():
    tet = make_tetrahedron()
    with pytest.raises(MeshInvariantError):
        pa.SurfaceMesh(tet.vertices, tet.triangles[:3])


def test_flipped_triangle_rejected():
    tet = make_tetrahedron()
    tris = tet.triangles.copy()
    tris[0] = tris[0][::-1]
    with pytest.raises(MeshInvariantError, match="inconsistent triangle orientation"):
        pa.SurfaceMesh(tet.vertices, tris)


def test_duplicate_vertices_rejected():
    tet = make_tetrahedron()
    verts = np.vstack([tet.vertices, tet.vertices[0] + 1e-12])
    tris = tet.triangles.copy()
    with pytest.raises(MeshInvariantError):
        pa.SurfaceMesh(verts, np.vstack([tris, [[4, 2, 1]]]))


def test_duplicate_check_reports_the_lowest_pair():
    # duplicate pairs (3, 70), (3, 80), (70, 80) and (5, 60); (3, 70) is lowest
    ico = pa.icosphere(1.0, 2)
    verts = ico.vertices.copy()
    verts[80], verts[70], verts[60] = verts[3], verts[3] + [0.0, 1e-12, 0.0], verts[5]
    with pytest.raises(MeshInvariantError, match=r"^duplicate vertices 3 and 70$"):
        pa.SurfaceMesh(verts, ico.triangles)


def test_unused_vertex_rejected():
    tet = make_tetrahedron()
    verts = np.vstack([tet.vertices, [[2.0, 2.0, 2.0]], tet.vertices + 5.0])
    tris = np.vstack([tet.triangles, tet.triangles + 5])
    with pytest.raises(MeshInvariantError, match="vertex 4 is used by no triangle"):
        pa.SurfaceMesh(verts, tris)


def test_edge_shared_by_four_triangles_rejected():
    # two tetrahedra glued along the edge (0, 1); the second is the first
    # turned half a turn about that edge
    tet = make_tetrahedron()
    verts = np.vstack([tet.vertices, [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]])
    tris = np.vstack([tet.triangles, [[0, 4, 1], [0, 1, 5], [0, 5, 4], [1, 4, 5]]])
    with pytest.raises(MeshInvariantError, match="closed 2-manifold"):
        pa.SurfaceMesh(verts, tris)


def test_inward_mesh_rejected():
    tet = make_tetrahedron()
    with pytest.raises(MeshInvariantError):
        pa.SurfaceMesh(tet.vertices, tet.triangles[:, ::-1])


def test_negative_parent_map_entry_rejected():
    # a -1 would index the last coarse panel, and np.bincount rejects it
    # without naming the mesh
    fine = refine_all(pa.icosphere(1.0, 1))
    parents = fine.parent_map.copy()
    parents[parents == 0] = -1
    with pytest.raises(MeshInvariantError, match="negative parent_map entry"):
        pa.SurfaceMesh(fine.vertices, fine.triangles, parents)


def icosphere_reference(radius, level):
    """Per-edge midpoint loop with one-vector norms, the construction's reference."""
    from pbadapt.mesh import _ICO_FACES, _ICO_VERTS

    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1)[:, None]
    faces = _ICO_FACES
    for _ in range(level):
        verts_list = list(verts)
        midpoint = {}

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                m = verts_list[a] + verts_list[b]
                midpoint[key] = len(verts_list)
                verts_list.append(m / np.linalg.norm(m))
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        verts = np.array(verts_list)
        faces = np.array(new_faces, dtype=np.int64)
    return verts * radius, faces


@pytest.mark.parametrize("level", range(7))
def test_icosphere_matches_midpoint_loop(level):
    verts, faces = icosphere_reference(1.7, level)
    m = pa.icosphere(1.7, level)
    assert np.array_equal(m.vertices, verts)
    assert np.array_equal(m.triangles, faces)


def winding_reference(mesh, points):
    """Solid-angle sum one point at a time."""
    p = mesh.vertices[mesh.triangles]
    out = np.empty(len(points))
    for i, x in enumerate(points):
        a, b, c = p[:, 0] - x, p[:, 1] - x, p[:, 2] - x
        la, lb, lc = (np.linalg.norm(v, axis=1) for v in (a, b, c))
        num = np.einsum("ij,ij->i", a, np.cross(b, c))
        den = (
            la * lb * lc
            + np.einsum("ij,ij->i", a, b) * lc
            + np.einsum("ij,ij->i", b, c) * la
            + np.einsum("ij,ij->i", c, a) * lb
        )
        out[i] = np.arctan2(num, den).sum() / (2.0 * np.pi)
    return out


def test_winding_number_matches_per_point_loop(monkeypatch):
    m = pa.icosphere(1.0, 2)
    rng = np.random.default_rng(3)
    charges = rng.standard_normal((1000, 3))
    charges *= 0.7 * rng.uniform(0, 1, 1000)[:, None] ** (1 / 3) / np.linalg.norm(charges, axis=1)[:, None]
    shell = rng.standard_normal((1000, 3))
    shell *= rng.uniform(0.9, 1.1, 1000)[:, None] / np.linalg.norm(shell, axis=1)[:, None]
    assert sweep.CHUNK_PAIRS // m.n_panels < 1000 / 2  # many chunks
    for points in (charges, shell):
        want = winding_reference(m, points)
        got = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
            got.append(winding_number(m, points))
            assert np.abs(got[-1] - want).max() <= 1e-14
            assert np.array_equal(got[-1], got[0])
            assert np.array_equal(points_inside(m, points), want > 0.5)


def test_inside_masks_near_the_surface(monkeypatch, uneven_mesh):
    m = uneven_mesh
    radial = m.vertices / np.linalg.norm(m.vertices, axis=1)[:, None]
    moves, scales = (1e-3, -1e-3, 1e-9, -1e-9), (1e-12, -1e-12)
    probes = [m.vertices + s * radial for s in moves] + [m.centroids * (1.0 + s) for s in scales]
    points = np.concatenate(probes)
    inward = np.concatenate([np.full(len(p), s < 0) for p, s in zip(probes, moves + scales)])
    want = winding_reference(m, points)
    assert np.array_equal(want > 0.5, inward)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
        assert np.abs(winding_number(m, points) - want).max() <= 1e-14
        assert np.array_equal(points_inside(m, points), want > 0.5)


def test_winding_number_inside_outside():
    m = pa.icosphere(1.0, 2)
    w = winding_number(m, [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [2.0, 0.0, 0.0]])
    assert w[0] == pytest.approx(1.0, abs=1e-12)
    assert w[1] == pytest.approx(1.0, abs=1e-12)
    assert w[2] == pytest.approx(0.0, abs=1e-12)
    assert list(points_inside(m, [[0, 0, 0.9], [0, 0, 1.1]])) == [True, False]


def crossing_masks(m, points):
    """(points_inside mask, unclear mask of the grid) after checking both
    against ``winding_number(...) > 0.5``; the grid's clear answers are whole
    crossing counts that agree with it."""
    points = np.asarray(points, dtype=float)
    want = winding_number(m, points) > 0.5
    crossings, unclear = m._crossing_grid.count(points)
    assert np.array_equal(crossings, np.round(crossings))
    assert np.array_equal((crossings > 0.5)[~unclear], want[~unclear])
    got = points_inside(m, points)
    assert np.array_equal(got, want)
    return got, unclear


def ball_and_shell(rng, n, radius=1.0):
    """n points uniform in a ball of 1.3 ``radius`` and n in a shell 0.9-1.1 ``radius``."""
    ball = rng.standard_normal((n, 3))
    ball *= 1.3 * radius * rng.uniform(0, 1, n)[:, None] ** (1 / 3) / np.linalg.norm(ball, axis=1)[:, None]
    shell = rng.standard_normal((n, 3))
    shell *= radius * rng.uniform(0.9, 1.1, n)[:, None] / np.linalg.norm(shell, axis=1)[:, None]
    return np.concatenate([ball, shell])


@pytest.mark.parametrize("which", ["sphere", "uneven"])
def test_ray_crossings_match_the_winding_number(which, uneven_mesh):
    m = pa.icosphere(1.0, 2) if which == "sphere" else uneven_mesh
    points = ball_and_shell(np.random.default_rng(5), 2000)
    assert len(points) * m.n_panels > sweep.CHUNK_PAIRS  # the grid decides
    got, unclear = crossing_masks(m, points)
    assert not unclear.any()
    assert 0 < got.sum() < len(points)


def test_ray_crossings_do_not_depend_on_the_chunk(monkeypatch):
    """Chunks of 7 candidate pairs, where one point's candidates outnumber a
    chunk, give the counts of one chunk."""
    m = pa.icosphere(1.0, 3)
    points = ball_and_shell(np.random.default_rng(9), 1000)
    whole = m._crossing_grid.count(points)
    monkeypatch.setattr(grid_mod, "CHUNK", 7)
    cut = m._crossing_grid.count(points)
    assert np.array_equal(whole[0], cut[0]) and np.array_equal(whole[1], cut[1])


@pytest.mark.parametrize("which", ["sphere", "uneven"])
def test_points_on_the_surface_take_the_winding_number(which, uneven_mesh):
    m = pa.icosphere(1.0, 2) if which == "sphere" else uneven_mesh
    midpoints = 0.5 * (m.corners + np.roll(m.corners, -1, axis=1)).reshape(-1, 3)
    for points in (m.vertices, midpoints, m.centroids):
        _, unclear = crossing_masks(m, points)
        assert unclear.all()


def test_ray_crossings_on_a_non_convex_surface():
    m = bumpy_sphere(4, BUMPS)
    assert m.signed_volume > 0
    points = ball_and_shell(np.random.default_rng(6), 1500, radius=1.2)
    deep = np.array([[0.0, 0.0, -0.5]])  # under the dent at -z, whose surface is at 0.6
    got, unclear = crossing_masks(m, np.concatenate([points, deep]))
    assert not unclear.any() and got[-1]
    crossings, _ = m._crossing_grid.count(points)
    assert crossings.min() >= 0 and crossings.max() == 1


def box_mesh(n):
    """Closed, outward-oriented surface of the cube [-1, 1]^3, each face an
    n x n grid of squares split into two triangles; faces parallel to the axes."""
    t = np.linspace(-1.0, 1.0, n + 1)
    verts, tris, index = [], [], {}

    def vertex(p):
        key = tuple(np.round(p, 12))
        if key not in index:
            index[key] = len(verts)
            verts.append(p)
        return index[key]

    for axis in range(3):
        for side in (-1.0, 1.0):
            u, v = (axis + 1) % 3, (axis + 2) % 3
            for i in range(n):
                for j in range(n):
                    quad = []
                    for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        p = np.zeros(3)
                        p[axis], p[u], p[v] = side, t[i + di], t[j + dj]
                        quad.append(vertex(p))
                    a, b, c, d = quad if side > 0 else quad[::-1]
                    tris += [[a, b, c], [a, c, d]]
    return pa.SurfaceMesh(np.array(verts), np.array(tris))


def test_ray_crossings_on_an_axis_aligned_box():
    m = box_mesh(3)
    rng = np.random.default_rng(7)
    points = rng.uniform(-1.4, 1.4, (4000, 3))
    # on the grid of face lines, where axis-aligned rays would meet edges
    grid = np.stack(np.meshgrid(*[np.linspace(-1.0, 1.0, 7)] * 3), axis=-1).reshape(-1, 3) * 0.999
    got, unclear = crossing_masks(m, np.concatenate([points, grid]))
    assert not unclear.any()
    inside = np.all(np.abs(points) < 1.0, axis=1)
    assert np.array_equal(got[: len(points)], inside)


def rotation(seed):
    if seed == 0:
        return np.eye(3)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_many_charges_need_no_winding_number(seed, background):
    """1,000 charges uniform in a ball of 0.7, rotated with the forward
    level-2 sphere and its conforming refinement, the adjoint mesh: every
    charge is decided by its ray."""
    rng = np.random.default_rng(0)
    direction = rng.standard_normal((1000, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    charges = direction * (0.7 * rng.random(1000) ** (1.0 / 3.0))[:, None]
    rot = rotation(seed)
    forward = pa.SurfaceMesh(pa.icosphere(1.0, 2).vertices @ rot.T, pa.icosphere(1.0, 2).triangles)
    moved = pa.SurfaceMesh(background.vertices @ rot.T, background.triangles)
    adjoint = mesh_mod.refine(forward, range(forward.n_panels), moved)
    for m in (forward, adjoint):
        got, unclear = crossing_masks(m, charges @ rot.T)
        assert got.all() and not unclear.any()


# -- MSMS I/O ----------------------------------------------------------------


def write_msms_tet(tmp_path, flip=False):
    tet = make_tetrahedron()
    tris = tet.triangles[:, ::-1] if flip else tet.triangles
    vert = tmp_path / "m.vert"
    face = tmp_path / "m.face"
    lines = ["# msms vertices", "#", "4 1 1.0 1.5"]
    for v in tet.vertices:
        lines.append(f"{v[0]:.3f} {v[1]:.3f} {v[2]:.3f} 0.0 0.0 1.0 0 1 2")
    vert.write_text("\n".join(lines) + "\n")
    lines = ["# msms faces", "#", "4 1"]
    for t in tris:
        lines.append(f"{t[0]+1} {t[1]+1} {t[2]+1} 1 1")
    face.write_text("\n".join(lines) + "\n")
    return vert, face


def test_load_msms_tetrahedron(tmp_path):
    vert, face = write_msms_tet(tmp_path)
    m = pa.load_msms(vert, face)
    assert m.n_panels == 4 and m.n_vertices == 4
    assert m.signed_volume == pytest.approx(1.0 / 6.0)


def test_load_msms_zero_index_rejected(tmp_path):
    vert, face = write_msms_tet(tmp_path)
    face.write_text("# f\n#\n4 1\n0 1 2\n")
    with pytest.raises(ParseError):
        pa.load_msms(vert, face)


def test_load_msms_repairs_inverted_orientation(tmp_path):
    vert, face = write_msms_tet(tmp_path, flip=True)
    m = pa.load_msms(vert, face)
    # signed-volume oracle: sum of det/6 over triangles, computed directly
    p = m.vertices[m.triangles]
    vol = np.einsum("ij,ij->", p[:, 0], np.cross(p[:, 1], p[:, 2])) / 6.0
    assert vol > 0


def test_load_msms_bad_line_reports_number(tmp_path):
    vert, face = write_msms_tet(tmp_path)
    body = vert.read_text().splitlines()
    body[4] = "0.0 bad 0.0 0.0 0.0 1.0"
    vert.write_text("\n".join(body) + "\n")
    with pytest.raises(ParseError) as err:
        pa.load_msms(vert, face)
    assert err.value.line_no == 5
    # a coordinate that would overflow the orientation test's products
    for value in ("inf", "1e155"):
        body[4] = f"0.0 {value} 0.0 0.0 0.0 1.0"
        vert.write_text("\n".join(body) + "\n")
        with pytest.raises(ParseError, match="vertex coordinate beyond 1e\\+30") as err:
            pa.load_msms(vert, face)
        assert err.value.line_no == 5


def test_load_msms_short_face_row_reports_number(tmp_path):
    vert, face = write_msms_tet(tmp_path)
    body = face.read_text().splitlines()
    body[5] = "1 2"
    face.write_text("\n".join(body) + "\n")
    with pytest.raises(ParseError, match="expected >= 3 fields, got 2") as err:
        pa.load_msms(vert, face)
    assert err.value.line_no == 6


def test_load_msms_skips_comment_after_counts_line(tmp_path):
    vert, face = write_msms_tet(tmp_path)
    want = pa.load_msms(vert, face)
    for path in (vert, face):
        body = path.read_text().splitlines()
        body.insert(3, "# a comment between the counts line and the rows")
        path.write_text("\n".join(body) + "\n")
    got = pa.load_msms(vert, face)
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.triangles, want.triangles)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e155], ids=["nan", "inf", "huge"])
def test_non_finite_vertex_rejected(value):
    tet = make_tetrahedron()
    verts = tet.vertices.copy()
    verts[2, 1] = value
    with pytest.raises(MeshInvariantError, match="non-finite"):
        pa.SurfaceMesh(verts, tet.triangles)


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, 1e300, 1e-300],
                         ids=["nan", "inf", "zero", "1e300", "1e-300"])
def test_icosphere_rejects_bad_radius(radius):
    with pytest.raises(ValueError, match="radius"):
        pa.icosphere(radius, 1)


@pytest.mark.parametrize("level", [-1, pa.mesh.MAX_LEVEL + 1])
def test_icosphere_rejects_level_out_of_bounds(level):
    with pytest.raises(ValueError, match=rf"level must be in \[0, {pa.mesh.MAX_LEVEL}\]"):
        pa.icosphere(1.0, level)


def test_off_and_panel_csv_roundtrip(tmp_path):
    m = pa.icosphere(1.0, 1)
    off = tmp_path / "m.off"
    pa.save_off(m, off)
    lines = off.read_text().splitlines()
    assert lines[0] == "OFF"
    nv, nt, _ = (int(x) for x in lines[1].split())
    assert (nv, nt) == (m.n_vertices, m.n_panels)
    verts = np.array([[float(x) for x in ln.split()] for ln in lines[2 : 2 + nv]])
    assert np.array_equal(verts, m.vertices)

    csv = tmp_path / "vals.csv"
    vals = np.arange(m.n_panels, dtype=float) * np.pi
    pa.save_panel_values(m, vals, csv)
    rows = csv.read_text().splitlines()
    assert rows[0].split(",")[0] == "panel_index"
    assert len(rows) == m.n_panels + 1
    back = np.array([float(r.split(",")[5]) for r in rows[1:]])
    assert np.array_equal(back, vals)


def test_writers_match_per_row_formatting(tmp_path):
    m = refine_flat(pa.icosphere(1.3, 1), close_marking(pa.icosphere(1.3, 1), [0, 7]))
    m = pa.SurfaceMesh(m.vertices @ np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0],
                       m.triangles)
    vals = np.random.default_rng(2).standard_normal(m.n_panels) * 1e-7
    vals[:3] = [0.0, -0.0, 1e300]
    pa.save_off(m, tmp_path / "m.off")
    pa.save_panel_values(m, vals, tmp_path / "v.csv")
    off = f"OFF\n{m.n_vertices} {m.n_panels} 0\n"
    for x, y, z in m.vertices:
        off += f"{float(x)!r} {float(y)!r} {float(z)!r}\n"
    for a, b, c in m.triangles:
        off += f"3 {a} {b} {c}\n"
    csv = "panel_index,cx,cy,cz,area,value\n"
    for i in range(m.n_panels):
        cx, cy, cz = (float(v) for v in m.centroids[i])
        csv += f"{i},{cx!r},{cy!r},{cz!r},{float(m.areas[i])!r},{float(vals[i])!r}\n"
    assert (tmp_path / "m.off").read_bytes() == off.encode()
    assert (tmp_path / "v.csv").read_bytes() == csv.encode()


# -- marking -----------------------------------------------------------------


def test_mark_elements_examples():
    assert mark_elements([5, 3, 1, 1], 0.10) == {0}
    assert mark_elements([1] * 10, 0.10) == {0}
    assert mark_elements([1, 2, 3, 4], 0.50) == {3, 2}


def test_mark_elements_rejects_bad_input():
    with pytest.raises(UsageError):
        mark_elements([1.0, np.nan], 0.1)
    with pytest.raises(UsageError):
        mark_elements([1.0, -1.0], 0.1)
    with pytest.raises(UsageError):
        mark_elements([1.0], 0.0)
    assert mark_elements([0.0, 0.0], 0.5) == set()


@settings(max_examples=200, deadline=None)
@given(
    errors=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=40),
    fractions=st.tuples(
        st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=1e-6, max_value=1.0)
    ),
)
def test_mark_elements_monotone_in_fraction(errors, fractions):
    lo, hi = sorted(fractions)
    a = mark_elements(errors, lo)
    b = mark_elements(errors, hi)
    assert a <= b
    if sum(errors) > 0:
        assert len(a) >= 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False), min_size=1, max_size=30))
def test_mark_elements_cumulative_rule(errors):
    frac = 0.3
    marked = mark_elements(errors, frac)
    total = sum(errors)
    if total == 0:
        assert marked == set()
        return
    got = sum(errors[i] for i in marked)
    assert got >= frac * total * (1 - 1e-9)
    # dropping the smallest marked panel breaks the threshold (minimality)
    if len(marked) > 1:
        smallest = min(marked, key=lambda i: (errors[i], -i))
        assert got - errors[smallest] < frac * total * (1 + 1e-9)


# -- closure -----------------------------------------------------------------


@pytest.fixture(scope="module")
def uneven_mesh(background):
    from pbadapt.oracle import offcenter_benchmark

    return imbalanced_sphere_start(offcenter_benchmark(), background)


def neighbors_reference(mesh):
    """Triangle across each local edge, looked up by its reversed directed edge."""
    tris = mesh.triangles.tolist()
    owner = {(t[k], t[(k + 1) % 3]): i for i, t in enumerate(tris) for k in range(3)}
    return np.array([[owner[(t[(k + 1) % 3], t[k])] for k in range(3)] for t in tris])


def closure_reference(nbr, marked):
    """Least fixpoint of the promotion rule by set iteration, then the bisections."""
    refine4 = set(marked)
    candidates = set(range(len(nbr))) - refine4
    while True:
        promoted = [t for t in candidates if sum(int(nbr[t, k]) in refine4 for k in range(3)) >= 2]
        if not promoted:
            break
        refine4.update(promoted)
        candidates.difference_update(promoted)
    bisect = set()
    for t in candidates:
        touching = [k for k in range(3) if int(nbr[t, k]) in refine4]
        if len(touching) == 1:
            bisect.add((t, touching[0]))
    return refine4, bisect


def test_neighbors_match_directed_edge_lookup(uneven_mesh):
    for mesh in (make_tetrahedron(), pa.icosphere(1.0, 2), uneven_mesh):
        assert np.array_equal(mesh.neighbors, neighbors_reference(mesh))


def test_close_marking_is_least_fixpoint(uneven_mesh):
    nbr = neighbors_reference(uneven_mesh)
    rng = np.random.default_rng(5)
    for size in (1, 3, 10, 40, 150, 400):
        marked = rng.choice(uneven_mesh.n_panels, size=size, replace=False).tolist()
        refine4, bisect = closure_reference(nbr, marked)
        plan = close_marking(uneven_mesh, marked)
        assert plan.refine4 == refine4
        assert plan.bisect == bisect


def children_reference(mesh, plan):
    """Child triangles, parents and midpoints by a loop over the panels."""
    n = mesh.n_vertices
    bisect_by_tri = dict(plan.bisect)
    index = {}  # sorted split edge -> new vertex, in order of first use
    new_tris, parents = [], []
    for t, abc in enumerate(mesh.triangles.tolist()):
        if t in plan.refine4:
            a, b, c = abc
            ab, bc, ca = (
                index.setdefault((min(p, q), max(p, q)), n + len(index))
                for p, q in ((a, b), (b, c), (c, a))
            )
            children = [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        elif t in bisect_by_tri:
            k = bisect_by_tri[t]
            p, q, o = abc[k:] + abc[:k]
            m = index.setdefault((min(p, q), max(p, q)), n + len(index))
            children = [[p, m, o], [m, q, o]]
        else:
            children = [abc]
        new_tris += children
        parents += [t] * len(children)
    ends = np.array(list(index), dtype=np.int64).reshape(-1, 2)
    midpoints = 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])
    return np.array(new_tris), np.array(parents), midpoints


def test_refine_flat_matches_children_loop(uneven_mesh):
    rng = np.random.default_rng(11)
    for size in (1, 7, 60, 300, uneven_mesh.n_panels):
        plan = close_marking(uneven_mesh, rng.choice(uneven_mesh.n_panels, size, replace=False))
        tris, parents, midpoints = children_reference(uneven_mesh, plan)
        fine = refine_flat(uneven_mesh, plan)
        assert np.array_equal(fine.triangles, tris)
        assert np.array_equal(fine.parent_map, parents)
        assert np.array_equal(fine.vertices, np.vstack([uneven_mesh.vertices, midpoints]))


def test_close_marking_one_edge_rule():
    tet = make_tetrahedron()
    plan = close_marking(tet, {0})
    # every other face of a tetrahedron shares exactly one edge with face 0
    assert plan.refine4 == {0}
    assert {t for t, _ in plan.bisect} == {1, 2, 3}


def test_close_marking_all_marked():
    m = pa.icosphere(1.0, 1)
    plan = close_marking(m, range(m.n_panels))
    assert plan.refine4 == set(range(m.n_panels))
    assert plan.bisect == frozenset()


def test_close_marking_promotes_two_edge_neighbors():
    m = pa.icosphere(1.0, 1)
    nbr = m.neighbors
    target = 7
    plan = close_marking(m, set(int(x) for x in nbr[target]))
    assert target in plan.refine4  # surrounded on three sides


def test_close_marking_promotion_cascades_to_fresh_neighbor():
    # a triangle bordered by two marked ones is promoted to a 4-split, which
    # in turn forces a bisection on its remaining untouched neighbor
    m = pa.icosphere(1.0, 1)
    nbr = m.neighbors
    middle = 11
    marked = {int(nbr[middle, 0]), int(nbr[middle, 1])}
    plan = close_marking(m, marked)
    assert middle in plan.refine4
    fresh = int(nbr[middle, 2])
    if fresh not in plan.refine4:
        touching = [k for k in range(3) if int(nbr[fresh, k]) in plan.refine4]
        if len(touching) == 1:
            assert (fresh, touching[0]) in plan.bisect


def test_close_marking_idempotent():
    m = pa.icosphere(1.0, 1)
    plan = close_marking(m, {0, 5, 11, 40})
    again = close_marking(m, plan.refine4)
    assert again == plan


def test_close_marking_postconditions_random_sets():
    m = pa.icosphere(1.0, 1)
    rng = np.random.default_rng(7)
    nbr = m.neighbors
    for _ in range(10):
        marked = set(rng.choice(m.n_panels, size=rng.integers(1, 30), replace=False).tolist())
        plan = close_marking(m, marked)
        assert marked <= plan.refine4
        bis = {t: k for t, k in plan.bisect}
        for t in range(m.n_panels):
            if t in plan.refine4:
                continue
            touching = [k for k in range(3) if int(nbr[t, k]) in plan.refine4]
            assert len(touching) <= 1
            if len(touching) == 1:
                assert bis[t] == touching[0]
            else:
                assert t not in bis


# -- refinement ---------------------------------------------------------------


def test_refine_flat_uniform_preserves_area():
    m = pa.icosphere(1.0, 0)
    fine = refine_flat(m, close_marking(m, range(20)))
    assert fine.n_panels == 80
    assert fine.areas.sum() == pytest.approx(m.areas.sum(), rel=1e-13)
    assert fine.signed_volume == pytest.approx(m.signed_volume, rel=1e-13)


def test_refine_flat_counts_with_bisection():
    tet = make_tetrahedron()
    fine = refine_flat(tet, close_marking(tet, {0}))
    assert fine.n_panels == 4 + 3 * 2


def test_refine_flat_children_tile_parent():
    m = pa.icosphere(1.0, 1)
    plan = close_marking(m, {3, 17})
    fine = refine_flat(m, plan)
    child_area = np.bincount(fine.parent_map, weights=fine.areas, minlength=m.n_panels)
    assert np.allclose(child_area, m.areas, rtol=1e-13)
    for t in plan.refine4:
        kids = np.flatnonzero(fine.parent_map == t)
        assert len(kids) == 4
        assert np.allclose(fine.areas[kids], m.areas[t] / 4.0, rtol=1e-12)


def test_refine_flat_rejects_non_closed_plan():
    m = pa.icosphere(1.0, 1)
    with pytest.raises(MeshInvariantError):
        refine_flat(m, MarkedSet(frozenset({0}), frozenset()))


@pytest.mark.parametrize(
    "plan",
    [MarkedSet(frozenset({-1}), frozenset()), MarkedSet(frozenset(), frozenset({(500, 0)}))],
    ids=["negative-split", "bisect-beyond-mesh"],
)
def test_refine_rejects_plan_naming_unknown_triangle(plan, background):
    m = pa.icosphere(1.0, 1)
    with pytest.raises(MeshInvariantError, match="unknown triangle"):
        refine_flat(m, plan)
    with pytest.raises(MeshInvariantError, match="unknown triangle"):
        refine_conforming(m, plan, background)


def test_parent_map_composes_over_levels():
    m = pa.icosphere(1.0, 0)
    f1 = refine_all(m)
    f2 = refine_all(f1)
    composed = f1.parent_map[f2.parent_map]
    area2 = np.bincount(composed, weights=f2.areas, minlength=m.n_panels)
    assert np.allclose(area2, m.areas, rtol=1e-12)


def test_refine_conforming_snaps_to_background(background):
    m = pa.icosphere(1.0, 1)
    plan = close_marking(m, range(m.n_panels))
    conf = refine_conforming(m, plan, background)
    new = conf.vertices[m.n_vertices :]
    # nearest-vertex oracle: brute-force distance to every background vertex
    for v in new[::17]:
        d = np.linalg.norm(background.vertices - v, axis=1)
        assert d.min() < 1e-12
    assert np.abs(np.linalg.norm(new, axis=1) - 1.0).max() <= mean_edge_length(background)


def test_refine_conforming_matches_flat_when_background_is_flat_refinement(monkeypatch):
    m = pa.icosphere(1.0, 1)
    plan = close_marking(m, range(m.n_panels))
    monkeypatch.setattr(mesh_mod, "SMOOTHING_PASSES", 0)
    conf = refine_conforming(m, plan, refine_all(m))
    flat = refine_flat(m, plan)
    assert np.array_equal(conf.triangles, flat.triangles)
    assert np.allclose(conf.vertices, flat.vertices, atol=1e-14)


def test_refine_conforming_improves_area(background):
    m = pa.icosphere(1.0, 1)
    plan = close_marking(m, range(m.n_panels))
    flat = refine_flat(m, plan)
    conf = refine_conforming(m, plan, background)
    sphere = 4.0 * np.pi
    assert abs(conf.areas.sum() - sphere) < abs(flat.areas.sum() - sphere)


def test_refine_conforming_degeneracy_guard(caplog):
    # background far coarser than the refined mesh: collisions are inevitable
    m = pa.icosphere(1.0, 2)
    coarse_bg = pa.icosphere(1.0, 1)
    plan = close_marking(m, range(m.n_panels))
    with caplog.at_level(logging.WARNING, logger="pbadapt.mesh"):
        conf = refine_conforming(m, plan, coarse_bg)
    assert conf.n_panels == 4 * m.n_panels
    assert any("claimed" in rec.message for rec in caplog.records)


def nearest_lowest(tree, points):
    """(distance, index) of each point's nearest data point by a k-d tree, the
    lower index of its two nearest at an exact distance tie."""
    dist, idx = tree.query(points, k=2)
    tie = dist[..., 1] == dist[..., 0]
    return dist[..., 0], np.where(tie, idx.min(axis=-1), idx[..., 0])


def snap_reference(mesh, plan, background, passes=3):
    """Conforming refinement by loops over the new vertices, claims kept in dicts.

    Returns the vertex coordinates and the number of midpoints that did not
    snap: their nearest background vertex was already claimed, or the snap
    would squash or flip a triangle. Nearest vertices come from a k-d tree,
    the lowest index at an exact tie, as ``refine_conforming`` states.
    """
    tree, targets = cKDTree(background.vertices), background.vertices
    dist, idx = nearest_lowest(tree, mesh.vertices)
    used = {int(b): v for v, (d, b) in enumerate(zip(dist, idx)) if d <= mesh_mod.DUPLICATE_TOL}
    flat = refine_flat(mesh, plan)
    coords, tris = flat.vertices.copy(), flat.triangles
    new = range(mesh.n_vertices, flat.n_vertices)
    ring = {v: set() for v in new}
    incident = {v: [] for v in new}
    for ti, abc in enumerate(tris.tolist()):
        for v in abc:
            if v in ring:
                ring[v].update(abc)
                ring[v].discard(v)
                incident[v].append(ti)

    def squashes_or_flips(v, old):
        for ti in incident[v]:
            p = coords[tris[ti]]
            new_n = np.cross(p[1] - p[0], p[2] - p[0])
            p[tris[ti] == v] = old
            old_n = np.cross(p[1] - p[0], p[2] - p[0])
            if 0.5 * np.linalg.norm(new_n) < mesh_mod.MIN_AREA or np.dot(new_n, old_n) <= 0.0:
                return True
        return False

    claims, unsnapped = {}, 0
    for v, b in zip(new, nearest_lowest(tree, coords[mesh.n_vertices :])[1].tolist()):
        old = coords[v].copy()
        coords[v] = targets[b]
        if b in used or squashes_or_flips(v, old):
            coords[v] = old
            unsnapped += 1
            continue
        used[b], claims[v] = v, b
    for _ in range(passes):
        for v in new:
            old = coords[v].copy()
            b = int(nearest_lowest(tree, coords[sorted(ring[v])].mean(axis=0))[1])
            if used.get(b, v) != v or np.linalg.norm(targets[b] - old) <= mesh_mod.DUPLICATE_TOL:
                continue
            coords[v] = targets[b]
            if squashes_or_flips(v, old):
                coords[v] = old
            else:
                used.pop(claims.pop(v, None), None)
                used[b], claims[v] = v, b
    return coords, unsnapped


@pytest.mark.parametrize("level", [3, 5, 6])
def test_refine_conforming_matches_snap_loop(level, background, caplog):
    # icospheres on icospheres: ring means can be equidistant from two
    # background vertices, so the summation order of a ring matters here
    target = background if level == 6 else pa.icosphere(1.0, level)
    mesh = pa.icosphere(1.0, 1)
    rng = np.random.default_rng(level)
    for fraction in (0.1, 0.3, 1.0, 0.3):
        size = int(fraction * mesh.n_panels)
        plan = close_marking(mesh, rng.choice(mesh.n_panels, size=size, replace=False))
        coords, unsnapped = snap_reference(mesh, plan, target)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="pbadapt.mesh"):
            mesh = refine_conforming(mesh, plan, target)
        assert np.array_equal(mesh.vertices, coords)
        assert sum(r.args[0] for r in caplog.records) == unsnapped


def test_refine_conforming_matches_snap_loop_when_later_passes_move():
    # the second smoothing pass moves vertices
    mesh, target = pa.icosphere(1.0, 2), pa.icosphere(1.0, 5)
    marked = np.random.default_rng(0).choice(mesh.n_panels, mesh.n_panels // 3, replace=False)
    plan = close_marking(mesh, marked)
    one_pass, _ = snap_reference(mesh, plan, target, passes=1)
    coords, _ = snap_reference(mesh, plan, target)
    assert not np.array_equal(one_pass, coords)
    assert np.array_equal(refine_conforming(mesh, plan, target).vertices, coords)


def test_refine_conforming_folds_no_child():
    # past the level-4 background's resolution the nearest background vertex
    # of a midpoint can lie behind its star: such a snap stays unmade
    mesh, target = pa.icosphere(1.0, 1), pa.icosphere(1.0, 4)
    for _ in range(4):
        plan = close_marking(mesh, np.flatnonzero(mesh.centroids[:, 2] > 0.5))
        refined = refine_conforming(mesh, plan, target)
        parent_normals = mesh.normals[refined.parent_map]
        assert np.all(np.einsum("ij,ij->i", refined.normals, parent_normals) > 0.0)
        mesh = refined
    assert mesh.n_panels == 5200


def test_refine_conforming_builds_one_grid(background, monkeypatch):
    # the background's cell grid is the one its own duplicate check built
    m = pa.icosphere(1.0, 1)
    plan = close_marking(m, range(m.n_panels))
    real, built = mesh_mod.CellGrid, []

    def counting(points, *args, **kwargs):
        built.append(len(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(mesh_mod, "CellGrid", counting)
    refined = refine_conforming(m, plan, background)
    assert built == [refined.n_vertices]  # the refined mesh's own, for its validation


@pytest.mark.parametrize("coarse", [False, True], ids=["background", "coarse-background"])
def test_refine_conforming_claims_each_background_vertex_once(background, coarse):
    # the level-3 background runs out of vertices by the third step
    target = pa.icosphere(1.0, 3) if coarse else background
    mesh = pa.icosphere(1.0, 1)
    rng = np.random.default_rng(5)
    unsnapped = 0
    for size in (10, 40, mesh.n_panels):
        plan = close_marking(mesh, set(rng.choice(mesh.n_panels, size=size, replace=False).tolist()))
        flat = refine_flat(mesh, plan).vertices[mesh.n_vertices :]
        conf = refine_conforming(mesh, plan, target)
        dist, b = cKDTree(target.vertices).query(conf.vertices)
        snapped = dist == 0.0
        assert np.array_equal(conf.vertices[snapped], target.vertices[b[snapped]])
        new_snapped = snapped[mesh.n_vertices :]
        assert np.array_equal(conf.vertices[mesh.n_vertices :][~new_snapped], flat[~new_snapped])
        assert len(np.unique(b[snapped])) == np.count_nonzero(snapped)
        unsnapped += np.count_nonzero(~new_snapped)
        mesh = conf
    assert (unsnapped > 0) == coarse


def test_refine_conforming_warning_counts_unsnapped_vertices(caplog):
    m = pa.icosphere(1.0, 2)
    coarse_bg = pa.icosphere(1.0, 1)
    plan = close_marking(m, range(m.n_panels))
    with caplog.at_level(logging.WARNING, logger="pbadapt.mesh"):
        conf = refine_conforming(m, plan, coarse_bg)
    [warning] = [r for r in caplog.records if "kept their midpoint position" in r.msg]
    flat = refine_flat(m, plan)
    at_midpoint = np.all(conf.vertices[m.n_vertices :] == flat.vertices[m.n_vertices :], axis=1)
    assert warning.args[0] == np.count_nonzero(at_midpoint) > 0


def test_refinement_preserves_manifold_and_orientation(background):
    m = pa.icosphere(1.0, 1)
    rng = np.random.default_rng(3)
    for mode in ("flat", "conforming"):
        mesh = m
        for _ in range(3):
            marked = set(rng.choice(mesh.n_panels, size=10, replace=False).tolist())
            plan = close_marking(mesh, marked)
            if mode == "flat":
                mesh = refine_flat(mesh, plan)
            else:
                mesh = refine_conforming(mesh, plan, background)
        # construction re-validates manifoldness; orientation spot check
        assert mesh.signed_volume > 0
        assert np.all(np.einsum("ij,ij->i", mesh.normals, mesh.centroids) > 0)
