import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbadapt as pa
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

from conftest import imbalanced_sphere_start, make_tetrahedron


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
    with pytest.raises(MeshInvariantError):
        pa.SurfaceMesh(tet.vertices, tris)


def test_duplicate_vertices_rejected():
    tet = make_tetrahedron()
    verts = np.vstack([tet.vertices, tet.vertices[0] + 1e-12])
    tris = tet.triangles.copy()
    with pytest.raises(MeshInvariantError):
        pa.SurfaceMesh(verts, np.vstack([tris, [[4, 2, 1]]]))


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


def test_winding_number_inside_outside():
    m = pa.icosphere(1.0, 2)
    w = winding_number(m, [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [2.0, 0.0, 0.0]])
    assert w[0] == pytest.approx(1.0, abs=1e-12)
    assert w[1] == pytest.approx(1.0, abs=1e-12)
    assert w[2] == pytest.approx(0.0, abs=1e-12)
    assert list(points_inside(m, [[0, 0, 0.9], [0, 0, 1.1]])) == [True, False]


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
    assert np.abs(np.linalg.norm(new, axis=1) - 1.0).max() <= background.mean_edge_length


def test_refine_conforming_matches_flat_when_background_is_flat_refinement():
    m = pa.icosphere(1.0, 1)
    plan = close_marking(m, range(m.n_panels))
    conf = refine_conforming(m, plan, refine_all(m), smoothing_passes=0)
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
