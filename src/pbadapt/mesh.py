"""Closed triangulated surfaces: construction, file I/O, and red-green refinement.

A :class:`SurfaceMesh` is an immutable value; refinement returns new meshes
that remember their parentage through ``parent_map`` so that coarse-panel
quantities can be integrated over fine descendants.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import MeshInvariantError, ParseError, UsageError
from .sweep import sweep

logger = logging.getLogger(__name__)

DUPLICATE_TOL = 1e-10   # Å; closer vertex pairs count as duplicates
MIN_AREA = 1e-12        # Å²; triangles below this are degenerate


@dataclass(frozen=True)
class SurfaceMesh:
    """Closed 2-manifold triangle mesh with consistent outward orientation.

    Parameters
    ----------
    vertices : (V, 3) float array, Å.
    triangles : (T, 3) int array of vertex indices; all triangles wind the
        same way and normals point out of the enclosed region.
    parent_map : optional (T,) int array mapping each triangle to the panel
        of the mesh this one was refined from.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    parent_map: np.ndarray | None = None

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        if self.parent_map is not None:
            pm = np.ascontiguousarray(np.asarray(self.parent_map, dtype=np.int64))
            pm.setflags(write=False)
            object.__setattr__(self, "parent_map", pm)
        self._validate()
        v.setflags(write=False)
        t.setflags(write=False)

    # -- construction-time checks ------------------------------------------

    def _validate(self):
        v, t = self.vertices, self.triangles
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshInvariantError("vertices must be (V, 3)")
        if not np.all(np.isfinite(v)):
            raise MeshInvariantError("non-finite vertex coordinate")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshInvariantError("triangles must be (T, 3)")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshInvariantError("triangle index out of range")
        unused = np.flatnonzero(np.bincount(t.ravel(), minlength=len(v)) == 0)
        if unused.size:
            raise MeshInvariantError(f"vertex {unused[0]} is used by no triangle")
        if self.parent_map is not None and len(self.parent_map) != len(t):
            raise MeshInvariantError("parent_map length must match triangle count")
        if np.any(t[:, 0] == t[:, 1]) or np.any(t[:, 1] == t[:, 2]) or np.any(t[:, 2] == t[:, 0]):
            raise MeshInvariantError("triangle with repeated vertex")
        if len(v) > 1:
            pairs = self._vertex_tree.query_pairs(DUPLICATE_TOL)
            if pairs:
                i, j = sorted(next(iter(pairs)))
                raise MeshInvariantError(f"duplicate vertices {i} and {j}")
        if np.any(self.areas < MIN_AREA):
            bad = int(np.argmin(self.areas))
            raise MeshInvariantError(f"triangle {bad} has (near) zero area")
        # Closed + consistently oriented: every undirected edge appears exactly
        # twice, once per direction.
        key, rev = _edge_keys(t, len(v))
        _, counts = np.unique(np.minimum(key, rev), return_counts=True)
        if np.any(counts != 2):
            raise MeshInvariantError("surface is not a closed 2-manifold")
        sorted_key = np.sort(key)
        if np.any(sorted_key[1:] == sorted_key[:-1]):
            raise MeshInvariantError("inconsistent triangle orientation")
        if self.signed_volume <= 0.0:
            raise MeshInvariantError("normals do not point outward (signed volume <= 0)")

    # -- derived geometry (cached; arrays are read-only) --------------------

    @cached_property
    def _vertex_tree(self) -> cKDTree:
        """k-d tree of the vertices, shared by the duplicate check and the
        conforming snaps onto this mesh."""
        return cKDTree(self.vertices)

    @cached_property
    def corners(self) -> np.ndarray:
        """(T, 3, 3) corner coordinates of every panel, ``vertices[triangles]``."""
        c = self.vertices[self.triangles]
        c.setflags(write=False)
        return c

    @cached_property
    def _cross(self) -> np.ndarray:
        p = self.corners
        return np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])

    @cached_property
    def areas(self) -> np.ndarray:
        a = 0.5 * np.linalg.norm(self._cross, axis=1)
        a.setflags(write=False)
        return a

    @cached_property
    def normals(self) -> np.ndarray:
        n = self._cross / (2.0 * self.areas[:, None])
        n.setflags(write=False)
        return n

    @cached_property
    def centroids(self) -> np.ndarray:
        c = self.corners.mean(axis=1)
        c.setflags(write=False)
        return c

    def _edge_lengths(self) -> np.ndarray:
        """(T, 3) length of local edge k = (v_k, v_{k+1})."""
        p = self.corners
        return np.linalg.norm(p[:, [1, 2, 0]] - p, axis=2)

    @cached_property
    def diameters(self) -> np.ndarray:
        """Longest edge per triangle."""
        d = self._edge_lengths().max(axis=1)
        d.setflags(write=False)
        return d

    @cached_property
    def signed_volume(self) -> float:
        return _signed_volume(self.corners)

    @cached_property
    def mean_edge_length(self) -> float:
        e = self._edge_lengths()
        return float((e[:, 0] + e[:, 1] + e[:, 2]).sum() / e.size)

    @cached_property
    def neighbors(self) -> np.ndarray:
        """(T, 3) triangle adjacent across local edge k = (v_k, v_{k+1})."""
        key, rev = _edge_keys(self.triangles, self.n_vertices)
        order = np.argsort(key)  # _validate: every reversed key occurs exactly once
        nbr = order[np.searchsorted(key, rev, sorter=order)].reshape(-1, 3) // 3
        nbr.setflags(write=False)
        return nbr

    @property
    def n_panels(self) -> int:
        return len(self.triangles)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class MarkedSet:
    """Closed refinement plan: panels to 4-split and panels to bisect.

    ``bisect`` holds (triangle, local edge) pairs; the named edge borders a
    4-split triangle and receives the new midpoint vertex.
    """

    refine4: frozenset[int]
    bisect: frozenset[tuple[int, int]]

    def __post_init__(self):
        bad = self.refine4 & {t for t, _ in self.bisect}
        if bad:
            raise MeshInvariantError(f"triangles both 4-split and bisected: {sorted(bad)}")


def _signed_volume(p: np.ndarray) -> float:
    """Volume enclosed by triangles with (T, 3, 3) corners ``p``, positive
    when their normals point outward."""
    return float(np.einsum("ij,ij->", p[:, 0], np.cross(p[:, 1], p[:, 2]))) / 6.0


def _edge_keys(triangles: np.ndarray, n_vertices: int):
    """Directed key ``a * V + b`` of every local edge k = (v_k, v_{k+1}).

    Flattened in (triangle, k) order, so entry ``3 * t + k`` is edge k of
    triangle t; the second array holds the key of each reversed edge.
    """
    a, b = triangles, np.roll(triangles, -1, axis=1)
    return (a * n_vertices + b).ravel(), (b * n_vertices + a).ravel()


# ---------------------------------------------------------------------------
# construction


_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        [-1, _ICO_T, 0], [1, _ICO_T, 0], [-1, -_ICO_T, 0], [1, -_ICO_T, 0],
        [0, -1, _ICO_T], [0, 1, _ICO_T], [0, -1, -_ICO_T], [0, 1, -_ICO_T],
        [_ICO_T, 0, -1], [_ICO_T, 0, 1], [-_ICO_T, 0, -1], [-_ICO_T, 0, 1],
    ],
    dtype=float,
)
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def icosphere(radius: float, level: int) -> SurfaceMesh:
    """Icosahedron subdivided ``level`` times, vertices projected to the sphere.

    Yields 20 * 4**level outward-oriented panels.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if not 0 < radius < np.inf:
        raise ValueError("radius must be finite and positive")
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1)[:, None]
    faces = _ICO_FACES
    for _ in range(level):
        all_panels = MarkedSet(frozenset(range(len(faces))), frozenset())
        faces, _, midpoints = _build_children(verts, faces, all_panels)
        # one dot product per row, as a 1-D np.linalg.norm takes it: same bits
        lengths = np.sqrt(np.matmul(midpoints[:, None, :], midpoints[:, :, None]))[:, 0]
        verts = np.vstack([verts, midpoints / lengths])
    return SurfaceMesh(verts * radius, faces)


# ---------------------------------------------------------------------------
# MSMS I/O


def _msms_rows(path, min_fields, kind, what):
    """Yield (1-based line number, first three fields parsed by ``kind``) per
    data row, skipping '#' comments, blank lines and the counts line;
    ``what`` names the parsed fields in errors."""
    with open(path) as fh:
        lines = [(no, line.split()) for no, line in enumerate(fh.read().splitlines(), start=1)]
    for no, f in [(no, f) for no, f in lines if f and not f[0].startswith("#")][1:]:
        if len(f) < min_fields:
            raise ParseError(path, no, f"expected >= {min_fields} fields, got {len(f)}")
        try:
            row = [kind(x) for x in f[:3]]
        except ValueError as exc:
            raise ParseError(path, no, f"bad {what}: {exc}") from exc
        yield no, row


def load_msms(vert_path, face_path) -> SurfaceMesh:
    """Read an MSMS .vert/.face pair into a mesh.

    Face indices are 1-based in the files; orientation is repaired to outward
    if the whole surface is inverted.
    """
    verts = [row for _, row in _msms_rows(vert_path, 6, float, "vertex coordinate")]
    faces = []
    for no, idx in _msms_rows(face_path, 3, int, "face index"):
        if min(idx) < 1:
            raise ParseError(face_path, no, "face indices are 1-based; found index < 1")
        faces.append([i - 1 for i in idx])
    if not verts:
        raise ParseError(vert_path, 0, "no vertices")
    if not faces:
        raise ParseError(face_path, 0, "no faces")
    v = np.array(verts)
    t = np.array(faces, dtype=np.int64)
    if _signed_volume(v[t]) < 0.0:
        logger.info("flipping globally inverted surface from %s", face_path)
        t = t[:, ::-1]
    return SurfaceMesh(v, t)


def save_off(mesh: SurfaceMesh, path) -> None:
    """Write the mesh in OFF format."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_panels} 0\n")
        fh.writelines(f"{x!r} {y!r} {z!r}\n" for x, y, z in mesh.vertices.tolist())
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in mesh.triangles.tolist())


def save_panel_values(mesh: SurfaceMesh, values, path) -> None:
    """Write one CSV row per panel: index, centroid, area, value."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_panels,):
        raise UsageError("values must have one entry per panel")
    with open(path, "w") as fh:
        fh.write("panel_index,cx,cy,cz,area,value\n")
        rows = zip(mesh.centroids.tolist(), mesh.areas.tolist(), values.tolist())
        fh.writelines(f"{i},{cx!r},{cy!r},{cz!r},{area!r},{value!r}\n"
                      for i, ((cx, cy, cz), area, value) in enumerate(rows))


# ---------------------------------------------------------------------------
# marking and closure


def mark_elements(errors, fraction: float) -> set[int]:
    """Smallest high-error panel set holding ``fraction`` of the total error.

    Panels are taken in descending error order (ties broken by ascending
    index) until their cumulative error reaches ``fraction * sum(errors)``.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1:
        raise UsageError("errors must be a 1-d array")
    if np.any(np.isnan(errors)):
        raise UsageError("NaN in per-panel errors")
    if np.any(errors < 0.0) or np.any(~np.isfinite(errors)):
        raise UsageError("per-panel errors must be finite and >= 0")
    if not 0.0 < fraction <= 1.0:
        raise UsageError("fraction must lie in (0, 1]")
    total = errors.sum()
    if total == 0.0:
        return set()
    order = np.argsort(-errors, kind="stable")  # descending, stable in index
    csum = np.cumsum(errors[order])
    target = fraction * total * (1.0 - 1e-12)
    n_marked = int(np.searchsorted(csum, target)) + 1
    n_marked = min(n_marked, len(errors))
    return set(int(i) for i in order[:n_marked])


def close_marking(mesh: SurfaceMesh, marked) -> MarkedSet:
    """Close a marked set under the two neighbor rules.

    An unmarked triangle bordering >= 2 marked triangles is promoted to the
    4-split set; one bordering exactly 1 is bisected across that edge.
    Promotion can create new borders, so this iterates to a fixpoint.
    """
    idx = np.fromiter((int(i) for i in marked), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= mesh.n_panels):
        raise UsageError("marked triangle index out of range")
    return _closure(mesh, idx)


def _closure(mesh: SurfaceMesh, marked: np.ndarray) -> MarkedSet:
    nbr = mesh.neighbors
    split = np.zeros(mesh.n_panels, dtype=bool)
    split[marked] = True
    while True:
        promoted = ~split & (split[nbr].sum(axis=1) >= 2)
        if not promoted.any():
            break
        split |= promoted
    touching = split[nbr]
    bisected = np.flatnonzero(~split & (touching.sum(axis=1) == 1))
    bisect = zip(bisected.tolist(), touching[bisected].argmax(axis=1).tolist())
    return MarkedSet(frozenset(np.flatnonzero(split).tolist()), frozenset(bisect))


def _check_plan_closed(mesh: SurfaceMesh, plan: MarkedSet) -> None:
    named = [*plan.refine4, *(t for t, _ in plan.bisect)]
    if any(not 0 <= t < mesh.n_panels for t in named):
        raise MeshInvariantError("plan references an unknown triangle")
    # Not close_marking: the benchmark tracer wraps it to count plans made.
    closed = _closure(mesh, np.fromiter(plan.refine4, dtype=np.int64))
    if closed != plan:
        wrong = closed.refine4 - plan.refine4 | {t for t, _ in closed.bisect ^ plan.bisect}
        raise MeshInvariantError(f"plan not closed at triangles {sorted(wrong)}")


# ---------------------------------------------------------------------------
# refinement


def _build_children(vertices: np.ndarray, triangles: np.ndarray, plan: MarkedSet):
    """Shared construction for flat and conforming refinement and the icosphere.

    Returns the child triangles in panel order, the parent of each child,
    and the (M, 3) midpoints of the split edges: new vertex
    ``len(vertices) + i`` replaces ``midpoints[i]``, numbered in order of
    first use (triangles in order, then local edges k = (v_k, v_{k+1})).
    """
    n_tris = len(triangles)
    split = np.zeros(n_tris, dtype=bool)
    split[np.fromiter(plan.refine4, dtype=np.int64, count=len(plan.refine4))] = True
    side = np.full(n_tris, -1)  # bisected edge, or -1
    side[[t for t, _ in plan.bisect]] = [k for _, k in plan.bisect]
    used = np.flatnonzero(split[:, None] | (side[:, None] == np.arange(3)))
    key, rev = _edge_keys(triangles, len(vertices))
    _, first, which = np.unique(np.minimum(key, rev)[used], return_index=True,
                                return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    mid = np.full((n_tris, 3), -1, dtype=np.int64)
    mid.flat[used] = len(vertices) + rank[which]
    ends = used[np.sort(first)]
    midpoints = 0.5 * (vertices[triangles.ravel()[ends]]
                       + vertices[np.roll(triangles, -1, axis=1).ravel()[ends]])

    a, b, c = triangles.T
    ab, bc, ca = mid.T
    four = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)[split]
    halves = np.flatnonzero(side >= 0)
    k = side[halves]
    p, q, o = (triangles[halves, (k + j) % 3] for j in range(3))
    m = mid[halves, k]
    two = np.stack([p, m, o, m, q, o], axis=1)
    keep = np.flatnonzero(~split & (side < 0))
    children = np.concatenate([four.reshape(-1, 3), two.reshape(-1, 3), triangles[keep]])
    parents = np.concatenate([np.repeat(np.flatnonzero(split), 4), np.repeat(halves, 2), keep])
    order = np.argsort(parents, kind="stable")  # panel order, children of one panel in order
    return children[order], parents[order], midpoints


def refine_flat(mesh: SurfaceMesh, plan: MarkedSet) -> SurfaceMesh:
    """Apply a closed plan with new vertices at exact edge midpoints.

    Preserves the surface geometry (children tile their parents), hence the
    total area, and keeps the mesh conforming.
    """
    _check_plan_closed(mesh, plan)
    tris, parents, midpoints = _build_children(mesh.vertices, mesh.triangles, plan)
    return SurfaceMesh(np.vstack([mesh.vertices, midpoints]), tris, parent_map=parents)


def refine_all(mesh: SurfaceMesh) -> SurfaceMesh:
    """Uniform flat 4-split of every panel."""
    return refine_flat(mesh, close_marking(mesh, range(mesh.n_panels)))


def refine_conforming(
    mesh: SurfaceMesh,
    plan: MarkedSet,
    background: SurfaceMesh,
    smoothing_passes: int = 3,
) -> SurfaceMesh:
    """Apply a closed plan, snapping each new vertex onto the background mesh.

    New vertices are moved to the nearest background vertex (so they lie on
    the true surface), then relaxed with a few Laplacian passes that re-snap
    after every move. A background vertex is never claimed twice: a midpoint
    whose nearest background vertex is already taken keeps its unsnapped
    position.
    """
    _check_plan_closed(mesh, plan)
    tree, targets = background._vertex_tree, background.vertices
    tris, parents, midpoints = _build_children(mesh.vertices, mesh.triangles, plan)
    coords = np.vstack([mesh.vertices, midpoints])
    first = mesh.n_vertices
    # owner[b]: the mesh vertex on background vertex b, or -1; spot[v] the inverse.
    owner = np.full(background.n_vertices, -1)
    spot = np.full(len(coords), -1)
    dist, nearest = tree.query(mesh.vertices)
    on = np.flatnonzero(dist <= DUPLICATE_TOL)
    owner[nearest[on]], spot[on] = on, nearest[on]
    # Midpoints claim their nearest background vertex in vertex order: the
    # first claimant of a free one snaps, every later one stays unsnapped.
    _, nearest = tree.query(midpoints)
    _, firsts = np.unique(nearest, return_index=True)
    snap = firsts[owner[nearest[firsts]] < 0]
    owner[nearest[snap]], spot[first + snap] = first + snap, nearest[snap]
    coords[first + snap] = targets[nearest[snap]]
    collisions = int(np.count_nonzero(spot[first:] < 0))

    # Corner slots of the new vertices, by vertex and then by the vertex that
    # follows it in its triangle. On a closed mesh each neighbour of v follows
    # v in exactly one triangle, so every ring comes out in ascending order.
    corners, follow = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
    slots = np.lexsort((follow, corners))
    slots = slots[np.searchsorted(corners[slots], first):]
    bounds = np.searchsorted(corners[slots], np.arange(first, len(coords) + 1))
    spans = list(zip(bounds[:-1], bounds[1:]))
    stars = [tris[slots[lo:hi] // 3] for lo, hi in spans]
    rings = [follow[slots[lo:hi]] for lo, hi in spans]
    # A vertex's decision reads only its star's coordinates and the owner of
    # the background vertex it queried. It is evaluated again only when a
    # vertex of its ring moved or that background vertex was freed: a claim
    # by another vertex cannot turn a stay into a move, and a vertex that
    # just moved would stay. Any other evaluation would repeat a decision
    # that left the vertex where it is.
    new_rings = [ring[ring >= first] - first for ring in rings]
    dirty = np.ones(len(stars), dtype=bool)
    queried = np.full(len(stars), -1)
    for _ in range(smoothing_passes):
        moved = False
        for i, (star, ring) in enumerate(zip(stars, rings)):
            if not dirty[i]:
                continue
            dirty[i] = False
            v = first + i
            _, b = tree.query(coords[ring].mean(axis=0))
            queried[i] = b
            if owner[b] not in (-1, v):
                continue  # target taken by someone else; stay put
            if np.linalg.norm(targets[b] - coords[v]) <= DUPLICATE_TOL:
                continue
            before = coords[star]  # (k, 3, 3) corners of the incident triangles
            after = before.copy()
            after[star == v] = targets[b]
            n0, n1 = (np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) for p in (before, after))
            if np.any(0.5 * np.linalg.norm(n1, axis=1) < MIN_AREA) or np.any(
                np.einsum("ij,ij->i", n0, n1) <= 0.0
            ):
                continue  # the move would squash or flip an incident triangle
            coords[v] = targets[b]
            dirty[new_rings[i]] = True
            if spot[v] >= 0:
                dirty |= queried == spot[v]  # freed: a vertex it blocked may move there
                owner[spot[v]] = -1
            owner[b], spot[v] = v, b
            moved = True
        if not moved:
            break
    if collisions:
        logger.warning(
            "%d new vertices kept their midpoint position (nearest background "
            "vertex already claimed); background resolution is locally exhausted",
            collisions,
        )
    return SurfaceMesh(coords, tris, parent_map=parents)


def refine(mesh: SurfaceMesh, marked, background: SurfaceMesh | None = None) -> SurfaceMesh:
    """Close ``marked`` and refine: snapped onto ``background`` if one is
    given (``refine_conforming``), at flat midpoints otherwise."""
    plan = close_marking(mesh, marked)
    if background is None:
        return refine_flat(mesh, plan)
    return refine_conforming(mesh, plan, background)


# ---------------------------------------------------------------------------
# point-in-volume test


def half_solid_angles(rel, lens) -> np.ndarray:
    """Half the signed solid angle each triangle subtends at a point.

    ``rel[k][i]`` is coordinate i of corner k minus the point and ``lens[k]``
    the length of that offset: one array per corner and coordinate, all of
    one shape, so every product runs along their common layout. Van Oosterom
    and Strackee's formula, positive for points on the side the normal points
    away from; a point in the triangle's plane gets 0 outside it and +-pi
    inside it. Dot products add the x and z terms before the y term, the
    order in which numpy 2.4's einsum sums a length-3 axis, so the angles
    equal those of an einsum over (..., 3) offsets bit for bit.
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = rel
    la, lb, lc = lens
    num = ax * (by * cz - bz * cy) + az * (bx * cy - by * cx) + ay * (bz * cx - bx * cz)
    den = (
        la * lb * lc
        + (ax * bx + az * bz + ay * by) * lc
        + (bx * cx + bz * cz + by * cy) * la
        + (cx * ax + cz * az + cy * ay) * lb
    )
    return np.arctan2(num, den)


def winding_number(mesh: SurfaceMesh, points) -> np.ndarray:
    """Fraction of the full solid angle each point sees (1 inside, 0 outside).

    Sums ``half_solid_angles`` over the panels of ``sweep.sweep``'s offsets,
    so the inner loops run over the panels.
    """
    (half,) = sweep(points, mesh.corners.transpose(1, 2, 0),  # (corner, coordinate, panel)
                    lambda rel, lens: (half_solid_angles(rel, lens).sum(axis=1),), ())
    return half / (2.0 * np.pi)


def points_inside(mesh: SurfaceMesh, points) -> np.ndarray:
    """Boolean mask of points strictly inside the closed surface."""
    return winding_number(mesh, points) > 0.5
