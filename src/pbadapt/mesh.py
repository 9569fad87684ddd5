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
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshInvariantError("triangles must be (T, 3)")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshInvariantError("triangle index out of range")
        if self.parent_map is not None and len(self.parent_map) != len(t):
            raise MeshInvariantError("parent_map length must match triangle count")
        if np.any(t[:, 0] == t[:, 1]) or np.any(t[:, 1] == t[:, 2]) or np.any(t[:, 2] == t[:, 0]):
            raise MeshInvariantError("triangle with repeated vertex")
        if len(v) > 1:
            pairs = cKDTree(v).query_pairs(DUPLICATE_TOL)
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
        if len(np.unique(key)) != len(key):
            raise MeshInvariantError("inconsistent triangle orientation")
        if self.signed_volume <= 0.0:
            raise MeshInvariantError("normals do not point outward (signed volume <= 0)")

    # -- derived geometry (cached; arrays are read-only) --------------------

    @cached_property
    def _corners(self) -> np.ndarray:
        c = self.vertices[self.triangles]  # (T, 3, 3)
        c.setflags(write=False)
        return c

    @cached_property
    def _cross(self) -> np.ndarray:
        p = self._corners
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
        c = self._corners.mean(axis=1)
        c.setflags(write=False)
        return c

    def _edge_lengths(self) -> np.ndarray:
        """(T, 3) length of local edge k = (v_k, v_{k+1})."""
        p = self._corners
        return np.linalg.norm(p[:, [1, 2, 0]] - p, axis=2)

    @cached_property
    def diameters(self) -> np.ndarray:
        """Longest edge per triangle."""
        d = self._edge_lengths().max(axis=1)
        d.setflags(write=False)
        return d

    @cached_property
    def signed_volume(self) -> float:
        p = self._corners
        return float(np.einsum("ij,ij->", p[:, 0], np.cross(p[:, 1], p[:, 2]))) / 6.0

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
    if radius <= 0:
        raise ValueError("radius must be positive")
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1)[:, None]
    faces = _ICO_FACES
    for _ in range(level):
        verts_list = list(verts)
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                m = verts_list[a] + verts_list[b]
                m = m / np.linalg.norm(m)
                midpoint[key] = len(verts_list)
                verts_list.append(m)
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        verts = np.array(verts_list)
        faces = np.array(new_faces, dtype=np.int64)
    return SurfaceMesh(verts * radius, faces)


# ---------------------------------------------------------------------------
# MSMS I/O


def _data_lines(path):
    """Yield (1-based line number, fields) skipping '#' comments and the counts header."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = []
    header_seen = False
    for no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            continue
        if not header_seen:
            header_seen = True  # counts line
            continue
        body.append((no, stripped.split()))
    return body


def load_msms(vert_path, face_path) -> SurfaceMesh:
    """Read an MSMS .vert/.face pair into a mesh.

    Face indices are 1-based in the files; orientation is repaired to outward
    if the whole surface is inverted.
    """
    verts = []
    for no, f in _data_lines(vert_path):
        if len(f) < 6:
            raise ParseError(vert_path, no, f"expected >= 6 fields, got {len(f)}")
        try:
            verts.append([float(f[0]), float(f[1]), float(f[2])])
        except ValueError as exc:
            raise ParseError(vert_path, no, f"bad vertex coordinate: {exc}") from exc
    faces = []
    for no, f in _data_lines(face_path):
        if len(f) < 3:
            raise ParseError(face_path, no, f"expected >= 3 fields, got {len(f)}")
        try:
            idx = [int(f[0]), int(f[1]), int(f[2])]
        except ValueError as exc:
            raise ParseError(face_path, no, f"bad face index: {exc}") from exc
        if min(idx) < 1:
            raise ParseError(face_path, no, "face indices are 1-based; found index < 1")
        faces.append([i - 1 for i in idx])
    if not verts:
        raise ParseError(vert_path, 0, "no vertices")
    if not faces:
        raise ParseError(face_path, 0, "no faces")
    v = np.array(verts)
    t = np.array(faces, dtype=np.int64)
    p = v[t]
    volume = np.einsum("ij,ij->", p[:, 0], np.cross(p[:, 1], p[:, 2])) / 6.0
    if volume < 0.0:
        logger.info("flipping globally inverted surface from %s", face_path)
        t = t[:, ::-1]
    return SurfaceMesh(v, t)


def save_off(mesh: SurfaceMesh, path) -> None:
    """Write the mesh in OFF format."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_panels} 0\n")
        for x, y, z in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"3 {a} {b} {c}\n")


def save_panel_values(mesh: SurfaceMesh, values, path) -> None:
    """Write one CSV row per panel: index, centroid, area, value."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_panels,):
        raise UsageError("values must have one entry per panel")
    with open(path, "w") as fh:
        fh.write("panel_index,cx,cy,cz,area,value\n")
        for i in range(mesh.n_panels):
            cx, cy, cz = (float(v) for v in mesh.centroids[i])
            fh.write(f"{i},{cx!r},{cy!r},{cz!r},{float(mesh.areas[i])!r},{float(values[i])!r}\n")


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


def _build_children(mesh: SurfaceMesh, plan: MarkedSet):
    """Shared construction for flat and conforming refinement.

    Returns the child triangles in panel order, the parent of each child,
    and the (M, 3) midpoints of the split edges: new vertex
    ``n_vertices + i`` replaces ``midpoints[i]``, numbered in order of
    first use.
    """
    n = mesh.n_vertices
    bisect_by_tri = dict(plan.bisect)
    index: dict[tuple[int, int], int] = {}  # sorted split edge -> new vertex
    new_tris: list[list[int]] = []
    parents: list[int] = []
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
    return np.array(new_tris, dtype=np.int64), np.array(parents, dtype=np.int64), midpoints


def refine_flat(mesh: SurfaceMesh, plan: MarkedSet) -> SurfaceMesh:
    """Apply a closed plan with new vertices at exact edge midpoints.

    Preserves the surface geometry (children tile their parents), hence the
    total area, and keeps the mesh conforming.
    """
    _check_plan_closed(mesh, plan)
    tris, parents, midpoints = _build_children(mesh, plan)
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
    tree = cKDTree(background.vertices)
    # Background vertices coinciding with existing mesh vertices are taken.
    dist, idx = tree.query(mesh.vertices)
    used: dict[int, int] = {int(b): int(v) for v, (d, b) in enumerate(zip(dist, idx)) if d <= DUPLICATE_TOL}

    tris, parents, midpoints = _build_children(mesh, plan)
    coords = np.vstack([mesh.vertices, midpoints])
    new_first = mesh.n_vertices
    new_indices = list(range(new_first, len(coords)))
    claims: dict[int, int] = {}  # new vertex index -> claimed background index
    collisions = 0
    _, nearest = tree.query(midpoints)
    for v, b in zip(new_indices, nearest.tolist()):
        if b in used:
            collisions += 1  # nearest background vertex taken: stay unsnapped
            continue
        used[b] = v
        claims[v] = b
        coords[v] = background.vertices[b]

    if new_indices and smoothing_passes > 0:
        ring: dict[int, set[int]] = {v: set() for v in new_indices}
        incident: dict[int, list[int]] = {v: [] for v in new_indices}
        for ti, (a, b, c) in enumerate(tris):
            for v in (a, b, c):
                if v >= new_first:
                    ring[v].update((int(a), int(b), int(c)))
                    ring[v].discard(int(v))
                    incident[v].append(ti)
        for _ in range(smoothing_passes):
            for v in new_indices:
                old = coords[v].copy()
                candidate = coords[list(ring[v])].mean(axis=0)
                _, b = tree.query(candidate)
                b = int(b)
                if used.get(b, v) != v:
                    continue  # target taken by someone else; stay put
                moved = background.vertices[b]
                if np.linalg.norm(moved - old) <= DUPLICATE_TOL:
                    continue
                coords[v] = moved
                if _flips_or_degenerates(coords, tris, incident[v], old, v):
                    coords[v] = old
                    continue
                prev = claims.pop(v, None)
                if prev is not None:
                    used.pop(prev, None)
                used[b] = v
                claims[v] = b
    if collisions:
        logger.warning(
            "%d new vertices kept their midpoint position (nearest background "
            "vertex already claimed); background resolution is locally exhausted",
            collisions,
        )
    return SurfaceMesh(coords, tris, parent_map=parents)


def _flips_or_degenerates(coords, tris, tri_ids, old_pos, moved_vertex) -> bool:
    """True if moving ``moved_vertex`` flipped or squashed an incident triangle."""
    for ti in tri_ids:
        p = coords[tris[ti]]
        new_n = np.cross(p[1] - p[0], p[2] - p[0])
        if 0.5 * np.linalg.norm(new_n) < MIN_AREA:
            return True
        p[tris[ti] == moved_vertex] = old_pos
        old_n = np.cross(p[1] - p[0], p[2] - p[0])
        if np.dot(new_n, old_n) <= 0.0:
            return True
    return False


# ---------------------------------------------------------------------------
# point-in-volume test


def winding_number(mesh: SurfaceMesh, points) -> np.ndarray:
    """Fraction of the full solid angle each point sees (1 inside, 0 outside).

    Uses the per-triangle solid angle formula of van Oosterom and Strackee.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    p = mesh._corners
    out = np.empty(len(points))
    for i, x in enumerate(points):
        a = p[:, 0] - x
        b = p[:, 1] - x
        c = p[:, 2] - x
        la = np.linalg.norm(a, axis=1)
        lb = np.linalg.norm(b, axis=1)
        lc = np.linalg.norm(c, axis=1)
        num = np.einsum("ij,ij->i", a, np.cross(b, c))
        den = (
            la * lb * lc
            + np.einsum("ij,ij->i", a, b) * lc
            + np.einsum("ij,ij->i", b, c) * la
            + np.einsum("ij,ij->i", c, a) * lb
        )
        out[i] = np.arctan2(num, den).sum() / (2.0 * np.pi)
    return out


def points_inside(mesh: SurfaceMesh, points) -> np.ndarray:
    """Boolean mask of points strictly inside the closed surface."""
    return winding_number(mesh, points) > 0.5
