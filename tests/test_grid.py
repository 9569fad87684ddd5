import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbadapt as pa
from pbadapt.grid import CellGrid
from pbadapt.mesh import DUPLICATE_TOL, INPUT_BOUND

SIDE = 2.0 * DUPLICATE_TOL


def squared_distances(points, queries):
    d = queries[:, None, :] - points[None, :, :]
    return d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2


def brute_nearest(points, queries):
    """(distance, index): argmin of the x, y, z squared sums, the lowest index at a tie."""
    d2 = squared_distances(points, queries)
    best = d2.min(axis=1)
    return np.sqrt(best), np.argmax(d2 == best[:, None], axis=1)


def brute_pair(points, tol):
    i, j = np.nonzero(np.triu(squared_distances(points, points) <= tol * tol, k=1))
    return (int(i[0]), int(j[0])) if len(i) else None


def midpoints(mesh):
    tri = mesh.triangles
    return 0.5 * (mesh.vertices[tri] + mesh.vertices[np.roll(tri, -1, axis=1)]).reshape(-1, 3)


def case(name):
    rng = np.random.default_rng(7)
    if name == "icosphere-on-icosphere":  # its own edge midpoints tie between the edge's ends
        coarse, fine = pa.icosphere(1.0, 2), pa.icosphere(1.0, 3)
        return fine.vertices, np.vstack([coarse.vertices, midpoints(coarse), midpoints(fine)[::2]])
    if name == "lattice":  # cell centres tie between 8 points
        axis = np.arange(6.0)
        points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        return points, np.vstack([points + 0.5, points[::3] + [0.5, 0.0, 0.0], points * 4.0])
    if name == "cloud":
        return rng.standard_normal((500, 3)), 3.0 * rng.standard_normal((300, 3))
    if name == "flat":
        points = rng.standard_normal((400, 3))
        points[:, 2] = 0.5
        return points, rng.standard_normal((200, 3))
    if name == "line":
        points = np.zeros((50, 3))
        points[:, 1] = np.arange(50.0)
        return points, 30.0 * rng.standard_normal((100, 3))
    if name == "single-point":
        return np.array([[INPUT_BOUND, -INPUT_BOUND, 3.0]]), INPUT_BOUND * rng.standard_normal((20, 3))
    if name == "near-bound":
        points = rng.uniform(-INPUT_BOUND, INPUT_BOUND, (300, 3))
        return points, np.vstack([rng.uniform(-INPUT_BOUND, INPUT_BOUND, (100, 3)), points[:10] * 0.999999])
    if name == "cluster-and-outlier":  # every point but one in one cell
        points = np.vstack([1e-6 * rng.standard_normal((300, 3)), [[0.1 * INPUT_BOUND, 0.0, 0.0]]])
        return points, 1e-6 * rng.standard_normal((50, 3))
    raise KeyError(name)


CASES = ["icosphere-on-icosphere", "lattice", "cloud", "flat", "line", "single-point", "near-bound",
         "cluster-and-outlier"]


@pytest.mark.parametrize("name", CASES)
def test_nearest_is_the_brute_force_argmin_with_lowest_index_ties(name):
    points, queries = case(name)
    grid = CellGrid(points, SIDE)
    dist, idx = brute_nearest(points, queries)
    got_dist, got_idx = grid.nearest(queries)
    assert np.array_equal(got_idx, idx)
    assert np.array_equal(got_dist, dist)
    assert [grid.nearest_one(q) for q in queries] == idx.tolist()


def test_icosphere_queries_have_ties_that_the_lowest_index_breaks():
    points, queries = case("icosphere-on-icosphere")
    d2 = squared_distances(points, queries)
    ties = np.count_nonzero((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1)
    assert ties > 0


def test_nearest_of_no_queries_is_empty():
    dist, idx = CellGrid(case("cloud")[0], SIDE).nearest(np.empty((0, 3)))
    assert dist.shape == idx.shape == (0,)


def test_cell_count_is_bounded_for_coordinates_at_the_input_bound():
    points = np.array([[-INPUT_BOUND, 0.0, 0.0], [INPUT_BOUND, 1e-20, 0.0], [0.0, 0.0, INPUT_BOUND]])
    grid = CellGrid(points, SIDE)
    assert np.prod(grid.dims + 2) <= 8 * len(points) + 27
    assert grid.nearest(points)[1].tolist() == [0, 1, 2]


@pytest.mark.parametrize("name", ["icosphere-on-icosphere", "cloud", "flat", "line"])
def test_first_pair_is_the_lowest_close_pair(name):
    points = case(name)[0].copy()
    grid = CellGrid(points, SIDE)
    assert grid.first_pair(DUPLICATE_TOL) is None
    # a pair straddling a face of the same grid, and an exact duplicate of a lower pair
    axis = int(np.argmax(grid.dims))
    face = grid.lo[axis] + (grid.dims[axis] // 2) * grid.side
    points[20] = points[40] = points[5]
    points[20, axis], points[40, axis] = face + 4e-11, face - 4e-11
    points[30] = points[10]
    moved = CellGrid(points, SIDE)
    assert np.array_equal(moved.lo, grid.lo) and moved.side == grid.side
    assert brute_pair(points, DUPLICATE_TOL) == (10, 30)
    assert CellGrid(points, SIDE).first_pair(DUPLICATE_TOL) == (10, 30)
    points[30] = points[10] + 1.0
    assert CellGrid(points, SIDE).first_pair(DUPLICATE_TOL) == brute_pair(points, DUPLICATE_TOL) == (20, 40)


def test_import_loads_no_scipy():
    src = Path(pa.__file__).parent.parent
    code = "import sys, pbadapt, pbadapt.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
