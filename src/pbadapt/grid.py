"""A uniform cell grid over a point set: exact nearest points and close pairs.

Cubic cells of one side cover the points' bounding box, with one empty cell
of padding on every side, so the 27 cells around any cell of the box exist.
The points are sorted by cell and, within a cell, by index; the three cells
of a stencil row along z are then one run of sorted positions. Distances are
squared differences summed x, then y, then z, and an exact tie goes to the
lowest point index. ``walk`` chunks the candidate runs of these queries and
of the inside test's grid of projected panels (``mesh._CrossingGrid``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

CELLS_PER_POINT = 8       # cells allowed per point, padding aside
CHUNK = 1 << 16           # candidate pairs evaluated at once
_SLACK = 1e-9             # cells; rounding allowance of a cell offset, per cell of magnitude


def walk(run_q, s, e):
    """Yield (query, position) for every position of the runs s[i] .. e[i] - 1,
    run i belonging to query run_q[i], in chunks of about CHUNK positions. The
    queries of ``run_q`` ascend, and each query's runs stay in one chunk; a
    chunk with no position is skipped."""
    cnt = e - s
    if not len(cnt):
        return
    ends = np.cumsum(cnt)
    cut = np.searchsorted(ends, np.arange(CHUNK, ends[-1], CHUNK))
    bounds = np.unique(np.concatenate([[0], np.searchsorted(run_q, run_q[cut]), [len(cnt)]]))
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        c = cnt[a:b]
        qi = np.repeat(run_q[a:b], c)
        if len(qi):
            yield qi, np.arange(len(qi)) - np.repeat(np.cumsum(c) - c - s[a:b], c)


class CellGrid:
    """Exact nearest-point and close-pair queries on the (n, 3) ``points``.

    The side starts from CELLS_PER_POINT cells per point over the axes the
    points span, and at ``min_side``, and grows until the padded cell count
    is at most CELLS_PER_POINT * n + 27, so cell keys stay small for any
    finite coordinates. An axis the points do not span (a flat or
    single-point set) gets one cell.
    """

    def __init__(self, points: np.ndarray, min_side: float):
        points = np.asarray(points, dtype=float)
        n = len(points)
        self.lo = points.min(axis=0)
        extent = points.max(axis=0) - self.lo
        spanned = extent[extent > 0.0]
        side = float(np.prod(spanned) / (CELLS_PER_POINT * n)) ** (1.0 / max(len(spanned), 1))
        side = max(side, min_side)
        budget = CELLS_PER_POINT * n + 27
        while (cells := float(np.prod(np.floor(extent / side) + 3.0))) > budget:
            side *= max(1.125, (cells / budget) ** (1.0 / 3.0))
        self.side = side
        self.dims = (np.floor(extent / side) + 1.0).astype(np.int64)
        _, ny, nz = self.dims + 2
        self.strides = np.array([ny * nz, nz, 1])
        key = (self._cells(points)[1] + 1) @ self.strides
        self.order = np.argsort(key, kind="stable")
        self.sorted = np.ascontiguousarray(points[self.order].T)  # (3, n), in cell order
        counts = np.bincount(key, minlength=int(np.prod(self.dims + 2)))
        self.start = np.concatenate([[0], np.cumsum(counts)])  # cell k: start[k] .. start[k + 1]
        row = np.array([-1, 0, 1])
        self._rows = (row[:, None] * ny * nz + row * nz).ravel() - 1  # 9 stencil rows, from z - 1
        self._lo, self._dims = self.lo.tolist(), self.dims.tolist()
        self._strides, self._positions = self.strides.tolist(), np.arange(n)

    def _cells(self, q):
        """(f, c): offsets from the grid corner in cells, and the cells, clipped to the box."""
        f = (q - self.lo) / self.side
        return f, np.clip(np.floor(f), 0, self.dims - 1).astype(np.int64)

    def _reach2(self, f, lo, hi):
        """Squared distance, less rounding, from offsets ``f`` to any point outside
        the (unpadded) cell boxes lo..hi; infinite where no cell lies beyond a side."""
        below = np.where(lo > 0, f - lo, np.inf)
        above = np.where(hi < self.dims - 1, hi + 1 - f, np.inf)
        slack = _SLACK * (self.dims.max() + np.abs(f).max(axis=1))
        reach = np.maximum(self.side * (np.minimum(below, above).min(axis=1) - slack), 0.0)
        return reach * reach

    def _candidates(self, qc, run_q, s, e):
        """Yield (query, sorted position, squared distance) of every point in the
        runs s..e of sorted positions, in the chunks of ``walk``. ``qc`` is (3, m)."""
        for qi, pos in walk(run_q, s, e):
            d = qc[:, qi] - self.sorted[:, pos]
            d *= d
            yield qi, pos, d[0] + d[1] + d[2]

    def _closest(self, qc, run_q, s, e):
        """Nearest squared distance and lowest index at it, per query, in the runs."""
        m, n = qc.shape[1], len(self.order)
        best, idx = np.full(m, np.inf), np.full(m, n)
        for qi, pos, d2 in self._candidates(qc, run_q, s, e):
            first = np.flatnonzero(np.concatenate([[True], qi[1:] != qi[:-1]]))
            best[qi[first]] = np.minimum.reduceat(d2, first)
            at_best = np.where(d2 == best[qi], self.order[pos], n)
            idx[qi[first]] = np.minimum.reduceat(at_best, first)
        return best, idx

    def nearest(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """(distance, index) of the nearest point to each of the (m, 3) ``queries``.

        The 27 cells around a query's cell are searched first; the box
        doubles in half-width only for the queries whose best distance
        reaches beyond it.
        """
        q = np.asarray(queries, dtype=float).reshape(-1, 3)
        f, c = self._cells(q)
        d2, idx = np.full(len(q), np.inf), np.zeros(len(q), dtype=np.int64)
        todo, half = np.arange(len(q)), 1
        while todo.size:
            lo, hi = np.maximum(c[todo] - half, 0), np.minimum(c[todo] + half, self.dims - 1)
            span = hi - lo + 1
            n_rows = span[:, 0] * span[:, 1]  # one run of z cells per (x, y) in the box
            run_q = np.repeat(np.arange(len(todo)), n_rows)
            k = np.arange(len(run_q)) - np.repeat(np.cumsum(n_rows) - n_rows, n_rows)
            ix, iy = lo[run_q, 0] + k // span[run_q, 1], lo[run_q, 1] + k % span[run_q, 1]
            base = (ix + 1) * self.strides[0] + (iy + 1) * self.strides[1] + 1
            best, at = self._closest(q[todo].T, run_q, self.start[base + lo[run_q, 2]],
                                     self.start[base + hi[run_q, 2] + 1])
            done = best < self._reach2(f[todo], lo, hi)
            d2[todo[done]], idx[todo[done]] = best[done], at[done]
            todo, half = todo[~done], 2 * half
        return np.sqrt(d2), idx

    def nearest_one(self, point: np.ndarray) -> int:
        """Index of the nearest point to one (3,) ``point``, as ``nearest`` finds it,
        with the cell arithmetic in Python floats for a single query. When the
        27 cells around the point's cell do not settle it, ``nearest`` answers
        (searching those 27 cells again, then its wider boxes)."""
        f = [(x - lo) / self.side for x, lo in zip(point.tolist(), self._lo)]
        c = [min(max(math.floor(v), 0), n - 1) for v, n in zip(f, self._dims)]
        rows = self._rows + sum((ci + 1) * st for ci, st in zip(c, self._strides))
        runs = zip(self.start[rows].tolist(), self.start[rows + 3].tolist())
        pos = np.concatenate([self._positions[:0], *(self._positions[a:b] for a, b in runs)])
        d = point[:, None] - self.sorted[:, pos]
        d *= d
        d2 = d[0] + d[1] + d[2]
        if len(d2):
            best = d2.min()
            below = (v - ci + 1 if ci > 1 else math.inf for v, ci in zip(f, c))
            above = (ci + 2 - v if ci + 2 < n else math.inf for v, ci, n in zip(f, c, self._dims))
            gap = min(*below, *above)
            reach = max(self.side * (gap - _SLACK * (max(self._dims) + max(map(abs, f)))), 0.0)
            if best < reach * reach:
                return int(self.order[pos[d2 == best]].min())
        return int(self.nearest(point)[1][0])

    def first_pair(self, tol: float) -> tuple[int, int] | None:
        """Lowest index pair (i, j), i < j, whose squared distance is at most
        tol², or None. ``tol`` must be below the cell side.

        Such a pair shares a cell, or both its points lie within ``tol`` of a
        cell face; only those points search the cells around their own.
        """
        f, c = self._cells(self.sorted.T)
        key = (c + 1) @ self.strides
        pos = self._positions
        frac = f - c
        slack = tol / self.side + _SLACK * (self.dims.max() + np.abs(f).max(axis=1))[:, None]
        edge = np.flatnonzero(((frac <= slack) | (frac >= 1.0 - slack)).any(axis=1))
        rows = (key[edge, None] + self._rows).ravel()
        later = self._candidates(self.sorted, pos, pos + 1, self.start[key + 1])  # in its own cell
        around = self._candidates(self.sorted, np.repeat(edge, 9), self.start[rows],
                                  self.start[rows + 3])
        close_q, close_p = [pos[:0]], [pos[:0]]
        for qi, p, d2 in itertools.chain(later, around):
            close = (d2 <= tol * tol) & (p != qi)
            close_q.append(qi[close])
            close_p.append(p[close])
        a, b = self.order[np.concatenate(close_q)], self.order[np.concatenate(close_p)]
        if not len(a):
            return None
        i, j = np.minimum(a, b), np.maximum(a, b)
        first = i.min()
        return int(first), int(j[i == first].min())
