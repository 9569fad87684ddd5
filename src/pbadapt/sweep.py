"""One chunk rule and one worker pool for every dense points x sources sum,
and the stretches that turn index copies into slice copies.

Each point's sum stays inside one chunk, so results depend neither on the
chunk size nor on the number of workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK_PAIRS = 4096 * 7  # (point, source) pairs, or quadrature points, per chunk


def _usable_cpus() -> int:
    """Number of CPUs this process may run on (affinity mask, not machine size)."""
    return len(os.sched_getaffinity(0))


def chunks(n: int, per_item, budget=None) -> list[slice]:
    """Consecutive slices covering range(n), each of ``budget`` // ``per_item``
    items but at least one; ``budget`` is ``CHUNK_PAIRS`` when None."""
    budget = CHUNK_PAIRS if budget is None else budget
    size = max(1, int(budget // max(per_item, 1)))
    return [slice(s, min(s + size, n)) for s in range(0, n, size)]


def sweep(points, sources, evaluate, *shapes) -> list[np.ndarray]:
    """Arrays of trailing ``shapes``, one row per point, that ``evaluate(rel, lens)``
    fills chunk by chunk on the pool.

    For a chunk of m of the (P, 3) ``points``, ``rel[k][i]`` is coordinate i
    of corner k of the (corner, coordinate, n) ``sources`` minus the points,
    an (m, n) array, so each point's sum is a row, and ``lens[k]`` its
    lengths, summed x + z + y as numpy's einsum sums a length-3 axis.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sources = np.ascontiguousarray(sources)
    out = [np.empty((len(points),) + shape) for shape in shapes]

    def run(sl):
        p = points[sl].T[:, :, None]                        # (coordinate, point, 1)
        rel = [[corner[i] - p[i] for i in range(3)] for corner in sources]
        lens = [np.sqrt(x * x + z * z + y * y) for x, y, z in rel]
        for o, value in zip(out, evaluate(rel, lens)):
            o[sl] = value

    run_parallel(run, chunks(len(points), sources.shape[-1]))
    return out


def runs(dst, src) -> list[tuple[slice, slice]]:
    """(dst, src) slice pairs over the maximal stretches where both indices step by one."""
    if len(dst) == 0:
        return []
    cut = np.flatnonzero((np.diff(dst) != 1) | (np.diff(src) != 1)) + 1
    return [(slice(dst[i], dst[j - 1] + 1), slice(src[i], src[j - 1] + 1))
            for i, j in zip(np.r_[0, cut], np.r_[cut, len(dst)])]


def run_parallel(fn, items) -> None:
    """Call ``fn(item)`` for every item, one worker thread per usable CPU.

    With one usable CPU (``taskset -c 0``) or one item the calls run serially
    in the caller. Each call writes its own output slice, so results do not
    depend on how many workers share the items. The numpy kernels release
    the interpreter lock, so the workers overlap.
    """
    workers = min(_usable_cpus(), len(items))
    if workers <= 1:
        for item in items:
            fn(item)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fn, items))  # re-raises the first worker exception
