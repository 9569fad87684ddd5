"""One chunk rule and one worker pool for every dense points x sources sum,
and the stretches that turn index copies into slice copies.

Each point's sum stays inside one chunk, so results depend neither on the
chunk size nor on the number of workers. The pool's threads persist between
calls: an adaptive run makes hundreds of calls, most with two items or fewer,
and starting threads for each would cost more than many of them compute.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

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


def _length(x, y, z) -> np.ndarray:
    """sqrt(x * x + z * z + y * y), in that order, in one new array."""
    out, tmp = x * x, z * z
    out += tmp
    np.multiply(y, y, out=tmp)
    out += tmp
    return np.sqrt(out, out=out)


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
        lens = [_length(*r) for r in rel]
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


def per_worker(items) -> list:
    """``items`` cut into runs of consecutive items, one run per usable CPU
    (fewer when there are fewer items), for ``run_parallel``."""
    parts = min(_usable_cpus(), len(items))
    return [items[i * len(items) // parts:(i + 1) * len(items) // parts] for i in range(parts)]


_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()
_local = threading.local()  # ``worker`` is set in the pool's threads


def _mark_worker() -> None:
    _local.worker = True


def _forget_pool() -> None:
    """Drop the pool and its lock without joining: a forked child has none
    of the parent's threads, which may have held the lock."""
    global _pool, _pool_size, _pool_lock
    _pool, _pool_size, _pool_lock = None, 0, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _executor(size: int) -> ThreadPoolExecutor:
    """The shared pool of ``size`` threads, replaced when the size changes.
    A replaced pool is not shut down, as a concurrent call may still submit to
    it; its threads end once no caller holds it."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool_size != size:
            _pool = ThreadPoolExecutor(max_workers=size, initializer=_mark_worker)
            _pool_size = size
        return _pool


def run_parallel(fn, items) -> None:
    """Call ``fn(item)`` for every item on one persistent pool of a thread per
    usable CPU, and return once every call has ended.

    With one usable CPU (``taskset -c 0``) or one item, and for calls made
    from a pool thread, the calls run serially in the caller: a nested call
    cannot wait on threads that are all busy waiting on it, and a single CPU
    starts no thread. The pool is rebuilt only when the usable CPU count
    changes. Each call writes its own output slice, so results do not depend
    on how many workers share the items. The numpy kernels release the
    interpreter lock, so the workers overlap. The first exception, in item
    order, is raised after all the calls have ended; the pool stays usable.
    """
    cpus = _usable_cpus()
    if min(cpus, len(items)) <= 1 or getattr(_local, "worker", False):
        for item in items:
            fn(item)
        return
    pool = _executor(cpus)
    futures = [pool.submit(fn, item) for item in items]
    wait(futures)
    for future in futures:
        future.result()
