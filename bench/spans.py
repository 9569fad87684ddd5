"""In-memory span tracer that wraps pbadapt's public functions from outside.

Every binding of a traced function is replaced, in every pbadapt module
namespace that holds it (``from ... import`` copies included) and in
``driver._ESTIMATORS``, by one wrapper that records a span
``(name, start, end, parent)`` per call. Each traced function belongs to
one per-layer time metric; a metric's value is the summed *self* time of
its spans (duration minus the durations of their child spans), so the
per-layer times partition the traced interval and the part of the timed
section that no span covers is reported as the unattributed remainder.

Counters are read at the same boundaries from arguments and results; the
ones derived from sizes (evaluation counts, matrix bytes) are computed,
not measured.
"""

from __future__ import annotations

import logging
import sys
import time
from collections import defaultdict

import numpy as np

from pbadapt import driver, estimator, kernels, mesh, physics, solver


def _rule(args, kwargs, position):
    return kwargs["rule"] if "rule" in kwargs else args[position]


def _count_row_blocks(c, args, kwargs, result):
    targets = np.atleast_2d(np.asarray(args[0]))
    c["kernels.row_block_evals"] += len(targets) * args[1].n_panels * _rule(args, kwargs, 2).n_points


def _pair_name(args, kwargs):
    fine = _rule(args, kwargs, 3).n_points > kernels.GAUSS7.n_points
    return "kernels.pair_fine_s" if fine else "kernels.pair_coarse_s"


def _count_pairs(c, args, kwargs, result):
    c["kernels.pair_evals"] += len(args[2]) * _rule(args, kwargs, 3).n_points


def _count_near(c, args, kwargs, result):
    c["kernels.near_pairs"] += len(result[0])


def _count_system(c, args, kwargs, result):
    unknowns = len(result[1])
    c["solver.unknowns"] += unknowns
    c["solver.matrix_mb"] = max(c["solver.matrix_mb"], 8.0 * unknowns**2 / 1e6)


def _count_solve(c, args, kwargs, result):
    c["solver.gmres_iters"] += result.gmres_iters


def _count_reaction(c, args, kwargs, result):
    c["physics.targets"] += len(np.atleast_2d(np.asarray(args[1])))


def _count_estimate(c, args, kwargs, result):
    c["estimator.fine_panels"] += args[1].mesh_ref.n_panels


def _count_marked(c, args, kwargs, result):
    c["mesh.marked"] += len(result)


def _count_closure(c, args, kwargs, result):
    c["mesh.closure_refine4"] += len(result.refine4)
    c["mesh.closure_bisect"] += len(result.bisect)


# (function, time metric or callable choosing it per call, counter or None)
#
# Which end-to-end figure each layer should move:
#   kernels.pair_*       wall_s and time_to_1pct_s on adapt_offcenter, wall_s on
#                        estimate_manycharge, less on solve_born_l4
#   kernels.row_blocks_* wall_s on solve_born_l4
#   solver.gmres_s       wall_s on adapt_offcenter; solver.matrix_mb peak_rss_mb on solve_born_l4
#   physics.*, estimator.*  wall_s on estimate_manycharge
#   mesh.*               time_to_1pct_s on adapt_offcenter, and setup_s
#   driver.*             wall_s on adapt_offcenter
TRACED = [
    (kernels.kernel_row_blocks, "kernels.row_blocks_s", _count_row_blocks),
    (kernels.kernel_pair_entries, _pair_name, _count_pairs),
    (kernels.near_pairs, "kernels.near_search_s", _count_near),
    (kernels.centroid_self_single_layer, "kernels.singular_s", None),
    (kernels.corner_single_layer_linear, "kernels.singular_s", None),
    (kernels.yukawa_regular_part, "kernels.singular_s", None),
    (solver.assemble_system, "solver.assemble_self_s", _count_system),
    (solver.solve_forward, "solver.gmres_s", _count_solve),
    (solver.solve_adjoint, "solver.gmres_s", _count_solve),
    (physics.reaction_potential, "physics.reaction_s", _count_reaction),
    (physics.solvation_energy, "physics.reaction_s", None),
    (mesh.points_inside, "physics.inside_test_s", None),
    (estimator.estimate_Eu, "estimator.estimate_s", _count_estimate),
    (estimator.estimate_Ephi, "estimator.estimate_s", _count_estimate),
    (mesh.mark_elements, "mesh.mark_s", _count_marked),
    (mesh.close_marking, "mesh.close_s", _count_closure),
    (mesh.refine_conforming, "mesh.refine_s", None),
    (mesh.refine_flat, "mesh.refine_s", None),
    (mesh.refine_all, "mesh.refine_s", None),
    (driver.adaptive_loop, "driver.iter_s", None),
    (driver.save_history, "driver.save_history_s", None),
]

TIME_METRICS = sorted({m for _, m, _ in TRACED if isinstance(m, str)} | {
    "kernels.pair_fine_s", "kernels.pair_coarse_s"})
COUNT_METRICS = [
    "kernels.pair_evals", "kernels.near_pairs", "kernels.row_block_evals",
    "solver.gmres_iters", "solver.unknowns", "solver.matrix_mb",
    "physics.targets", "estimator.fine_panels",
    "mesh.marked", "mesh.closure_refine4", "mesh.closure_bisect",
]


class SnapCollisionCounter(logging.Handler):
    """Counts the vertices that conforming refinement left unsnapped.

    ``refine_conforming`` reports them only through a ``pbadapt.mesh``
    warning whose first argument is the count.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "kept their midpoint position" in record.msg:
            self.count += int(record.args[0])

    def __enter__(self):
        mesh.logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        mesh.logger.removeHandler(self)


class Tracer:
    """Installs the wrappers on ``__enter__`` and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, object, object]] = []

    def _wrap(self, fn, metric, count):
        tracer = self

        def traced(*args, **kwargs):
            name = metric(args, kwargs) if callable(metric) else metric
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent])
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][2] = time.perf_counter()
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        namespaces = [vars(m) for name, m in sys.modules.items()
                      if name == "pbadapt" or name.startswith("pbadapt.")]
        namespaces.append(driver._ESTIMATORS)
        for fn, metric, count in TRACED:
            wrapper = self._wrap(fn, metric, count)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is fn:
                        self._restore.append((ns, key, fn))
                        ns[key] = wrapper
        return self

    def __exit__(self, *exc):
        for ns, key, fn in reversed(self._restore):
            ns[key] = fn
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time (duration minus child spans' durations) per metric."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]

