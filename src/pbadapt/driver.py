"""Solve / estimate / mark / refine loops and their on-disk run records."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import LoopAbortedError, PbAdaptError, UsageError
from .estimator import ESTIMATORS, ErrorMap
from .mesh import (
    SurfaceMesh,
    mark_elements,
    refine,
    save_off,
    save_panel_values,
)
from .physics import BiePhysics, ChargeSet, EnergyResult, solvation_energy
from .solver import DEFAULT_GMRES_TOL, SystemCache, solve_adjoint, solve_forward

logger = logging.getLogger(__name__)

_ESTIMATORS = ESTIMATORS  # the same dict: bench/spans.py wraps the estimators under this name


@dataclass
class AdaptiveConfig:
    """Knobs of the adaptive loop; defaults follow the study setup."""

    estimator_tag: str = "Eu"
    marking_fraction: float = 0.10
    adjoint_refine_levels: int = 1
    refinement_mode: str = "flat"
    max_iterations: int = 1
    background_mesh: SurfaceMesh | None = None
    gmres_tol: float = DEFAULT_GMRES_TOL

    def __post_init__(self):
        if self.estimator_tag not in _ESTIMATORS:
            raise UsageError(f"unknown estimator {self.estimator_tag!r}")
        if not 0.0 < self.marking_fraction <= 1.0:
            raise UsageError("marking_fraction must lie in (0, 1]")
        if self.max_iterations < 1:
            raise UsageError("max_iterations must be >= 1")
        if self.adjoint_refine_levels < 0:
            raise UsageError("adjoint_refine_levels must be >= 0")
        if self.refinement_mode not in ("flat", "conforming"):
            raise UsageError(f"unknown refinement mode {self.refinement_mode!r}")
        if self.refinement_mode == "conforming" and self.background_mesh is None:
            raise UsageError("conforming refinement needs a background mesh")
        if not self.gmres_tol > 0.0:
            raise UsageError("gmres_tol must be > 0")


@dataclass(frozen=True)
class IterationRecord:
    """One loop iteration: the mesh solved on and what came out of it."""

    mesh: SurfaceMesh
    energy: EnergyResult
    error_map: ErrorMap | None
    wall_time_s: float


def adaptive_loop(
    mesh0: SurfaceMesh,
    charges: ChargeSet,
    physics: BiePhysics,
    config: AdaptiveConfig,
) -> list[IterationRecord]:
    """Iteratively solve, estimate, mark and refine, recording every step.

    Runs ``config.max_iterations`` solves and refines only between them.
    Any stage failure aborts with the partial history attached to the raised
    error. Deterministic for identical inputs and BLAS thread count.
    """
    return _refinement_loop(mesh0, charges, physics, config, estimate=True)


def uniform_loop(
    mesh0: SurfaceMesh,
    charges: ChargeSet,
    physics: BiePhysics,
    levels: int,
    background: SurfaceMesh | None = None,
    gmres_tol: float = DEFAULT_GMRES_TOL,
) -> list[IterationRecord]:
    """Baseline: the adaptive loop marking every panel, with no error estimation;
    conforming onto ``background`` when one is given, flat otherwise."""
    if levels < 1:
        raise UsageError("levels must be >= 1")
    config = AdaptiveConfig(
        marking_fraction=1.0,
        refinement_mode="flat" if background is None else "conforming",
        max_iterations=levels,
        background_mesh=background,
        gmres_tol=gmres_tol,
    )
    return _refinement_loop(mesh0, charges, physics, config, estimate=False)


def _log_reuse(it: int, space: str, cache: SystemCache) -> None:
    logger.debug(
        "iteration %d %s system: %d rows and %d columns reused, %d rows and %d columns "
        "computed", it, space, *cache.reused, *cache.computed,
    )


def solve_iteration(mesh, charges, physics, config: AdaptiveConfig, adjoint: bool,
                    caches=None):
    """(forward, energy, adjoint) on ``mesh`` under ``config``; the adjoint is
    solved only with ``adjoint``, and None otherwise. ``caches`` maps "P0"
    and "P1" to a ``SystemCache``."""
    caches = caches or {}
    forward = solve_forward(mesh, physics, charges, gmres_tol=config.gmres_tol,
                            cache=caches.get("P0"))
    energy = solvation_energy(forward, charges, physics)
    if not adjoint:
        return forward, energy, None
    dual = solve_adjoint(mesh, physics, charges, config.adjoint_refine_levels,
                         config.background_mesh, config.gmres_tol, cache=caches.get("P1"))
    return forward, energy, dual


def _refinement_loop(mesh0, charges, physics, config: AdaptiveConfig, estimate: bool):
    """Solve, then mark and refine before every further solve.

    Without ``estimate`` every panel is marked and neither the adjoint nor
    the estimator runs. An iteration's wall time includes the refinement
    that produced its mesh. The forward and adjoint systems are kept for the
    next iteration, which copies their unchanged rows and columns.
    """
    history: list[IterationRecord] = []
    mesh = mesh0
    snap_to = config.background_mesh if config.refinement_mode == "conforming" else None
    caches = {"P0": SystemCache(), "P1": SystemCache()}
    for it in range(config.max_iterations):
        start = time.perf_counter()
        try:
            if it:
                mesh = refine(mesh, marked, snap_to)
            forward, energy, adjoint = solve_iteration(mesh, charges, physics, config, estimate,
                                                       caches)
            _log_reuse(it, "P0", caches["P0"])
            emap, marked = None, range(mesh.n_panels)
            if estimate:
                _log_reuse(it, "P1", caches["P1"])
                emap = _ESTIMATORS[config.estimator_tag](forward, adjoint, charges, physics)
                marked = mark_elements(emap.per_panel, config.marking_fraction)
        except PbAdaptError as exc:
            kind = "adaptive" if estimate else "uniform"
            raise LoopAbortedError(f"{kind} loop aborted: {exc}", history) from exc
        history.append(IterationRecord(mesh, energy, emap, time.perf_counter() - start))
    return history


ENERGY_CSV_HEADER = "iter,N_panels,dG,signed_E,sum_Ei,gmres_iters,wall_time_s"


def save_history(history: list[IterationRecord], out_dir) -> None:
    """Write per-iteration meshes (OFF), error maps (CSV) and the energy table."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [ENERGY_CSV_HEADER]
    for k, rec in enumerate(history):
        save_off(rec.mesh, out / f"mesh_{k:03d}.off")
        if rec.error_map is not None:
            save_panel_values(rec.mesh, rec.error_map.per_panel, out / f"errors_{k:03d}.csv")
        signed = repr(rec.error_map.signed_total) if rec.error_map else ""
        total = repr(float(rec.error_map.per_panel.sum())) if rec.error_map else ""
        rows.append(
            f"{k},{rec.mesh.n_panels},{rec.energy.dG_solv!r},{signed},{total},"
            f"{rec.energy.diagnostics.get('gmres_iters', '')},{rec.wall_time_s:.6f}"
        )
    (out / "energy.csv").write_text("\n".join(rows) + "\n")
