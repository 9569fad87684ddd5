"""Boundary-element Poisson-Boltzmann solvation energies with goal-oriented
error estimation and adaptive surface-mesh refinement."""

from .driver import AdaptiveConfig, IterationRecord, adaptive_loop, save_history, uniform_loop
from .estimator import ErrorMap, effectivity, estimate_Ephi, estimate_Eu
from .mesh import (
    MarkedSet,
    SurfaceMesh,
    close_marking,
    icosphere,
    load_msms,
    mark_elements,
    refine_conforming,
    refine_flat,
    save_off,
    save_panel_values,
)
from .oracle import SphereCase, born_energy, kirkwood_energy, richardson
from .physics import (
    BiePhysics,
    ChargeSet,
    EnergyResult,
    coulomb_trace,
    load_pqr,
    reaction_potential,
    solvation_energy,
)
from .solver import (
    PanelSolution,
    SystemCache,
    assemble_system,
    solve_adjoint,
    solve_forward,
)

__all__ = [
    "AdaptiveConfig",
    "BiePhysics",
    "ChargeSet",
    "EnergyResult",
    "ErrorMap",
    "IterationRecord",
    "MarkedSet",
    "PanelSolution",
    "SphereCase",
    "SurfaceMesh",
    "SystemCache",
    "adaptive_loop",
    "assemble_system",
    "born_energy",
    "close_marking",
    "coulomb_trace",
    "effectivity",
    "estimate_Ephi",
    "estimate_Eu",
    "icosphere",
    "kirkwood_energy",
    "load_msms",
    "load_pqr",
    "mark_elements",
    "reaction_potential",
    "refine_conforming",
    "refine_flat",
    "richardson",
    "save_history",
    "save_off",
    "save_panel_values",
    "solvation_energy",
    "solve_adjoint",
    "solve_forward",
    "uniform_loop",
]

__version__ = "0.1.0"
