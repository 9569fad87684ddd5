"""Seeded inputs, the timed operation and the output gate of each workload.

Seed 0 builds the reference inputs exactly: the acceptance off-center case
on its imbalanced start mesh, the Born ion on a level-4 icosphere, and one
fixed draw of 1,000 charges. Every other seed rotates the whole problem
(mesh, background mesh and charges) by a seeded random rotation. The
physics and the amount of work stay the same while every floating-point
input changes, so runs with different seeds measure the same work, and
the gate can check that the energy is invariant under the rotation.
Seed 0 goes through the same steps with the identity, which reproduces
every coordinate exactly.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import pbadapt as pa
from pbadapt.mesh import close_marking, refine_conforming
from pbadapt.oracle import offcenter_benchmark

# "tiny" exists for the harness smoke test; the benchmark runs "full".
SIZES = {
    "full": dict(start_level=1, away_rounds=2, background_level=6, iterations=8,
                 born_level=4, many_level=2, n_charges=1000),
    "tiny": dict(start_level=1, away_rounds=0, background_level=3, iterations=2,
                 born_level=1, many_level=1, n_charges=10),
}

# Largest accepted |dG - reference| / |reference| per workload and size.
# Full sizes: the acceptance bounds (1 % after the off-center loop, 0.5 %
# for the level-4 Born ion) and 5 % for the level-2 many-charge solve
# (2.94 % measured at seed 0).
REL_ERR_LIMIT = {
    "full": {"adapt_offcenter": 0.01, "solve_born_l4": 0.005, "estimate_manycharge": 0.05},
    "tiny": {"adapt_offcenter": 0.25, "solve_born_l4": 0.25, "estimate_manycharge": 0.25},
}

# Full-size energies (kcal/mol) of the seed-0 inputs. Off-center: iteration
# 0 of the acceptance fixture on its 1,152-panel start mesh. A run must
# agree to PINNED_RTOL: far below every discretization error here (> 8e-4
# relative) yet loose enough for rotated inputs and for quadrature or
# summation-order changes that keep the answer.
ADAPT_START_PANELS = 1152
ADAPT_ITER0_DG = -54.54777272907282
BORN_L4_DG = -164.09486305712826
MANY_DG = -17672.873991818262
PINNED_RTOL = 1e-6

MANY_CHARGE_RADIUS = 0.7   # charges uniform in a ball of 0.7 R
ORACLE_TERMS = 40          # the 1,000-charge series converges by order ~30


class Workload(NamedTuple):
    setup: Callable      # (size, seed) -> inputs dict; timed as set-up
    reference: Callable  # inputs -> oracle energy; timed apart, never in wall_s
    run: Callable        # (inputs, scratch dir) -> outcome dict; the timed operation
    check: Callable      # (outcome, reference, size) -> list of problems


def rotation(seed: int) -> np.ndarray:
    """Seeded uniform random rotation; the identity for seed 0."""
    if seed == 0:
        return np.eye(3)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _rotate_mesh(mesh: pa.SurfaceMesh, rot) -> pa.SurfaceMesh:
    return pa.SurfaceMesh(mesh.vertices @ rot.T, mesh.triangles)


def _rotate_charges(charges: pa.ChargeSet, rot) -> pa.ChargeSet:
    return pa.ChargeSet(charges.positions @ rot.T, charges.charges)


def imbalanced_start(charges, background, level, away_rounds, cap_angle_deg=42.0):
    """Sphere mesh refined away from the charges, coarse in caps around them.

    Each round 4-splits (with closure) every panel whose direction lies more
    than ``cap_angle_deg`` from every charge direction, snapping new
    vertices onto ``background``. Mimics the uneven output of surface
    meshers, so the adaptive loop has to find the under-resolved caps.
    """
    hot = charges.positions / np.linalg.norm(charges.positions, axis=1)[:, None]
    cos_cap = np.cos(np.radians(cap_angle_deg))
    mesh = pa.icosphere(1.0, level)
    for _ in range(away_rounds):
        cen = mesh.centroids / np.linalg.norm(mesh.centroids, axis=1)[:, None]
        marked = set(np.flatnonzero((cen @ hot.T).max(axis=1) <= cos_cap).tolist())
        mesh = refine_conforming(mesh, close_marking(mesh, marked), background)
    return mesh


def _rel(value, reference):
    return abs(value - reference) / abs(reference)


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _pinned(name, value, pinned):
    if abs(value - pinned) > PINNED_RTOL * abs(pinned):
        return [f"{name} {value!r} differs from the seed-0 value {pinned!r} by more than {PINNED_RTOL:g}"]
    return []


def _common_checks(workload, energies, reference, size):
    problems = []
    if not _finite(*energies):
        problems.append(f"non-finite energy in {energies}")
    elif _rel(energies[-1], reference) > REL_ERR_LIMIT[size][workload]:
        problems.append(
            f"rel_err {_rel(energies[-1], reference):.4g} exceeds {REL_ERR_LIMIT[size][workload]:g}"
        )
    return problems


# -- adapt_offcenter ------------------------------------------------------------


def setup_adapt(size, seed):
    p = SIZES[size]
    case = offcenter_benchmark()
    background = pa.icosphere(1.0, p["background_level"])
    mesh0 = imbalanced_start(case.charges, background, p["start_level"], p["away_rounds"])
    rot = rotation(seed)
    charges = _rotate_charges(case.charges, rot)
    background = _rotate_mesh(background, rot)
    config = pa.AdaptiveConfig(
        estimator_tag="Eu",
        marking_fraction=0.10,
        adjoint_refine_levels=0,
        refinement_mode="conforming",
        max_iterations=p["iterations"],
        background_mesh=background,
    )
    case = pa.SphereCase(case.radius, charges, case.physics, case.n_terms)
    return {"case": case, "mesh0": _rotate_mesh(mesh0, rot), "config": config}


def reference_adapt(inputs):
    return pa.kirkwood_energy(inputs["case"])


def run_adapt(inputs, scratch: Path):
    case = inputs["case"]
    history = pa.adaptive_loop(inputs["mesh0"], case.charges, case.physics, inputs["config"])
    pa.save_history(history, scratch)
    return {
        "energies": [r.energy.dG_solv for r in history],
        "panels": [r.mesh.n_panels for r in history],
        "iter_wall_s": [r.wall_time_s for r in history],
        "gmres_iters": [r.energy.diagnostics["gmres_iters"] for r in history],
        "panels_final": history[-1].mesh.n_panels,
        "bytes_written": sum(f.stat().st_size for f in scratch.iterdir()),
    }


def check_adapt(out, reference, size):
    problems = _common_checks("adapt_offcenter", out["energies"], reference, size)
    if size == "full":
        if time_to_1pct(out, reference) is None:
            problems.append("no iteration came within 1 % of the oracle")
        if out["panels"][0] != ADAPT_START_PANELS:
            problems.append(f"start mesh has {out['panels'][0]} panels, not {ADAPT_START_PANELS}")
        problems += _pinned("iteration-0 dG", out["energies"][0], ADAPT_ITER0_DG)
    return problems


def time_to_1pct(out, reference):
    """Cumulative loop time up to the first iteration within 1 % of the oracle."""
    elapsed = 0.0
    for energy, wall in zip(out["energies"], out["iter_wall_s"]):
        elapsed += wall
        if _rel(energy, reference) <= 0.01:
            return elapsed
    return None


# -- solve_born_l4 ----------------------------------------------------------------


def setup_born(size, seed):
    mesh = _rotate_mesh(pa.icosphere(1.0, SIZES[size]["born_level"]), rotation(seed))
    physics = pa.BiePhysics(eps_m=1.0, eps_w=80.0, kappa=0.0)
    charges = pa.ChargeSet(np.zeros((1, 3)), np.array([1.0]))
    return {"mesh": mesh, "physics": physics, "charges": charges}


def reference_born(inputs):
    return pa.born_energy(1.0, 1.0, inputs["physics"])


def run_born(inputs, scratch):
    forward = pa.solve_forward(inputs["mesh"], inputs["physics"], inputs["charges"])
    energy = pa.solvation_energy(forward, inputs["charges"], inputs["physics"])
    return {
        "energies": [energy.dG_solv],
        "panels": [inputs["mesh"].n_panels],
        "gmres_iters": [forward.gmres_iters],
        "panels_final": inputs["mesh"].n_panels,
    }


def check_born(out, reference, size):
    problems = _common_checks("solve_born_l4", out["energies"], reference, size)
    if size == "full":
        problems += _pinned("dG", out["energies"][0], BORN_L4_DG)
    return problems


# -- estimate_manycharge ------------------------------------------------------------


def many_charges(n):
    """n charges uniform in a ball of radius 0.7, values +-U(0.2, 1); fixed draw."""
    rng = np.random.default_rng(0)
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radius = MANY_CHARGE_RADIUS * rng.random(n) ** (1.0 / 3.0)
    values = rng.choice([-1.0, 1.0], n) * rng.uniform(0.2, 1.0, n)
    return pa.ChargeSet(direction * radius[:, None], values)


def setup_many(size, seed):
    p = SIZES[size]
    rot = rotation(seed)
    return {
        "mesh": _rotate_mesh(pa.icosphere(1.0, p["many_level"]), rot),
        "background": _rotate_mesh(pa.icosphere(1.0, p["background_level"]), rot),
        "charges": _rotate_charges(many_charges(p["n_charges"]), rot),
        "physics": pa.BiePhysics(eps_m=4.0, eps_w=80.0, kappa=0.125),
    }


def reference_many(inputs):
    case = pa.SphereCase(1.0, inputs["charges"], inputs["physics"], ORACLE_TERMS)
    return pa.kirkwood_energy(case)


def run_many(inputs, scratch):
    mesh, physics, charges = inputs["mesh"], inputs["physics"], inputs["charges"]
    forward = pa.solve_forward(mesh, physics, charges)
    energy = pa.solvation_energy(forward, charges, physics)
    adjoint = pa.solve_adjoint(
        mesh, physics, charges, refine_levels=1, background=inputs["background"]
    )
    eu = pa.estimate_Eu(forward, adjoint, charges, physics)
    ephi = pa.estimate_Ephi(forward, adjoint, charges, physics)
    return {
        "energies": [energy.dG_solv],
        "panels": [mesh.n_panels],
        "gmres_iters": [forward.gmres_iters, adjoint.gmres_iters],
        "panels_final": mesh.n_panels,
        "estimate_Eu": eu.signed_total,
        "estimate_Ephi": ephi.signed_total,
    }


def effectivity_err(out, reference):
    return abs(pa.effectivity(out["estimate_Eu"], out["energies"][-1], reference) - 1.0)


def check_many(out, reference, size):
    problems = _common_checks("estimate_manycharge", out["energies"], reference, size)
    if not _finite(out["estimate_Eu"], out["estimate_Ephi"]):
        problems.append("non-finite error estimate")
    elif not effectivity_err(out, reference) < 0.5:
        problems.append(f"Eu effectivity error {effectivity_err(out, reference):.4g} >= 0.5")
    if size == "full":
        problems += _pinned("dG", out["energies"][0], MANY_DG)
    return problems


WORKLOADS = {
    "adapt_offcenter": Workload(setup_adapt, reference_adapt, run_adapt, check_adapt),
    "solve_born_l4": Workload(setup_born, reference_born, run_born, check_born),
    "estimate_manycharge": Workload(setup_many, reference_many, run_many, check_many),
}
