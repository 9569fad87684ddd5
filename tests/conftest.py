import numpy as np
import pytest

import pbadapt as pa
from pbadapt.mesh import close_marking, refine_conforming


def make_tetrahedron():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    tris = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return pa.SurfaceMesh(verts, tris)


# (height, centre direction, width) of two bumps and two dents
BUMPS = [(0.6, (1, 0, 0), 0.3), (-0.5, (0, 1, 1), 0.35), (0.4, (-1, -1, 0), 0.25),
         (-0.4, (0, 0, -1), 0.3)]


def bumpy_sphere(level, bumps):
    """Icosphere mapped radially by r = 1 + sum a exp(-|x - c|^2 / w^2) over
    ``bumps`` of (a, c, w); negative heights dent it, so it is not convex."""
    sphere = pa.icosphere(1.0, level)
    x = sphere.vertices
    r = 1.0 + sum(a * np.exp(-((x - np.asarray(c) / np.linalg.norm(c)) ** 2).sum(axis=1) / w**2)
                  for a, c, w in bumps)
    return pa.SurfaceMesh(x * r[:, None], sphere.triangles)


def imbalanced_sphere_start(case, background, level=1, away_rounds=2, cap_angle_deg=42.0):
    """Sphere start mesh that is coarse around the charge hotspots.

    Mimics the uneven output of production surface meshers: the refinement
    loop has to discover and fix the under-resolved caps.
    """
    hot = case.charges.positions / np.linalg.norm(case.charges.positions, axis=1)[:, None]
    cos_cap = np.cos(np.radians(cap_angle_deg))
    mesh = pa.icosphere(case.radius, level)
    for _ in range(away_rounds):
        cen = mesh.centroids / np.linalg.norm(mesh.centroids, axis=1)[:, None]
        marked = set(np.flatnonzero((cen @ hot.T).max(axis=1) <= cos_cap).tolist())
        mesh = refine_conforming(mesh, close_marking(mesh, marked), background)
    return mesh


@pytest.fixture(scope="session")
def background():
    return pa.icosphere(1.0, 6)


@pytest.fixture(scope="session")
def born_setup():
    physics = pa.BiePhysics(eps_m=1.0, eps_w=80.0, kappa=0.0)
    charges = pa.ChargeSet(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))
    return physics, charges


def _benchmark_bundle(case, background):
    """Shared heavy pipeline: adaptive history, uniform baseline, oracle value."""
    exact = pa.kirkwood_energy(case)
    mesh0 = imbalanced_sphere_start(case, background)
    config = pa.AdaptiveConfig(
        estimator_tag="Eu",
        marking_fraction=0.10,
        adjoint_refine_levels=0,
        refinement_mode="conforming",
        max_iterations=20,
        background_mesh=background,
    )
    adaptive = pa.adaptive_loop(mesh0, case.charges, case.physics, config)
    uniform = pa.uniform_loop(
        mesh0, case.charges, case.physics, levels=2, background=background
    )
    return {
        "case": case,
        "exact": exact,
        "mesh0": mesh0,
        "adaptive": adaptive,
        "uniform": uniform,
    }


@pytest.fixture(scope="session")
def offcenter_bundle(background):
    from pbadapt.oracle import offcenter_benchmark

    return _benchmark_bundle(offcenter_benchmark(), background)


@pytest.fixture(scope="session")
def dipole_bundle(background):
    from pbadapt.oracle import charge_dipole_benchmark

    return _benchmark_bundle(charge_dipole_benchmark(), background)
