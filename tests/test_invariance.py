"""Invariances the sphere tests, run in one orientation only, cannot see:
rigid motion, scaling, and P0/P1 agreement in the limit and on an ellipsoid."""

import dataclasses

import numpy as np
import pytest

import pbadapt as pa
from pbadapt import kernels
from pbadapt.mesh import points_inside, winding_number
from pbadapt.oracle import offcenter_benchmark

GMRES_TOL = 1e-12

# (kappa, graded far field) of each operator path: the sphere tests' own,
# then kappa = 0, which stores only the top block row, and the far field
# graded by distance (``kernels.grades`` forced on; the capped mesh is not
# graded) at both kappas
PATHS = {"": (0.125, False), "kappa0": (0.0, False), "graded": (0.125, True),
         "graded-kappa0": (0.0, True)}


@pytest.fixture(scope="module")
def capped():
    """Level-2 sphere with a flat-refined cap (centroid z > 0.5) and two charges."""
    mesh = pa.icosphere(1.0, 2)
    mesh = pa.refine_flat(mesh, pa.close_marking(mesh, np.flatnonzero(mesh.centroids[:, 2] > 0.5)))
    charges = pa.ChargeSet(np.array([[0.1, -0.2, 0.5], [-0.3, 0.1, -0.2]]), np.array([1.0, -0.6]))
    return mesh, charges, pa.BiePhysics(eps_m=4.0, eps_w=80.0, kappa=0.125)


def _energies(mesh, charges, physics):
    """dG of the P0 forward and the P1 (unrefined) adjoint solve."""
    forward = pa.solve_forward(mesh, physics, charges, gmres_tol=GMRES_TOL)
    adjoint = pa.solve_adjoint(mesh, physics, charges, refine_levels=0, gmres_tol=GMRES_TOL)
    return np.array([pa.solvation_energy(s, charges, physics).dG_solv for s in (forward, adjoint)])


def _on_path(path, physics, monkeypatch):
    kappa, graded = PATHS[path]
    if graded:
        monkeypatch.setattr(kernels, "grades", lambda mesh: True)
    return dataclasses.replace(physics, kappa=kappa)


def _moved(mesh, charges, rotation, shift=0.0, scale=1.0):
    def move(points):
        return scale * points @ rotation.T + shift

    return (pa.SurfaceMesh(move(mesh.vertices), mesh.triangles),
            pa.ChargeSet(move(charges.positions), charges.charges))


@pytest.mark.parametrize(("path", "seed"), [pytest.param(p, s, id=f"{p}-{s}" if p else str(s))
                                            for p in PATHS for s in (0, 1, 2)])
def test_rigid_motion_leaves_energy_unchanged(capped, path, seed, monkeypatch):
    mesh, charges, physics = capped
    physics = _on_path(path, physics, monkeypatch)
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    rotation = q * np.sign(np.diag(r))
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] *= -1.0
    moved = _energies(*_moved(mesh, charges, rotation, shift=rng.normal(size=3)), physics)
    np.testing.assert_allclose(moved, _energies(mesh, charges, physics), rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("path", [pytest.param(p, id=p or "default") for p in PATHS])
def test_scaling_lengths_with_kappa_scales_energy(capped, path, monkeypatch):
    mesh, charges, physics = capped
    physics = _on_path(path, physics, monkeypatch)
    scaled = _energies(*_moved(mesh, charges, np.eye(3), scale=3.0),
                       dataclasses.replace(physics, kappa=physics.kappa / 3.0))
    np.testing.assert_allclose(scaled, _energies(mesh, charges, physics) / 3.0,
                               rtol=1e-11, atol=0.0)


def test_p0_and_p1_reach_the_same_richardson_limit():
    case = offcenter_benchmark()
    energies = np.array([_energies(pa.icosphere(case.radius, level), case.charges, case.physics)
                         for level in (1, 2, 3)])
    p0, _ = pa.richardson(energies[:, 0])
    p1, _ = pa.richardson(energies[:, 1])
    exact = pa.kirkwood_energy(case)
    assert abs(p0 - p1) <= 2e-4 * abs(exact)
    assert abs(p0 - exact) <= 3e-4 * abs(exact)
    assert abs(p1 - exact) <= 3e-4 * abs(exact)


def test_p0_and_p1_converge_together_on_an_ellipsoid():
    """A non-spherical surface: icosphere levels 1-3 mapped to semi-axes
    (1, 0.8, 0.65). Both discretizations converge to the same energy, so
    their gap shrinks by at least 3x per level (about 4x for second order)."""
    charges = pa.ChargeSet(np.array([[0.1, -0.1, 0.3]]), np.array([1.0]))
    physics = pa.BiePhysics(eps_m=4.0, eps_w=80.0, kappa=0.125)
    axes = np.diag([1.0, 0.8, 0.65])
    gaps = []
    for level in (1, 2, 3):
        sphere = pa.icosphere(1.0, level)
        p0, p1 = _energies(pa.SurfaceMesh(sphere.vertices @ axes, sphere.triangles), charges,
                           physics)
        gaps.append(abs(p0 - p1))
    assert gaps[1] <= gaps[0] / 3.0 and gaps[2] <= gaps[1] / 3.0


@pytest.mark.parametrize(("shift", "scale"), [(0.0, 1.0), (1e3, 1.0), (0.0, 1e-3), (0.0, 1e3)],
                         ids=["rotation", "shift-1e3", "scale-1e-3", "scale-1e3"])
def test_inside_masks_do_not_depend_on_placement(capped, shift, scale):
    """The ray-crossing inside test gives the same mask, and the mask of
    ``winding_number > 0.5``, after a rotation with a translation or a scaling."""
    mesh = capped[0]
    rng = np.random.default_rng(4)
    points = rng.uniform(-1.3, 1.3, (3000, 3))
    want = points_inside(mesh, points)
    assert 0 < want.sum() < len(points)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    rotation = q * np.sign(np.diag(r))
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] *= -1.0
    moved, charges = _moved(mesh, pa.ChargeSet(points, np.ones(len(points))), rotation, shift, scale)
    got = points_inside(moved, charges.positions)
    assert np.array_equal(got, want)
    assert np.array_equal(got, winding_number(moved, charges.positions) > 0.5)
