"""Invariances the sphere tests, run in one orientation only, cannot see:
rigid motion, scaling, and P0/P1 agreement in the limit."""

import dataclasses

import numpy as np
import pytest

import pbadapt as pa
from pbadapt.oracle import offcenter_benchmark

GMRES_TOL = 1e-12


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


def _moved(mesh, charges, rotation, shift=0.0, scale=1.0):
    def move(points):
        return scale * points @ rotation.T + shift

    return (pa.SurfaceMesh(move(mesh.vertices), mesh.triangles),
            pa.ChargeSet(move(charges.positions), charges.charges))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rigid_motion_leaves_energy_unchanged(capped, seed):
    mesh, charges, physics = capped
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    rotation = q * np.sign(np.diag(r))
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] *= -1.0
    moved = _energies(*_moved(mesh, charges, rotation, shift=rng.normal(size=3)), physics)
    np.testing.assert_allclose(moved, _energies(mesh, charges, physics), rtol=1e-11, atol=0.0)


def test_scaling_lengths_with_kappa_scales_energy(capped):
    mesh, charges, physics = capped
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
