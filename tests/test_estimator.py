import dataclasses

import numpy as np
import pytest

import pbadapt as pa
from pbadapt.errors import EffectivityUndefinedError, UsageError
from pbadapt.oracle import offcenter_benchmark
from pbadapt.physics import coulomb_potential
from pbadapt.quadrature import GAUSS3

from pointwise import coulomb_gradient


@pytest.fixture(scope="module")
def small_problem():
    case = offcenter_benchmark()
    mesh = pa.icosphere(1.0, 1)
    forward = pa.solve_forward(mesh, case.physics, case.charges)
    adjoint = pa.solve_adjoint(mesh, case.physics, case.charges, refine_levels=1)
    return case, mesh, forward, adjoint


def _zeroed(adjoint):
    return dataclasses.replace(
        adjoint,
        u_trace=np.zeros_like(adjoint.u_trace),
        dudn_trace=np.zeros_like(adjoint.dudn_trace),
    )


def _scaled(adjoint, lam):
    return dataclasses.replace(
        adjoint, u_trace=lam * adjoint.u_trace, dudn_trace=lam * adjoint.dudn_trace
    )


def test_zero_adjoint_zeroes_ephi(small_problem):
    case, mesh, forward, adjoint = small_problem
    emap = pa.estimate_Ephi(forward, _zeroed(adjoint), case.charges, case.physics)
    assert np.all(emap.per_panel == 0.0)
    assert emap.signed_total == 0.0


def test_all_zero_solutions_zero_eu(small_problem):
    case, mesh, forward, adjoint = small_problem
    dead_forward = dataclasses.replace(
        forward,
        u_trace=np.zeros_like(forward.u_trace),
        dudn_trace=np.zeros_like(forward.dudn_trace),
    )
    emap = pa.estimate_Eu(dead_forward, _zeroed(adjoint), case.charges, case.physics)
    assert np.all(emap.per_panel == 0.0)


def test_per_panel_bounds_signed_total(small_problem):
    case, mesh, forward, adjoint = small_problem
    for fn in (pa.estimate_Ephi, pa.estimate_Eu):
        emap = fn(forward, adjoint, case.charges, case.physics)
        assert np.all(emap.per_panel >= 0.0)
        assert abs(emap.signed_total) <= emap.per_panel.sum() * (1 + 1e-12)
        assert emap.signed_total == pytest.approx(emap.signed_per_panel.sum(), rel=1e-12)


def test_signed_total_matches_ungrouped_sum(small_problem):
    """Regrouping oracle: rebuild the integrand per fine triangle and sum flat."""
    case, mesh, forward, adjoint = small_problem
    phys, charges = case.physics, case.charges
    fine = adjoint.mesh_ref
    rule = GAUSS3
    tris = fine.triangles
    pts = np.einsum("qk,tkx->tqx", rule.points, fine.vertices[tris]).reshape(-1, 3)
    nrm = np.repeat(fine.normals, rule.n_points, axis=0)
    wts = (rule.weights[None, :] * fine.areas[:, None]).ravel()
    u_c = coulomb_potential(charges, phys, pts)
    du_c = np.einsum("mx,mx->m", coulomb_gradient(charges, phys, pts), nrm)
    phi = np.einsum("ql,tl->tq", rule.points, adjoint.u_trace[tris]).ravel()
    dphi = np.einsum("ql,tl->tq", rule.points, adjoint.dudn_trace[tris]).ravel()
    nq = rule.n_points
    u_f = np.repeat(forward.u_trace[fine.parent_map], nq)
    du_f = np.repeat(forward.dudn_trace[fine.parent_map], nq)
    half_eps = 0.5 * phys.eps_m
    flat_ephi = np.sum(
        wts * half_eps * ((dphi * u_c - phi * du_c) + dphi * (u_f - u_c) - phi * (du_f - du_c))
    )
    emap = pa.estimate_Ephi(forward, adjoint, charges, phys)
    assert emap.signed_total == pytest.approx(phys.energy_unit * flat_ephi, rel=1e-12)


def test_ephi_per_panel_matches_coulomb_split_formula(small_problem):
    """Ephi without the Coulomb trace equals the dual bracket of the Coulomb
    traces plus that of the reaction-field traces, panel by panel."""
    case, mesh, forward, adjoint = small_problem
    phys, charges = case.physics, case.charges
    fine = adjoint.mesh_ref
    rule, nq = GAUSS3, GAUSS3.n_points
    tris = fine.triangles
    pts = np.einsum("qk,tkx->tqx", rule.points, fine.vertices[tris]).reshape(-1, 3)
    nrm = np.repeat(fine.normals, nq, axis=0)
    wts = (rule.weights[None, :] * fine.areas[:, None]).ravel()
    u_c = coulomb_potential(charges, phys, pts)
    du_c = np.einsum("mx,mx->m", coulomb_gradient(charges, phys, pts), nrm)
    phi = np.einsum("ql,tl->tq", rule.points, adjoint.u_trace[tris]).ravel()
    dphi = np.einsum("ql,tl->tq", rule.points, adjoint.dudn_trace[tris]).ravel()
    u_r = np.repeat(forward.u_trace[fine.parent_map], nq) - u_c
    du_r = np.repeat(forward.dudn_trace[fine.parent_map], nq) - du_c
    integrand = 0.5 * phys.eps_m * ((dphi * u_c - phi * du_c) + dphi * u_r - phi * du_r)
    per_fine = (wts * integrand).reshape(fine.n_panels, nq).sum(axis=1)
    want = phys.energy_unit * np.bincount(fine.parent_map, weights=per_fine,
                                          minlength=mesh.n_panels)
    got = pa.estimate_Ephi(forward, adjoint, charges, phys).signed_per_panel
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).sum()


def test_estimators_linear_in_adjoint(small_problem):
    case, mesh, forward, adjoint = small_problem
    phys, charges = case.physics, case.charges
    lam = 2.0
    base = pa.estimate_Ephi(forward, adjoint, charges, phys)
    scaled = pa.estimate_Ephi(forward, _scaled(adjoint, lam), charges, phys)
    assert np.allclose(scaled.signed_per_panel, lam * base.signed_per_panel, rtol=1e-12)
    # the dual-carrying part of the other estimator scales the same way;
    # its forward-only part is unaffected
    eu0 = pa.estimate_Eu(forward, _zeroed(adjoint), charges, phys)
    eu1 = pa.estimate_Eu(forward, adjoint, charges, phys)
    eu2 = pa.estimate_Eu(forward, _scaled(adjoint, lam), charges, phys)
    assert np.allclose(
        eu2.signed_per_panel - eu0.signed_per_panel,
        lam * (eu1.signed_per_panel - eu0.signed_per_panel),
        rtol=1e-12,
        atol=1e-14,
    )


def test_missing_genealogy_rejected(small_problem):
    case, mesh, forward, adjoint = small_problem
    stripped = dataclasses.replace(
        adjoint, mesh_ref=dataclasses.replace(adjoint.mesh_ref, parent_map=None)
    )
    with pytest.raises(UsageError):
        pa.estimate_Eu(forward, stripped, case.charges, case.physics)


def test_space_mismatch_rejected(small_problem):
    case, mesh, forward, adjoint = small_problem
    with pytest.raises(UsageError):
        pa.estimate_Ephi(adjoint, adjoint, case.charges, case.physics)
    with pytest.raises(UsageError):
        pa.estimate_Ephi(forward, forward, case.charges, case.physics)


def test_effectivity_identities():
    assert pa.effectivity(0.5, -10.0, -9.5) == pytest.approx(1.0)
    assert pa.effectivity(-0.5, -10.0, -9.5) == pytest.approx(-1.0)
    with pytest.raises(EffectivityUndefinedError):
        pa.effectivity(0.1, -10.0, -10.0)
