import numpy as np
import pytest
from scipy.spatial import cKDTree

import pbadapt as pa
from pbadapt.errors import DomainError, SolverError, UsageError

FOUR_PI = 4.0 * np.pi


@pytest.fixture(scope="module")
def salty():
    return pa.BiePhysics(eps_m=4.0, eps_w=80.0, kappa=0.125)


@pytest.fixture(scope="module")
def offcenter_charge():
    return pa.ChargeSet(np.array([[0.0, 0.0, 0.5]]), np.array([1.0]))


def test_system_shape_and_rhs_structure(salty, offcenter_charge):
    mesh = pa.icosphere(1.0, 1)
    a, b = pa.assemble_system(mesh, salty, offcenter_charge)
    n = mesh.n_panels
    assert a.shape == (2 * n, 2 * n)
    assert b.shape == (2 * n,)
    assert np.all(b[n:] == 0.0)
    # first block of the rhs is the Coulomb potential; direct-sum oracle
    direct = np.array(
        [
            sum(
                q / (FOUR_PI * np.linalg.norm(c - rq))
                for q, rq in zip(offcenter_charge.charges, offcenter_charge.positions)
            )
            / salty.eps_m
            for c in mesh.centroids
        ]
    )
    assert np.allclose(b[:n], direct, rtol=1e-12)


def test_kernel_degeneracy_when_kappa_zero_and_equal_eps(offcenter_charge):
    phys = pa.BiePhysics(eps_m=80.0, eps_w=80.0, kappa=0.0)
    mesh = pa.icosphere(1.0, 1)
    a, _ = pa.assemble_system(mesh, phys, offcenter_charge)
    n = mesh.n_panels
    eye = np.eye(n)
    kl = a[:n, :n] - 0.5 * eye
    ky = 0.5 * eye - a[n:, :n]
    vl = -a[:n, n:]
    vy = a[n:, n:]  # eps_m/eps_w = 1
    assert np.allclose(kl, ky, atol=1e-15)
    assert np.allclose(vl, vy, atol=1e-15)
    assert np.all(np.diag(kl) == 0.0)


def test_single_layer_kernel_symmetry(born_setup):
    # collocation V is not a symmetric matrix (entries scale with the column
    # panel's area); the kernel symmetry shows once areas are divided out
    phys, charges = born_setup
    mesh = pa.icosphere(1.0, 3)
    a, _ = pa.assemble_system(mesh, phys, charges)
    n = mesh.n_panels
    vl = -a[:n, n:] / mesh.areas[None, :]
    assert np.linalg.norm(vl - vl.T) / np.linalg.norm(vl) < 1e-2


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_assembly_independent_of_threads(salty, offcenter_charge, space, monkeypatch):
    # a small budget splits the rows into many batches for the workers
    monkeypatch.setattr(pa.kernels, "ROW_BATCH_VALUES", 1.0e5)
    mesh = pa.icosphere(1.0, 2)
    a1, b1 = pa.assemble_system(mesh, salty, offcenter_charge, space=space, threads=1)
    a2, b2 = pa.assemble_system(mesh, salty, offcenter_charge, space=space, threads=2)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)


def test_reaction_potential_independent_of_threads(salty, offcenter_charge, monkeypatch):
    monkeypatch.setattr(pa.kernels, "ROW_BATCH_VALUES", 1.0e5)
    mesh = pa.icosphere(1.0, 2)
    rng = np.random.default_rng(3)
    dirs = rng.standard_normal((60, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    targets = dirs * rng.uniform(0.2, 0.95, 60)[:, None]  # some near the surface
    for sol in (
        pa.solve_forward(mesh, salty, offcenter_charge),
        pa.solve_adjoint(mesh, salty, offcenter_charge, refine_levels=0),
    ):
        serial = pa.reaction_potential(sol, targets, threads=1)
        assert np.array_equal(serial, pa.reaction_potential(sol, targets, threads=2))


def test_charge_outside_rejected(salty):
    mesh = pa.icosphere(1.0, 1)
    charges = pa.ChargeSet(np.array([[0.0, 0.0, 2.0]]), np.array([1.0]))
    with pytest.raises(DomainError):
        pa.assemble_system(mesh, salty, charges)


def test_forward_born_trace_constant(born_setup):
    phys, charges = born_setup
    mesh = pa.icosphere(1.0, 3)
    sol = pa.solve_forward(mesh, phys, charges)
    analytic = 1.0 / (FOUR_PI * phys.eps_w)  # u(R) for the centered unit charge
    spread = sol.u_trace.std() / np.abs(sol.u_trace.mean())
    assert spread < 0.01
    assert sol.u_trace.mean() == pytest.approx(analytic, rel=0.02)
    assert sol.gmres_residual <= 1e-8


def test_forward_mirror_symmetry(salty):
    mesh = pa.icosphere(1.0, 1)
    charges = pa.ChargeSet(
        np.array([[0.0, 0.3, 0.2], [0.0, -0.3, 0.2]]), np.array([1.0, 1.0])
    )
    sol = pa.solve_forward(mesh, salty, charges)
    mirrored = mesh.centroids.copy()
    mirrored[:, 1] *= -1.0
    _, idx = cKDTree(mesh.centroids).query(mirrored)
    assert np.abs(sol.u_trace - sol.u_trace[idx]).max() < 1e-9


def test_solution_invariant_under_panel_permutation(salty, offcenter_charge):
    mesh = pa.icosphere(1.0, 1)
    rng = np.random.default_rng(42)
    perm = rng.permutation(mesh.n_panels)
    permuted = pa.SurfaceMesh(mesh.vertices, mesh.triangles[perm])
    s1 = pa.solve_forward(mesh, salty, offcenter_charge)
    s2 = pa.solve_forward(permuted, salty, offcenter_charge)
    assert np.abs(s2.u_trace - s1.u_trace[perm]).max() < 1e-10
    assert np.abs(s2.dudn_trace - s1.dudn_trace[perm]).max() < 1e-10


def test_gmres_tolerance_changes_energy_less_than_discretization(born_setup):
    phys, charges = born_setup
    mesh = pa.icosphere(1.0, 3)
    tight = pa.solvation_energy(
        pa.solve_forward(mesh, phys, charges, gmres_tol=1e-8), charges, phys
    )
    loose = pa.solvation_energy(
        pa.solve_forward(mesh, phys, charges, gmres_tol=1e-4), charges, phys
    )
    discretization = abs(tight.dG_solv - pa.born_energy(1.0, 1.0, phys))
    assert abs(loose.dG_solv - tight.dG_solv) < discretization


def test_gmres_nonconvergence_raises(salty, offcenter_charge):
    mesh = pa.icosphere(1.0, 1)
    with pytest.raises(SolverError) as err:
        pa.solve_forward(mesh, salty, offcenter_charge, max_iters=2)
    assert err.value.residual is not None and err.value.residual > 1e-8


def test_gmres_restarts_until_true_residual_meets_tol(salty, offcenter_charge, monkeypatch):
    # the first GMRES call stops early, as scipy may on its own residual
    # estimate; the solve restarts from the iterate instead of failing
    real = pa.solver.gmres
    restarts = []

    def stops_early_once(a, b, **kwargs):
        restarts.append(kwargs["restart"])
        if len(restarts) == 1:
            kwargs["restart"] = 3
        return real(a, b, **kwargs)

    monkeypatch.setattr(pa.solver, "gmres", stops_early_once)
    sol = pa.solve_forward(pa.icosphere(1.0, 1), salty, offcenter_charge)
    assert len(restarts) >= 2
    assert sol.gmres_residual <= 1e-8
    assert sol.gmres_iters > 3  # both calls' iterations are counted


def test_adjoint_dof_counts(salty, offcenter_charge):
    mesh = pa.icosphere(1.0, 1)
    adj0 = pa.solve_adjoint(mesh, salty, offcenter_charge, refine_levels=0)
    assert adj0.space == "P1"
    assert len(adj0.u_trace) == mesh.n_vertices
    assert np.array_equal(adj0.mesh_ref.parent_map, np.arange(mesh.n_panels))
    adj1 = pa.solve_adjoint(mesh, salty, offcenter_charge, refine_levels=1)
    assert adj1.mesh_ref.n_panels == 4 * mesh.n_panels
    assert len(adj1.u_trace) == adj1.mesh_ref.n_vertices
    assert adj1.mesh_ref.parent_map.max() == mesh.n_panels - 1


def test_adjoint_conforming_lands_on_background(salty, offcenter_charge, background):
    mesh = pa.icosphere(1.0, 1)
    adj = pa.solve_adjoint(
        mesh, salty, offcenter_charge, refine_levels=1, background=background
    )
    new = adj.mesh_ref.vertices[mesh.n_vertices :]
    assert np.abs(np.linalg.norm(new, axis=1) - 1.0).max() <= background.mean_edge_length


def test_adjoint_agrees_with_forward_trace(salty, offcenter_charge):
    # the dual equals the potential itself, so both solves see the same trace
    mesh = pa.icosphere(1.0, 2)
    fwd = pa.solve_forward(mesh, salty, offcenter_charge)
    adj = pa.solve_adjoint(mesh, salty, offcenter_charge, refine_levels=0)
    panel_mean = adj.u_trace[mesh.triangles].mean(axis=1)
    rel_mean = np.abs(panel_mean - fwd.u_trace).mean() / np.abs(fwd.u_trace).mean()
    assert rel_mean < 0.10


def test_adjoint_born_trace(born_setup):
    phys, charges = born_setup
    mesh = pa.icosphere(1.0, 2)
    fwd = pa.solve_forward(mesh, phys, charges)
    adj = pa.solve_adjoint(mesh, phys, charges, refine_levels=0)
    panel_mean = adj.u_trace[mesh.triangles].mean(axis=1)
    assert np.abs(panel_mean - fwd.u_trace).max() / np.abs(fwd.u_trace).max() < 0.05


def test_bad_space_rejected(salty, offcenter_charge):
    mesh = pa.icosphere(1.0, 1)
    with pytest.raises(UsageError):
        pa.assemble_system(mesh, salty, offcenter_charge, space="P2")
    with pytest.raises(UsageError):
        pa.solve_adjoint(mesh, salty, offcenter_charge, refine_levels=-1)
