import os

import numpy as np
import pytest
from scipy.spatial import cKDTree

import pbadapt as pa
from pbadapt.errors import DomainError, SolverError, UsageError
from pbadapt.mesh import refine

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


def _use_cpus(monkeypatch, cpus):
    """Make the kernel layer see ``cpus`` usable CPUs.

    The row batch size does not depend on the CPU count, and on these
    meshes the production size splits the rows into many batches.
    """
    monkeypatch.setattr(pa.sweep, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_assembly_independent_of_threads(salty, offcenter_charge, space, monkeypatch):
    mesh = pa.icosphere(1.0, 2)
    _use_cpus(monkeypatch, 1)
    a1, b1 = pa.assemble_system(mesh, salty, offcenter_charge, space=space)
    _use_cpus(monkeypatch, 2)
    a2, b2 = pa.assemble_system(mesh, salty, offcenter_charge, space=space)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)


def test_reaction_potential_independent_of_threads(salty, offcenter_charge, monkeypatch):
    mesh = pa.icosphere(1.0, 2)
    rng = np.random.default_rng(3)
    dirs = rng.standard_normal((60, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    targets = dirs * rng.uniform(0.2, 0.95, 60)[:, None]  # some near the surface
    for sol in (
        pa.solve_forward(mesh, salty, offcenter_charge),
        pa.solve_adjoint(mesh, salty, offcenter_charge, refine_levels=0),
    ):
        _use_cpus(monkeypatch, 1)
        serial = pa.reaction_potential(sol, targets)
        _use_cpus(monkeypatch, 2)
        assert np.array_equal(serial, pa.reaction_potential(sol, targets))


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


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_preconditioned_solve_matches_direct_solve(salty, offcenter_charge, space):
    mesh = pa.icosphere(1.0, 1)
    a, b = pa.assemble_system(mesh, salty, offcenter_charge, space=space)
    if space == "P0":
        sol = pa.solve_forward(mesh, salty, offcenter_charge, gmres_tol=1e-8)
    else:
        sol = pa.solve_adjoint(mesh, salty, offcenter_charge, refine_levels=0, gmres_tol=1e-8)
    x = np.concatenate([sol.u_trace, sol.dudn_trace])
    residual = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
    assert sol.gmres_residual == pytest.approx(residual, rel=1e-12)
    assert residual <= 1e-8
    direct = np.linalg.solve(a, b)
    # relative error <= cond(A) * relative residual
    assert np.linalg.norm(x - direct) <= np.linalg.cond(a) * 1e-8 * np.linalg.norm(direct)


def test_born_solve_needs_one_gmres_call(born_setup, monkeypatch):
    # GMRES on the right-preconditioned system stops on the true residual, so
    # even at 1e-12 one call converges; left preconditioning (scipy's M=)
    # stops short and restarts, and no preconditioning takes about 38 iterations
    phys, charges = born_setup
    real = pa.solver.gmres
    calls = []

    def counted(a, b, **kwargs):
        calls.append(kwargs["restart"])
        return real(a, b, **kwargs)

    monkeypatch.setattr(pa.solver, "gmres", counted)
    sol = pa.solve_forward(pa.icosphere(1.0, 3), phys, charges, gmres_tol=1e-12)
    assert len(calls) == 1
    assert sol.gmres_residual <= 1e-12
    assert sol.gmres_iters <= 25


def test_gmres_matches_direct_solve_on_nonsymmetric_system():
    rng = np.random.default_rng(3)
    a = 4.0 * np.eye(50) + rng.standard_normal((50, 50)) / np.sqrt(50)
    b = rng.standard_normal(50)
    y, steps = pa.solver.gmres(lambda v: a @ v, b, restart=50, atol=1e-14 * np.linalg.norm(b))
    assert steps < 50
    direct = np.linalg.solve(a, b)
    assert np.linalg.norm(y - direct) <= 1e-10 * np.linalg.norm(direct)


def test_gmres_one_step_cycle():
    rng = np.random.default_rng(4)
    a = 4.0 * np.eye(20) + rng.standard_normal((20, 20))
    b = rng.standard_normal(20)
    calls = []

    def operator(v):
        calls.append(1)
        return a @ v

    y, steps = pa.solver.gmres(operator, b, restart=1, atol=0.0)
    assert steps == 1 and len(calls) == 1
    # one step: the multiple of b whose image is closest to b
    ab = a @ b
    assert np.allclose(y, (ab @ b) / (ab @ ab) * b, rtol=1e-12, atol=0.0)


class _CountedMatrix(np.ndarray):
    """A system matrix that counts its products with vectors."""

    products = 0

    def __matmul__(self, other):
        _CountedMatrix.products += 1
        return np.asarray(self) @ other


def test_each_cycle_makes_one_residual_product(salty, offcenter_charge, monkeypatch):
    # every step is one product through the operator, and every cycle one
    # more, for the true residual; the first cycle is cut short so there are two
    real_gmres, real_assemble = pa.solver.gmres, pa.solver.assemble_system
    cycles, steps = [], []

    def assemble(*args, **kwargs):
        a, b = real_assemble(*args, **kwargs)
        return a.view(_CountedMatrix), b

    def counted_gmres(operator, b, **kwargs):
        if not cycles:
            kwargs["restart"] = 3
        cycles.append(kwargs["restart"])

        def counted(v):
            steps.append(1)
            return operator(v)

        return real_gmres(counted, b, **kwargs)

    monkeypatch.setattr(pa.solver, "assemble_system", assemble)
    monkeypatch.setattr(pa.solver, "gmres", counted_gmres)
    _CountedMatrix.products = 0
    sol = pa.solve_forward(pa.icosphere(1.0, 2), salty, offcenter_charge)
    assert len(cycles) >= 2 and sol.gmres_residual <= 1e-8
    assert len(steps) == sol.gmres_iters
    assert _CountedMatrix.products == sol.gmres_iters + len(cycles)


def test_gmres_stalls_after_max_iters():
    rng = np.random.default_rng(6)
    u, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    v, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    a = u @ np.diag(np.logspace(0, -8, 40)) @ v.T
    with pytest.raises(SolverError, match="stalled") as err:
        pa.solver._gmres_solve(a, rng.standard_normal(40), 1e-8, 3)
    assert err.value.iterations == 3
    assert err.value.residual > 1e-8


@pytest.mark.parametrize("corner", [4.0, np.nan], ids=["zero-determinant", "nan"])
def test_singular_point_block_is_solver_error(corner):
    a = np.eye(6) + 0.1 * np.ones((6, 6))  # three collocation points
    a[1, 1], a[1, 4], a[4, 1], a[4, 4] = 1.0, 2.0, 2.0, corner  # point 1's block
    with pytest.raises(SolverError, match="collocation point 1"):
        pa.solver._gmres_solve(a, np.ones(6), 1e-8, 100)


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


@pytest.mark.parametrize("conforming", [False, True], ids=["flat", "conforming"])
def test_adjoint_two_levels_refine_twice(salty, offcenter_charge, background, conforming):
    snap_to = background if conforming else None
    mesh = pa.icosphere(1.0, 1)
    adj = pa.solve_adjoint(
        mesh, salty, offcenter_charge, refine_levels=2, background=snap_to
    )
    f1 = refine(mesh, range(mesh.n_panels), snap_to)
    f2 = refine(f1, range(f1.n_panels), snap_to)
    assert np.array_equal(adj.mesh_ref.vertices, f2.vertices)
    assert np.array_equal(adj.mesh_ref.triangles, f2.triangles)
    assert np.array_equal(adj.mesh_ref.parent_map, f1.parent_map[f2.parent_map])


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


# -- reuse of a held system across an adaptive loop ----------------------------


@pytest.mark.parametrize("levels", [0, 1])
def test_incremental_assembly_matches_scratch(background, levels, monkeypatch):
    """Each reusing assembly of a short conforming loop against one from scratch:
    copied entries equal the held ones bit for bit, whole matrices agree to
    1e-13 max|A| and right-hand sides exactly; the loop's energies agree with
    a loop that never reuses to 1e-12 and its panel trajectory is the same."""
    from pbadapt import solver
    from pbadapt.oracle import offcenter_benchmark

    case = offcenter_benchmark()
    mesh0 = pa.icosphere(1.0, 1)
    config = pa.AdaptiveConfig(
        marking_fraction=0.10,
        adjoint_refine_levels=levels,
        refinement_mode="conforming",
        max_iterations=4,
        background_mesh=background,
    )
    real = solver.assemble_system
    reused = []

    def checked(mesh, physics, charges, space="P0", cache=None):
        held = cache._held
        a, b = real(mesh, physics, charges, space, cache)
        a0, b0 = real(mesh, physics, charges, space)
        assert np.abs(a - a0).max() <= 1e-13 * np.abs(a0).max()
        assert np.array_equal(b, b0)
        n = len(b) // 2
        if held is not None:
            rows, cols = solver._unchanged(held.mesh, mesh, space == "P1")
            assert cache.reused == (np.count_nonzero(rows >= 0), np.count_nonzero(cols >= 0))
            assert cache.computed == (np.count_nonzero(rows < 0), np.count_nonzero(cols < 0))
            old_n = len(held.matrix) // 2
            r, c = np.flatnonzero(rows >= 0), np.flatnonzero(cols >= 0)
            off_diagonal = r[:, None] != c[None, :]  # the diagonal carries the new free term
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                new = a[np.ix_(r + i * n, c + j * n)]
                old = held.matrix[np.ix_(rows[r] + i * old_n, cols[c] + j * old_n)]
                assert np.array_equal(new[off_diagonal], old[off_diagonal])
            reused.append(min(cache.reused))
        return a, b

    monkeypatch.setattr(solver, "assemble_system", checked)
    incremental = pa.adaptive_loop(mesh0, case.charges, case.physics, config)
    monkeypatch.setattr(solver, "assemble_system",
                        lambda *args, cache=None, **kwargs: real(*args, **kwargs))
    scratch = pa.adaptive_loop(mesh0, case.charges, case.physics, config)

    assert len(reused) == 2 * (config.max_iterations - 1) and min(reused) > 0
    assert [r.mesh.n_panels for r in incremental] == [r.mesh.n_panels for r in scratch]
    for inc, ref in zip(incremental, scratch):
        assert np.array_equal(inc.mesh.vertices, ref.mesh.vertices)
        assert np.array_equal(inc.mesh.triangles, ref.mesh.triangles)
        assert inc.energy.dG_solv == pytest.approx(ref.energy.dG_solv, rel=1e-12)


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_graded_incremental_assembly_matches_scratch(salty, offcenter_charge, space, monkeypatch):
    """On graded meshes an entry's rule depends only on its pair, so a system
    that copies the held one's unchanged entries matches one built from
    scratch; a held system of the other grading is not reused."""
    from pbadapt import kernels
    from pbadapt.mesh import close_marking, refine_flat

    mesh = pa.icosphere(1.0, 2)
    refined = refine_flat(mesh, close_marking(mesh, np.flatnonzero(mesh.centroids[:, 2] > 0.6)))
    monkeypatch.setattr(kernels, "grades", lambda m: True)
    cache = pa.SystemCache()
    pa.assemble_system(mesh, salty, offcenter_charge, space, cache)
    a, _ = pa.assemble_system(refined, salty, offcenter_charge, space, cache)
    assert min(cache.reused) > 0
    a0, _ = pa.assemble_system(refined, salty, offcenter_charge, space)
    assert np.abs(a - a0).max() <= 1e-13 * np.abs(a0).max()
    monkeypatch.setattr(kernels, "grades", lambda m: m is refined)
    pa.assemble_system(mesh, salty, offcenter_charge, space, cache)
    pa.assemble_system(refined, salty, offcenter_charge, space, cache)
    assert cache.reused == (0, 0)


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_cache_reuses_only_same_space_and_physics(salty, offcenter_charge, space):
    mesh = pa.icosphere(1.0, 1)
    fresh, _ = pa.assemble_system(mesh, salty, offcenter_charge, space=space)
    n = len(fresh) // 2
    cache = pa.SystemCache()
    pa.assemble_system(mesh, salty, offcenter_charge, space=space, cache=cache)
    assert cache.reused == (0, 0) and cache.computed == (n, n)
    again, _ = pa.assemble_system(mesh, salty, offcenter_charge, space=space, cache=cache)
    assert cache.reused == (n, n) and cache.computed == (0, 0)
    assert np.array_equal(again, fresh)
    for physics in (
        pa.BiePhysics(eps_m=salty.eps_m, eps_w=salty.eps_w, kappa=0.25),
        pa.BiePhysics(eps_m=2.0, eps_w=salty.eps_w, kappa=salty.kappa),
        pa.BiePhysics(eps_m=salty.eps_m, eps_w=40.0, kappa=salty.kappa),
    ):
        pa.assemble_system(mesh, salty, offcenter_charge, space=space, cache=cache)
        got, _ = pa.assemble_system(mesh, physics, offcenter_charge, space=space, cache=cache)
        assert cache.reused == (0, 0)
        assert np.array_equal(got, pa.assemble_system(mesh, physics, offcenter_charge, space=space)[0])
    other = "P1" if space == "P0" else "P0"
    pa.assemble_system(mesh, salty, offcenter_charge, space=space, cache=cache)
    pa.assemble_system(mesh, salty, offcenter_charge, space=other, cache=cache)
    assert cache.reused == (0, 0)


def _scaled_operator_rows(mesh, physics, targets):
    """P0 (VL, KL, VY, KY) rows of ``targets`` times the system's block scales."""
    from pbadapt import kernels

    n = mesh.n_panels
    blocks = tuple(np.empty((len(targets), n)) for _ in range(4))
    kernels.operator_blocks(mesh.centroids[targets], mesh, physics.kappa, blocks)
    return [b * s for b, s in zip(blocks, (-1.0, 1.0, physics.eps_m / physics.eps_w, -1.0))]


def _system_blocks(a):
    n = len(a) // 2
    return a[:n, n:], a[:n, :n], a[n:, n:], a[n:, :n]  # VL, KL, VY, KY


def test_p0_system_blocks_are_scaled_operator_blocks(salty, offcenter_charge):
    """Off the diagonal, where the free terms go, the P0 system is the operator
    blocks times (-1, 1, eps_m/eps_w, -1) bit for bit."""
    mesh = pa.icosphere(1.0, 2)
    a, _ = pa.assemble_system(mesh, salty, offcenter_charge)
    off = ~np.eye(mesh.n_panels, dtype=bool)
    want = _scaled_operator_rows(mesh, salty, np.arange(mesh.n_panels))
    for got, w in zip(_system_blocks(a), want):
        assert np.array_equal(got[off], w[off])


def test_reused_p0_system_writes_new_rows_as_one_call(salty, offcenter_charge, background):
    """A reusing assembly writes its new rows straight into the matrix: off the
    diagonal they equal one operator call on those rows, scaled, bit for bit."""
    from pbadapt import solver, sweep

    mesh0 = pa.icosphere(1.0, 2)
    mesh = refine(mesh0, np.flatnonzero(mesh0.centroids[:, 2] > 0.7), background)
    cache = pa.SystemCache()
    pa.assemble_system(mesh0, salty, offcenter_charge, cache=cache)
    a, _ = pa.assemble_system(mesh, salty, offcenter_charge, cache=cache)
    rows, _ = solver._unchanged(mesh0, mesh, False)
    new_rows = np.flatnonzero(rows < 0)
    assert 0 < len(new_rows) < mesh.n_panels and len(sweep.runs(new_rows, new_rows)) > 1
    off = new_rows[:, None] != np.arange(mesh.n_panels)
    want = _scaled_operator_rows(mesh, salty, new_rows)
    for got, w in zip(_system_blocks(a), want):
        assert np.array_equal(got[new_rows][off], w[off])


def test_system_larger_than_memory_is_solver_error(salty, offcenter_charge, monkeypatch):
    from pbadapt import solver

    mesh = pa.icosphere(1.0, 1)
    n = mesh.n_panels
    monkeypatch.setattr(solver, "_memory_budget", lambda: 32 * n * n - 1)
    with pytest.raises(SolverError, match="needs"):
        pa.assemble_system(mesh, salty, offcenter_charge)
    with pytest.raises(SolverError):
        pa.solve_forward(mesh, salty, offcenter_charge)
    monkeypatch.setattr(solver, "_memory_budget", lambda: 32 * n * n)
    pa.assemble_system(mesh, salty, offcenter_charge)


def test_held_system_counts_against_physical_memory(salty, offcenter_charge, monkeypatch):
    """Without a cgroup limit the budget is physical memory, which does not
    know what the process holds: the cache's system counts beside the new one.
    A cgroup's headroom already counts it."""
    from pbadapt import solver

    mesh = pa.icosphere(1.0, 1)
    n = mesh.n_panels
    cache = pa.SystemCache()
    pa.assemble_system(mesh, salty, offcenter_charge, cache=cache)
    monkeypatch.setattr(solver, "_memory_budget", lambda: 32 * n * n + 1)
    monkeypatch.setattr(solver, "_cgroup_headroom", lambda: None)
    with pytest.raises(SolverError, match="held system"):
        pa.assemble_system(mesh, salty, offcenter_charge, cache=cache)
    pa.assemble_system(mesh, salty, offcenter_charge)  # nothing held
    monkeypatch.setattr(solver, "_cgroup_headroom", lambda: 32 * n * n + 1)
    pa.assemble_system(mesh, salty, offcenter_charge, cache=cache)


def test_memory_budget_reads_cgroup_limit(tmp_path, monkeypatch):
    from pbadapt import solver

    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    proc = tmp_path / "cgroup"
    proc.write_text("0::/jobs/one\n")
    group = tmp_path / "fs" / "jobs" / "one"
    group.mkdir(parents=True)
    monkeypatch.setattr(solver, "_PROC_CGROUP", proc)
    monkeypatch.setattr(solver, "_CGROUP_ROOT", tmp_path / "fs")
    (group / "memory.max").write_text("5000000\n")
    (group / "memory.current").write_text("1200000\n")
    assert solver._memory_budget() == min(physical, 3800000)
    (group / "memory.max").write_text("max\n")
    assert solver._memory_budget() == physical
    proc.write_text("4:memory:/jobs/one\n")  # cgroup v1 only: physical memory
    assert solver._memory_budget() == physical


@pytest.fixture(scope="module")
def pure_water():
    """kappa = 0 with unequal permittivities, so the bottom block row is scaled."""
    return pa.BiePhysics(eps_m=4.0, eps_w=80.0, kappa=0.0)


def _dense_reference(mesh, physics, space):
    """The 2N x 2N system built from all four operator blocks and the free term."""
    from pbadapt import kernels

    p1 = space == "P1"
    colloc = mesh.vertices if p1 else mesh.centroids
    n = len(colloc)
    vl, kl, vy, ky = (np.empty((n, n)) for _ in range(4))
    kernels.operator_blocks(colloc, mesh, physics.kappa, (vl, kl, vy, ky), p1)
    c = -kl.sum(axis=1) if p1 else np.full(n, 0.5)
    eye = np.eye(n)
    return np.block([[kl + c * eye, -vl],
                     [(1.0 - c) * eye - ky, physics.eps_m / physics.eps_w * vy]]), c


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_kappa_zero_system_stores_the_top_block_row(pure_water, offcenter_charge, space):
    """At kappa = 0 the system keeps N x 2N values, and its product equals the
    dense reference's."""
    mesh = pa.icosphere(1.0, 2)
    a, b = pa.assemble_system(mesh, pure_water, offcenter_charge, space=space)
    n = len(b) // 2
    assert len(a) == 2 * n and a.nbytes == 16 * n * n
    ref, _ = _dense_reference(mesh, pure_water, space)
    x = np.random.default_rng(11).standard_normal(2 * n)
    want = ref @ x
    assert np.linalg.norm(a @ x - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_kappa_zero_dense_view_is_the_scaled_operator_blocks(pure_water, offcenter_charge, space):
    """Off the diagonal the dense view is the operator blocks times
    (-1, 1, eps_m/eps_w, -1) bit for bit; on it, c and 1 - c."""
    mesh = pa.icosphere(1.0, 2)
    a, b = pa.assemble_system(mesh, pure_water, offcenter_charge, space=space)
    n = len(b) // 2
    dense = np.asarray(a)
    assert dense.shape == (2 * n, 2 * n)
    ref, c = _dense_reference(mesh, pure_water, space)
    off = ~np.eye(n, dtype=bool)
    for got, want in zip(_system_blocks(dense), _system_blocks(ref)):
        assert np.array_equal(got[off], want[off])
    idx = np.arange(n)
    assert np.array_equal(dense[idx, idx], c)
    assert np.array_equal(dense[n + idx, idx], 1.0 - c)
    assert np.array_equal(a[n:, :n], dense[n:, :n])


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_kappa_zero_block_jacobi_matches_dense_view(pure_water, offcenter_charge, space):
    from pbadapt import solver

    mesh = pa.icosphere(1.0, 2)
    a, b = pa.assemble_system(mesh, pure_water, offcenter_charge, space=space)
    y = np.random.default_rng(12).standard_normal(len(b))
    got = solver._block_jacobi(a)(y, np.empty(len(b)))
    want = solver._block_jacobi(np.asarray(a))(y, np.empty(len(b)))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_kappa_zero_cached_assembly_matches_scratch(pure_water, offcenter_charge, space):
    from pbadapt.mesh import close_marking, refine_flat

    mesh = pa.icosphere(1.0, 2)
    refined = refine_flat(mesh, close_marking(mesh, np.flatnonzero(mesh.centroids[:, 2] > 0.6)))
    cache = pa.SystemCache()
    pa.assemble_system(mesh, pure_water, offcenter_charge, space, cache)
    a, b = pa.assemble_system(refined, pure_water, offcenter_charge, space, cache)
    assert min(cache.reused) > 0 and min(cache.computed) > 0
    n = len(b) // 2
    assert cache._held.matrix.nbytes == 16 * n * n
    a0 = np.asarray(pa.assemble_system(refined, pure_water, offcenter_charge, space)[0])
    assert np.abs(np.asarray(a) - a0).max() <= 1e-13 * np.abs(a0).max()


def test_kappa_zero_solves_never_build_the_dense_matrix(pure_water, offcenter_charge,
                                                        monkeypatch):
    from pbadapt import solver

    def refuse(*args, **kwargs):
        raise AssertionError("the dense kappa = 0 system was built")

    monkeypatch.setattr(solver._TopRow, "__array__", refuse)
    mesh = pa.icosphere(1.0, 1)
    for sol in (pa.solve_forward(mesh, pure_water, offcenter_charge),
                pa.solve_adjoint(mesh, pure_water, offcenter_charge, refine_levels=0)):
        assert sol.gmres_residual <= 1e-8


def test_kappa_zero_memory_guard_counts_the_stored_half(pure_water, offcenter_charge,
                                                        monkeypatch):
    from pbadapt import solver

    mesh = pa.icosphere(1.0, 1)
    n = mesh.n_panels
    monkeypatch.setattr(solver, "_memory_budget", lambda: 16 * n * n - 1)
    with pytest.raises(SolverError, match="needs") as err:
        pa.assemble_system(mesh, pure_water, offcenter_charge)
    assert f"top block row ({n} x {2 * n})" in str(err.value)
    monkeypatch.setattr(solver, "_memory_budget", lambda: 16 * n * n)
    pa.assemble_system(mesh, pure_water, offcenter_charge)
