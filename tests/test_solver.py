import os

import numpy as np
import pytest
from scipy.spatial import cKDTree

import pbadapt as pa
from pbadapt.errors import DomainError, SolverError, UsageError
from pbadapt.mesh import refine

from pointwise import mean_edge_length

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
    a = np.asarray(pa.assemble_system(mesh, phys, offcenter_charge)[0])  # the dense view
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
    a = np.asarray(pa.assemble_system(mesh, phys, charges)[0])  # the dense view
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


def test_born_solve_needs_one_gmres_call_per_cycle(born_setup, monkeypatch):
    # GMRES on the right-preconditioned system stops on the true residual, up
    # to its float32 products, so each refinement cycle is one call that cuts
    # the true residual by CYCLE_REDUCTION: at 1e-12 that is three calls
    # (1e-4, 1e-8, 1e-12); left preconditioning (scipy's M=) stops short and
    # restarts, and no preconditioning takes about 38 iterations
    phys, charges = born_setup
    real = pa.solver.gmres
    calls = []

    def counted(a, b, **kwargs):
        y, steps = real(a, b, **kwargs)
        calls.append(steps)
        return y, steps

    monkeypatch.setattr(pa.solver, "gmres", counted)
    sol = pa.solve_forward(pa.icosphere(1.0, 3), phys, charges, gmres_tol=1e-12)
    assert pa.solver.CYCLE_REDUCTION == 1e-4
    assert len(calls) == len(sol.gmres_history) == 3
    assert sol.gmres_residual == sol.gmres_history[-1] <= 1e-12
    for before, after in zip((1.0,) + sol.gmres_history, sol.gmres_history):
        assert after <= 2.0 * pa.solver.CYCLE_REDUCTION * before
    assert max(calls) <= 25 and sol.gmres_iters == sum(calls)


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


def test_each_cycle_makes_one_residual_product(salty, offcenter_charge, monkeypatch):
    # every step is one float32 product through the operator, and every cycle
    # one float64 product, for the true residual; the first cycle is cut short
    # so there are at least two
    from pbadapt.solver import System

    real_gmres = pa.solver.gmres
    real_single, real_matmul = System.single, System.__matmul__
    cycles, steps, products = [], [], {"single": 0, "float64": 0}

    def single(self, x):
        products["single"] += 1
        return real_single(self, x)

    def matmul(self, x):
        products["float64"] += 1
        return real_matmul(self, x)

    def counted_gmres(operator, b, **kwargs):
        if not cycles:
            kwargs["restart"] = 3
        cycles.append(kwargs["restart"])

        def counted(v):
            steps.append(1)
            return operator(v)

        return real_gmres(counted, b, **kwargs)

    monkeypatch.setattr(System, "single", single)
    monkeypatch.setattr(System, "__matmul__", matmul)
    monkeypatch.setattr(pa.solver, "gmres", counted_gmres)
    sol = pa.solve_forward(pa.icosphere(1.0, 2), salty, offcenter_charge)
    assert len(cycles) >= 2 and sol.gmres_residual <= 1e-8
    assert len(steps) == sol.gmres_iters == products["single"]
    assert products["float64"] == len(cycles) == len(sol.gmres_history)


def _stored(a):
    """A square float64 array as a ``System`` of two block rows: rounded once
    to float32, unit column lengths."""
    n = len(a) // 2
    return pa.solver.System(a.astype(np.float32).reshape(2, n, 2, n), 1.0, np.ones(n))


def _chunkwise_upcast(rows, u, v):
    """The float64 halves with every chunk of rows upcast into its own array."""
    n = len(u)
    parts = [rows[sl].astype(float)
             for sl in pa.sweep.chunks(len(rows), 2 * n, pa.solver.PRODUCT_VALUES)]
    return (np.concatenate([p[:, :n] @ u for p in parts]),
            np.concatenate([p[:, n:] @ v for p in parts]))


@pytest.mark.parametrize("cpus", [1, 2])
def test_float64_product_is_the_chunkwise_upcast(salty, offcenter_charge, cpus, monkeypatch):
    """One reused buffer per worker gives the rows of every chunk upcast on its
    own, bit for bit: on a system and on rows whose last chunk is one row."""
    _use_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(8)
    a, _ = pa.assemble_system(pa.icosphere(1.0, 2), salty, offcenter_charge)
    n = 1200
    per_chunk = pa.solver.PRODUCT_VALUES // (2 * n)
    for rows in (a.blocks.reshape(len(a), len(a)),
                 rng.standard_normal((2 * per_chunk + 1, 2 * n)).astype(np.float32)):
        u, v = rng.standard_normal((2, rows.shape[1] // 2))
        got, want = pa.solver._float64_halves(rows, u, v), _chunkwise_upcast(rows, u, v)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_gmres_stalls_after_max_iters():
    rng = np.random.default_rng(6)
    u, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    v, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    a = u @ np.diag(np.logspace(0, -8, 40)) @ v.T
    with pytest.raises(SolverError, match="stalled") as err:
        pa.solver._gmres_solve(_stored(a), rng.standard_normal(40), 1e-8, 3)
    assert err.value.iterations == 3
    assert err.value.residual > 1e-8


@pytest.mark.parametrize("corner", [4.0, np.nan], ids=["zero-determinant", "nan"])
def test_singular_point_block_is_solver_error(corner):
    a = np.eye(6) + 0.1 * np.ones((6, 6))  # three collocation points
    a[1, 1], a[1, 4], a[4, 1], a[4, 4] = 1.0, 2.0, 2.0, corner  # point 1's block
    with pytest.raises(SolverError, match="collocation point 1"):
        pa.solver._gmres_solve(_stored(a), np.ones(6), 1e-8, 100)


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
    assert np.abs(np.linalg.norm(new, axis=1) - 1.0).max() <= mean_edge_length(background)


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
        dense0 = np.asarray(a0)
        assert np.abs(np.asarray(a) - dense0).max() <= 1e-13 * np.abs(dense0).max()
        assert np.array_equal(b, b0)
        if held is not None:
            rows, cols = solver._unchanged(held.mesh, mesh, space == "P1")
            assert cache.reused == (np.count_nonzero(rows >= 0), np.count_nonzero(cols >= 0))
            assert cache.computed == (np.count_nonzero(rows < 0), np.count_nonzero(cols < 0))
            r, c = np.flatnonzero(rows >= 0), np.flatnonzero(cols >= 0)
            off_diagonal = r[:, None] != c[None, :]  # the diagonal carries the new free term
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):  # the stored float32 values
                new = a.blocks[i, :, j][np.ix_(r, c)]
                old = held.matrix.blocks[i, :, j][np.ix_(rows[r], cols[c])]
                assert np.array_equal(new[off_diagonal], old[off_diagonal])
            assert np.array_equal(a.lengths[c], held.matrix.lengths[cols[c]])
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
    a0 = np.asarray(pa.assemble_system(refined, salty, offcenter_charge, space)[0])
    assert np.abs(np.asarray(a) - a0).max() <= 1e-13 * np.abs(a0).max()
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
    """P0 (VL, KL, VY, KY) rows of ``targets`` as the system stores them: times
    the block scales, the single layers divided by their panels' diameters,
    rounded once to float32."""
    from pbadapt import kernels

    n = mesh.n_panels
    blocks = tuple(np.empty((len(targets), n)) for _ in range(4))
    kernels.operator_blocks(mesh.centroids[targets], mesh, physics.kappa, blocks)
    d = mesh.diameters
    scales = (-1.0 / d, 1.0, physics.eps_m / physics.eps_w / d, -1.0)
    return [(b * s).astype(np.float32) for b, s in zip(blocks, scales)]


def _system_blocks(a):
    n = len(a) // 2
    return a[:n, n:], a[:n, :n], a[n:, n:], a[n:, :n]  # VL, KL, VY, KY


def _stored_blocks(a):
    """VL, KL, VY, KY of a two-block-row ``System`` as stored, float32."""
    return tuple(a.blocks[i, :, j] for i, j in ((0, 1), (0, 0), (1, 1), (1, 0)))


def test_p0_system_blocks_are_scaled_operator_blocks(salty, offcenter_charge):
    """Off the diagonal, where the free terms go, the P0 system stores the
    operator blocks times (-1, 1, eps_m/eps_w, -1), the single layers divided
    by their panels' diameters, rounded once to float32, bit for bit."""
    mesh = pa.icosphere(1.0, 2)
    a, _ = pa.assemble_system(mesh, salty, offcenter_charge)
    assert a.blocks.dtype == np.float32 and np.array_equal(a.lengths, mesh.diameters)
    off = ~np.eye(mesh.n_panels, dtype=bool)
    want = _scaled_operator_rows(mesh, salty, np.arange(mesh.n_panels))
    for got, w in zip(_stored_blocks(a), want):
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
    for got, w in zip(_stored_blocks(a), want):
        assert np.array_equal(got[new_rows][off], w[off])


def test_system_larger_than_memory_is_solver_error(salty, offcenter_charge, monkeypatch):
    from pbadapt import solver

    mesh = pa.icosphere(1.0, 1)
    n = mesh.n_panels
    # 4 bytes for each of the (2n)^2 stored values, and the rest of the solve
    need = 16 * n * n + solver.SOLVE_BYTES_PER_POINT["P0"] * n
    monkeypatch.setattr(solver, "_memory_budget", lambda: need - 1)
    with pytest.raises(SolverError, match="needs"):
        pa.assemble_system(mesh, salty, offcenter_charge)
    with pytest.raises(SolverError):
        pa.solve_forward(mesh, salty, offcenter_charge)
    monkeypatch.setattr(solver, "_memory_budget", lambda: need)
    pa.assemble_system(mesh, salty, offcenter_charge)


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_memory_guard_counts_the_rest_of_the_solve(salty, offcenter_charge, space, monkeypatch):
    """Beside the 16 N^2 stored bytes the guard counts SOLVE_BYTES_PER_POINT
    for each of the N collocation points, and says so."""
    from pbadapt import solver

    mesh = pa.icosphere(1.0, 1)
    n = mesh.n_panels if space == "P0" else mesh.n_vertices
    allowance = solver.SOLVE_BYTES_PER_POINT[space] * n
    assert allowance > 0
    monkeypatch.setattr(solver, "_memory_budget", lambda: 16 * n * n + allowance - 1)
    with pytest.raises(SolverError, match=f"rest of the solve {allowance / 1e9:.2f} GB"):
        pa.assemble_system(mesh, salty, offcenter_charge, space=space)
    monkeypatch.setattr(solver, "_memory_budget", lambda: 16 * n * n + allowance)
    pa.assemble_system(mesh, salty, offcenter_charge, space=space)


def test_held_system_counts_against_physical_memory(salty, offcenter_charge, monkeypatch,
                                                    tmp_path):
    """Without a cgroup limit or a readable meminfo the budget is physical
    memory, which does not know what the process holds: the cache's system
    counts beside the new one. A cgroup's headroom already counts it."""
    from pbadapt import solver

    mesh = pa.icosphere(1.0, 1)
    n = mesh.n_panels
    need = 16 * n * n + solver.SOLVE_BYTES_PER_POINT["P0"] * n
    cache = pa.SystemCache()
    pa.assemble_system(mesh, salty, offcenter_charge, cache=cache)
    monkeypatch.setattr(solver, "_memory_budget", lambda: need + 1)
    monkeypatch.setattr(solver, "_PROC_MEMINFO", tmp_path / "missing")
    monkeypatch.setattr(solver, "_cgroup_headroom", lambda: None)
    with pytest.raises(SolverError, match="held system"):
        pa.assemble_system(mesh, salty, offcenter_charge, cache=cache)
    pa.assemble_system(mesh, salty, offcenter_charge)  # nothing held
    monkeypatch.setattr(solver, "_cgroup_headroom", lambda: need + 1)
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
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:        8000 kB\nMemAvailable:    6000 kB\n")
    available = 6000 * 1024
    monkeypatch.setattr(solver, "_PROC_MEMINFO", meminfo)
    (group / "memory.max").write_text("5000000\n")
    (group / "memory.current").write_text("1200000\n")
    assert solver._memory_budget() == min(physical, 3800000)
    (group / "memory.max").write_text("max\n")
    assert solver._memory_budget() == available
    proc.write_text("4:memory:/jobs/one\n")  # cgroup v1 only: the available memory
    assert solver._memory_budget() == available
    monkeypatch.setattr(solver, "_PROC_MEMINFO", tmp_path / "missing")  # neither: physical memory
    assert solver._memory_budget() == physical


def test_system_beyond_available_memory_is_solver_error(salty, offcenter_charge, monkeypatch,
                                                        tmp_path):
    """MemAvailable below the 16 N^2 bytes a system needs, and the rest of the
    solve, refuses it, and a held system is not counted again: the available
    memory already counts it."""
    from pbadapt import solver

    mesh = pa.icosphere(1.0, 1)
    n = mesh.n_panels
    need = 16 * n * n + solver.SOLVE_BYTES_PER_POINT["P0"] * n
    meminfo = tmp_path / "meminfo"
    monkeypatch.setattr(solver, "_PROC_MEMINFO", meminfo)
    monkeypatch.setattr(solver, "_cgroup_headroom", lambda: None)
    cache = pa.SystemCache()
    meminfo.write_text(f"MemTotal: 99999999 kB\nMemAvailable: {need // 1024 - 1} kB\n")
    with pytest.raises(SolverError, match="needs"):
        pa.assemble_system(mesh, salty, offcenter_charge, cache=cache)
    meminfo.write_text(f"MemTotal: 99999999 kB\nMemAvailable: {need // 1024 + 1} kB\n")
    pa.assemble_system(mesh, salty, offcenter_charge, cache=cache)
    pa.assemble_system(mesh, salty, offcenter_charge, cache=cache)  # the held one beside it


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


def _star_lengths(mesh, space):
    """Each single-layer column's length: its panel's diameter (P0), or the
    largest diameter among the panels at its vertex (P1)."""
    if space == "P0":
        return mesh.diameters
    return np.array([mesh.diameters[(mesh.triangles == v).any(axis=1)].max()
                     for v in range(mesh.n_vertices)])


def _at_stored_precision(ref, physics, space, lengths):
    """The kappa = 0 ``_dense_reference`` as the system stores and applies it:
    the top block row rounded once to float32, each single-layer column
    divided by its length before and multiplied by it after; the P1 free term
    summed in float64 from the rounded double-layer row; and the bottom row
    [I - T | -(eps_m/eps_w) R] of that top row."""
    n = len(lengths)
    idx = np.arange(n)
    kl = ref[:n, :n].copy()
    kl[idx, idx] = 0.0
    kl = kl.astype(np.float32)
    kl[idx, idx] = -kl.sum(axis=1, dtype=float) if space == "P1" else 0.5
    top = np.hstack([kl, (ref[:n, n:] * (1.0 / lengths)).astype(np.float32)]).astype(float)
    top[:, n:] *= lengths
    bottom = np.hstack([-top[:, :n], top[:, n:] * -(physics.eps_m / physics.eps_w)])
    bottom[idx, idx] = 1.0 - top[idx, idx]
    return np.vstack([top, bottom])


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_kappa_zero_system_stores_the_top_block_row(pure_water, offcenter_charge, space):
    """At kappa = 0 the system keeps N x 2N float32 values, and its product
    equals the dense reference's at that precision."""
    mesh = pa.icosphere(1.0, 2)
    a, b = pa.assemble_system(mesh, pure_water, offcenter_charge, space=space)
    n = len(b) // 2
    assert len(a) == 2 * n and a.nbytes == 8 * n * n
    ref, _ = _dense_reference(mesh, pure_water, space)
    x = np.random.default_rng(11).standard_normal(2 * n)
    want = _at_stored_precision(ref, pure_water, space, _star_lengths(mesh, space)) @ x
    assert np.linalg.norm(a @ x - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_kappa_zero_dense_view_is_the_scaled_operator_blocks(pure_water, offcenter_charge, space):
    """Off the diagonal the float64 reference's bottom block row is its top one
    times -1 and -eps_m/eps_w bit for bit, so the top row is all the system
    stores; the dense view equals that reference at the stored precision bit
    for bit, free terms included."""
    mesh = pa.icosphere(1.0, 2)
    a, b = pa.assemble_system(mesh, pure_water, offcenter_charge, space=space)
    n = len(b) // 2
    dense = np.asarray(a)
    assert dense.shape == (2 * n, 2 * n)
    ref, _ = _dense_reference(mesh, pure_water, space)
    off = ~np.eye(n, dtype=bool)
    vl, kl, vy, ky = _system_blocks(ref)
    assert np.array_equal(ky[off], -kl[off])
    assert np.array_equal(vy, -(pure_water.eps_m / pure_water.eps_w) * vl)
    assert np.array_equal(a.lengths, _star_lengths(mesh, space))
    assert np.array_equal(dense, _at_stored_precision(ref, pure_water, space, a.lengths))


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_kappa_zero_block_jacobi_matches_dense_view(pure_water, offcenter_charge, space):
    """The preconditioner reads each point's 2x2 block as the dense view holds
    it, bit for bit, and applies its inverse."""
    from pbadapt import solver

    mesh = pa.icosphere(1.0, 2)
    a, b = pa.assemble_system(mesh, pure_water, offcenter_charge, space=space)
    n = len(b) // 2
    dense, idx = np.asarray(a), np.arange(n)
    p, q, r, s = a.point_blocks()
    for got, (i, j) in zip((p, q, r, s), ((0, 0), (0, 1), (1, 0), (1, 1))):
        assert np.array_equal(got, dense[i * n + idx, j * n + idx])
    y = np.random.default_rng(12).standard_normal(len(b))
    got = solver._block_jacobi(a)(y, np.empty(len(b)))
    blocks = np.stack([np.stack([p, q], axis=1), np.stack([r, s], axis=1)], axis=1)
    want = np.linalg.solve(blocks, np.stack([y[:n], y[n:]], axis=1)[..., None])[..., 0]
    want = np.concatenate([want[:, 0], want[:, 1]])
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("space", ["P0", "P1"])
def test_kappa_zero_cached_assembly_matches_scratch(pure_water, offcenter_charge, space):
    """As ``test_incremental_assembly_matches_scratch``, for the stored top
    block row: copied entries equal the held ones bit for bit in both of its
    blocks, and the whole matrix agrees with one from scratch to 1e-13."""
    from pbadapt import solver
    from pbadapt.mesh import close_marking, refine_flat

    mesh = pa.icosphere(1.0, 2)
    refined = refine_flat(mesh, close_marking(mesh, np.flatnonzero(mesh.centroids[:, 2] > 0.6)))
    cache = pa.SystemCache()
    pa.assemble_system(mesh, pure_water, offcenter_charge, space, cache)
    held = cache._held
    a, b = pa.assemble_system(refined, pure_water, offcenter_charge, space, cache)
    assert min(cache.reused) > 0 and min(cache.computed) > 0
    n = len(b) // 2
    assert cache._held.matrix.nbytes == 8 * n * n
    rows, cols = solver._unchanged(held.mesh, refined, space == "P1")
    r, c = np.flatnonzero(rows >= 0), np.flatnonzero(cols >= 0)
    off_diagonal = r[:, None] != c[None, :]  # the diagonal carries the new free term
    for j in (0, 1):
        new = a.blocks[0, :, j][np.ix_(r, c)]
        old = held.matrix.blocks[0, :, j][np.ix_(rows[r], cols[c])]
        assert np.array_equal(new[off_diagonal], old[off_diagonal])
    a0 = np.asarray(pa.assemble_system(refined, pure_water, offcenter_charge, space)[0])
    assert np.abs(np.asarray(a) - a0).max() <= 1e-13 * np.abs(a0).max()


def test_kappa_zero_solves_never_build_the_dense_matrix(pure_water, salty, offcenter_charge,
                                                        monkeypatch):
    """Nor do the kappa > 0 ones: no solve path calls the system's ``__array__``."""
    from pbadapt import solver

    def refuse(*args, **kwargs):
        raise AssertionError("the dense system was built")

    monkeypatch.setattr(solver.System, "__array__", refuse)
    mesh = pa.icosphere(1.0, 1)
    for physics in (pure_water, salty):
        for sol in (pa.solve_forward(mesh, physics, offcenter_charge),
                    pa.solve_adjoint(mesh, physics, offcenter_charge, refine_levels=0)):
            assert sol.gmres_residual <= 1e-8


def test_kappa_zero_memory_guard_counts_the_stored_half(pure_water, offcenter_charge,
                                                        monkeypatch):
    from pbadapt import solver

    mesh = pa.icosphere(1.0, 1)
    n = mesh.n_panels
    need = 8 * n * n + solver.SOLVE_BYTES_PER_POINT["P0"] * n
    monkeypatch.setattr(solver, "_memory_budget", lambda: need - 1)
    with pytest.raises(SolverError, match="needs") as err:
        pa.assemble_system(mesh, pure_water, offcenter_charge)
    assert f"top block row ({n} x {2 * n})" in str(err.value)
    monkeypatch.setattr(solver, "_memory_budget", lambda: need)
    pa.assemble_system(mesh, pure_water, offcenter_charge)


@pytest.mark.parametrize("path", [(0.0, False), (0.125, False), (0.125, True)],
                         ids=["kappa0", "kappa", "graded"])
@pytest.mark.parametrize("space", ["P0", "P1"])
def test_float32_storage_keeps_the_float64_direct_solve_energy(path, space, monkeypatch):
    """Energies solved from the float32 system agree within 1e-8 relative with
    np.linalg.solve on the float64 ``_dense_reference``, on each operator path
    (the graded one with ``kernels.grades`` forced on)."""
    from pbadapt import kernels
    from pbadapt.physics import coulomb_potential

    kappa, graded = path
    if graded:
        monkeypatch.setattr(kernels, "grades", lambda mesh: True)
    mesh = pa.icosphere(1.0, 2)
    charges = pa.ChargeSet(np.array([[0.1, -0.2, 0.5], [-0.3, 0.1, -0.2]]), np.array([1.0, -0.6]))
    physics = pa.BiePhysics(eps_m=4.0, eps_w=80.0, kappa=kappa)
    ref, _ = _dense_reference(mesh, physics, space)
    colloc = mesh.vertices if space == "P1" else mesh.centroids
    n = len(colloc)
    x = np.linalg.solve(ref, np.concatenate([coulomb_potential(charges, physics, colloc),
                                             np.zeros(n)]))
    direct = pa.PanelSolution(space, x[:n], x[n:], mesh, 0.0, 0)
    if space == "P0":
        sol = pa.solve_forward(mesh, physics, charges)
    else:
        sol = pa.solve_adjoint(mesh, physics, charges, refine_levels=0)
    want = pa.solvation_energy(direct, charges, physics).dG_solv
    assert pa.solvation_energy(sol, charges, physics).dG_solv == pytest.approx(want, rel=1e-8)


def test_refinement_cycle_that_does_not_lower_the_residual_is_solver_error(
        salty, offcenter_charge, tmp_path, monkeypatch):
    """A tolerance below what float64 residuals resolve ends at the first cycle
    that does not lower the true residual, not after max_iters steps; the CLI
    then exits 4."""
    from pbadapt.cli import EXIT_SOLVER, main

    real = pa.solver.gmres
    calls = []

    def counted(operator, b, **kwargs):
        calls.append(kwargs["restart"])
        return real(operator, b, **kwargs)

    monkeypatch.setattr(pa.solver, "gmres", counted)
    with pytest.raises(SolverError, match="stalled") as err:
        pa.solve_forward(pa.icosphere(1.0, 1), salty, offcenter_charge, gmres_tol=1e-17)
    assert len(calls) <= 8 and err.value.iterations < pa.solver.DEFAULT_MAX_ITERS
    assert err.value.residual > 1e-17
    cfg = tmp_path / "s.ini"
    cfg.write_text("[mesh]\ntype = icosphere\nlevel = 1\n\n[charges]\ninline = 1.0  0.0 0.0 0.5\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--gmres-tol", "1e-17"]) == EXIT_SOLVER


def test_residual_history_reaches_the_energy_diagnostics(salty, offcenter_charge):
    """Each refinement cycle's true relative residual, in order, on the
    solution and in ``solvation_energy``'s diagnostics with the cycle count."""
    sol = pa.solve_forward(pa.icosphere(1.0, 2), salty, offcenter_charge)
    history = sol.gmres_history
    assert len(history) >= 2 and sol.gmres_residual == history[-1] <= 1e-8
    assert all(later < earlier for earlier, later in zip(history, history[1:]))
    diagnostics = pa.solvation_energy(sol, offcenter_charge, salty).diagnostics
    assert diagnostics["gmres_history"] == list(history)
    assert diagnostics["gmres_cycles"] == len(history)
