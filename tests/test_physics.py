import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import pbadapt as pa
import pbadapt.sweep as sweep
from pbadapt.errors import DomainError, ParseError, SingularityError, UsageError
from pbadapt.physics import ENERGY_UNIT, coulomb_potential, require_inside

from pointwise import coulomb_gradient

FOUR_PI = 4.0 * np.pi


@pytest.fixture
def unit_charge():
    return pa.ChargeSet(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))


def test_coulomb_potential_definition(unit_charge):
    phys = pa.BiePhysics(eps_m=1.0, eps_w=80.0, kappa=0.0)
    val = coulomb_potential(unit_charge, phys, [[1.0, 0.0, 0.0]])[0]
    assert val == pytest.approx(1.0 / FOUR_PI, rel=1e-14)


def test_coulomb_potential_scales_with_eps(unit_charge):
    p1 = pa.BiePhysics(eps_m=1.0, eps_w=80.0, kappa=0.0)
    p2 = pa.BiePhysics(eps_m=2.0, eps_w=80.0, kappa=0.0)
    pt = [[0.3, 0.4, 0.5]]
    assert coulomb_potential(unit_charge, p2, pt)[0] == pytest.approx(
        coulomb_potential(unit_charge, p1, pt)[0] / 2.0, rel=1e-14
    )


def test_coulomb_gradient_matches_finite_difference():
    charges = pa.ChargeSet(np.array([[0.1, 0.0, -0.2], [-0.3, 0.2, 0.0]]), np.array([0.7, -1.3]))
    phys = pa.BiePhysics(eps_m=4.0, eps_w=80.0, kappa=0.125)
    pt = np.array([0.8, 0.5, 0.4])
    grad = coulomb_gradient(charges, phys, pt[None])[0]
    h = 1e-6
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        fd = (
            coulomb_potential(charges, phys, (pt + e)[None])[0]
            - coulomb_potential(charges, phys, (pt - e)[None])[0]
        ) / (2 * h)
        assert grad[axis] == pytest.approx(fd, rel=1e-6)


def test_coulomb_trace_normal_projection(unit_charge):
    phys = pa.BiePhysics(eps_m=1.0, eps_w=80.0, kappa=0.0)
    pts = np.array([[1.0, 0.0, 0.0]])
    normals = np.array([[1.0, 0.0, 0.0]])
    u, dudn = pa.coulomb_trace(unit_charge, phys, pts, normals)
    assert u[0] == pytest.approx(1.0 / FOUR_PI)
    assert dudn[0] == pytest.approx(-1.0 / FOUR_PI, rel=1e-13)  # d/dr of 1/(4 pi r) at r=1
    rng = np.random.default_rng(4)
    charges = pa.ChargeSet(rng.uniform(-0.5, 0.5, (200, 3)), rng.uniform(-1.0, 1.0, 200))
    pts, normals = rng.standard_normal((300, 3)), rng.standard_normal((300, 3))
    u, dudn = pa.coulomb_trace(charges, phys, pts, normals)
    assert np.array_equal(u, coulomb_potential(charges, phys, pts))
    grad = coulomb_gradient(charges, phys, pts)
    assert np.array_equal(dudn, np.einsum("mx,mx->m", grad, normals))


def test_coulomb_singularity_guard(unit_charge):
    phys = pa.BiePhysics()
    with pytest.raises(SingularityError):
        coulomb_potential(unit_charge, phys, [[0.0, 0.0, 1e-13]])


def _many_charges(n_charges, n_points, seed=3):
    rng = np.random.default_rng(seed)
    charges = pa.ChargeSet(rng.uniform(-0.5, 0.5, (n_charges, 3)), rng.uniform(-1, 1, n_charges))
    points = rng.normal(size=(n_points, 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    return charges, points


def coulomb_reference(charges, phys, points, normals):
    """Potential, gradient and normal derivative summed one (point, charge)
    pair at a time, each with the sum of its terms' magnitudes as its scale."""
    want, scale = np.zeros((len(points), 5)), np.zeros((len(points), 5))
    for i, (x, n) in enumerate(zip(points.tolist(), normals.tolist())):
        terms = []
        for y, q in zip(charges.positions.tolist(), charges.charges.tolist()):
            d = [x[k] - y[k] for k in range(3)]
            r = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
            w = -q / (FOUR_PI * r**3 * phys.eps_m)
            terms.append([q / (FOUR_PI * r * phys.eps_m), *(w * dk for dk in d),
                          w * (d[0] * n[0] + d[1] * n[1] + d[2] * n[2])])
        for j, column in enumerate(zip(*terms)):
            want[i, j] = math.fsum(column)
            scale[i, j] = math.fsum(abs(t) for t in column)
    return want, scale


def test_coulomb_sweeps_match_per_pair_loop():
    rng = np.random.default_rng(11)
    signs = rng.choice([-1.0, 1.0], 40)
    charges = pa.ChargeSet(rng.uniform(-0.5, 0.5, (40, 3)), signs * rng.uniform(0.2, 1.0, 40))
    points, normals = rng.normal(size=(60, 3)), rng.normal(size=(60, 3))
    phys = pa.BiePhysics(eps_m=2.0)
    want, scale = coulomb_reference(charges, phys, points, normals)
    got = np.column_stack(
        [coulomb_potential(charges, phys, points), coulomb_gradient(charges, phys, points)]
    )
    u, dudn = pa.coulomb_trace(charges, phys, points, normals)
    for g, j in ((got, slice(0, 4)), (u, 0), (dudn, 4)):
        assert np.all(np.abs(g - want[:, j]) <= 1e-14 * scale[:, j])


def test_coulomb_trace_memory_is_bounded():
    # 3,840 points x 1,000 charges: the offsets alone would take 92 MB in one piece
    charges, points = _many_charges(1000, 3840)
    phys = pa.BiePhysics()
    tracemalloc.start()
    try:
        pa.coulomb_trace(charges, phys, points, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def _sweeps(charges, phys, points):
    return (coulomb_potential(charges, phys, points), coulomb_gradient(charges, phys, points),
            *pa.coulomb_trace(charges, phys, points, points))


@pytest.mark.parametrize("n_points", [23, 0])
@pytest.mark.parametrize("budget", [1, 21, 50])
def test_coulomb_sweeps_do_not_depend_on_the_chunking(monkeypatch, n_points, budget):
    # 7 charges: budgets of 1, 3 and 7 points per chunk, 23 points leaving a remainder chunk
    charges, points = _many_charges(7, n_points)
    phys = pa.BiePhysics()
    want = _sweeps(charges, phys, points)
    assert [w.shape for w in want] == [(n_points,), (n_points, 3), (n_points,), (n_points,)]
    monkeypatch.setattr(sweep, "CHUNK_PAIRS", budget)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
        got = _sweeps(charges, phys, points)
        for w, g in zip(want, got):
            assert np.array_equal(w, g)


def test_coulomb_singularity_guard_in_a_later_chunk(monkeypatch, unit_charge):
    monkeypatch.setattr(sweep, "CHUNK_PAIRS", 1)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    with pytest.raises(SingularityError):
        coulomb_potential(unit_charge, pa.BiePhysics(), [[1.0, 0.0, 0.0], [0.0, 0.0, 1e-13]])


def test_inside_checks_name_the_first_outside_point(born_setup):
    phys, charges = born_setup
    mesh = pa.icosphere(1.0, 1)
    two = pa.ChargeSet(np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 1.5]]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError, match="charge 1 lies outside"):
        require_inside(mesh, two.positions, "charge")
    sol = pa.solve_forward(mesh, phys, charges)
    with pytest.raises(DomainError, match="target 1 lies outside"):
        pa.reaction_potential(sol, [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 2.0, 0.0]])


def test_charges_inside_check():
    mesh = pa.icosphere(1.0, 1)
    inside = pa.ChargeSet(np.array([[0.0, 0.0, 0.5]]), np.array([1.0]))
    outside = pa.ChargeSet(np.array([[0.0, 0.0, 1.5]]), np.array([1.0]))
    require_inside(mesh, inside.positions, "charge")
    with pytest.raises(DomainError):
        require_inside(mesh, outside.positions, "charge")


# -- reaction potential and energy ---------------------------------------------


def test_reaction_potential_zero_traces(born_setup):
    phys, charges = born_setup
    mesh = pa.icosphere(1.0, 1)
    sol = pa.PanelSolution(
        "P0", np.zeros(mesh.n_panels), np.zeros(mesh.n_panels), mesh, 0.0, 0
    )
    vals = pa.reaction_potential(sol, [[0.0, 0.0, 0.0], [0.2, 0.1, -0.3]])
    assert np.all(vals == 0.0)


def test_reaction_potential_rejects_outside_target(born_setup):
    phys, charges = born_setup
    mesh = pa.icosphere(1.0, 1)
    sol = pa.solve_forward(mesh, phys, charges)
    with pytest.raises(DomainError):
        pa.reaction_potential(sol, [[0.0, 0.0, 2.0]])


def test_charges_tested_inside_by_each_assembly_and_the_energy(born_setup, monkeypatch):
    """The forward assembly, the energy and the adjoint assembly each test
    the charges inside their own mesh, and other targets are tested."""
    import pbadapt.physics as physics

    phys, _ = born_setup
    mesh = pa.icosphere(1.0, 1)
    charges = pa.ChargeSet(np.array([[0.0, 0.0, 0.3], [0.2, -0.1, 0.0]]), np.array([1.0, -0.5]))
    calls = []

    def counted(m, points):
        calls.append(len(np.atleast_2d(points)))
        return pa.mesh.points_inside(m, points)

    monkeypatch.setattr(physics, "points_inside", counted)
    forward = pa.solve_forward(mesh, phys, charges)
    assert calls == [2]
    energy = pa.solvation_energy(forward, charges, phys)
    assert calls == [2, 2]
    pa.solve_adjoint(mesh, phys, charges, refine_levels=1)
    assert calls == [2, 2, 2]
    ur = pa.reaction_potential(forward, charges.positions)
    assert np.array_equal(energy.per_charge, phys.energy_unit * 0.5 * charges.charges * ur)
    with pytest.raises(DomainError):
        pa.reaction_potential(forward, [[0.0, 0.0, 2.0]])
    outside = pa.ChargeSet(np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 2.0]]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        pa.solve_forward(mesh, phys, outside)
    with pytest.raises(DomainError):
        pa.solvation_energy(forward, outside, phys)


def test_born_reaction_potential_at_center(born_setup):
    phys, charges = born_setup
    mesh = pa.icosphere(1.0, 3)
    sol = pa.solve_forward(mesh, phys, charges)
    ur = pa.reaction_potential(sol, [[0.0, 0.0, 0.0]])[0]
    exact = (1.0 / FOUR_PI) * (1.0 / phys.eps_w - 1.0 / phys.eps_m)
    assert ur == pytest.approx(exact, rel=0.01)


def test_reaction_potential_from_vertex_space(born_setup):
    # the dual solve carries vertex traces; evaluation must use its own space
    phys, charges = born_setup
    mesh = pa.icosphere(1.0, 2)
    adj = pa.solve_adjoint(mesh, phys, charges, refine_levels=0)
    ur = pa.reaction_potential(adj, [[0.0, 0.0, 0.0]])[0]
    exact = (1.0 / FOUR_PI) * (1.0 / phys.eps_w - 1.0 / phys.eps_m)
    assert ur == pytest.approx(exact, rel=0.03)


def test_translation_equivariance(born_setup):
    phys, _ = born_setup
    shift = np.array([3.0, -2.0, 5.0])
    mesh = pa.icosphere(1.0, 1)
    charges = pa.ChargeSet(np.array([[0.0, 0.0, 0.3]]), np.array([1.0]))
    targets = np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.3]])
    sol = pa.solve_forward(mesh, phys, charges)
    mesh_t = pa.SurfaceMesh(mesh.vertices + shift, mesh.triangles)
    charges_t = pa.ChargeSet(charges.positions + shift, charges.charges)
    sol_t = pa.solve_forward(mesh_t, phys, charges_t)
    a = pa.reaction_potential(sol, targets)
    b = pa.reaction_potential(sol_t, targets + shift)
    assert np.allclose(a, b, atol=1e-12)


def test_solvation_energy_born(born_setup):
    phys, charges = born_setup
    mesh = pa.icosphere(1.0, 3)
    sol = pa.solve_forward(mesh, phys, charges)
    energy = pa.solvation_energy(sol, charges, phys)
    exact = pa.born_energy(1.0, 1.0, phys)
    assert energy.dG_solv == pytest.approx(exact, rel=0.01)
    assert energy.dG_solv < 0.0
    assert energy.dG_solv == pytest.approx(energy.per_charge.sum(), rel=1e-14)
    assert energy.diagnostics["n_panels"] == mesh.n_panels


def test_energy_unit_born_calibration():
    phys = pa.BiePhysics(eps_m=1.0, eps_w=80.0, kappa=0.0)
    assert pa.born_energy(1.0, 1.0, phys) == pytest.approx(
        332.0636 * 0.5 * (1.0 / 80.0 - 1.0), rel=1e-12
    )
    assert ENERGY_UNIT == pytest.approx(FOUR_PI * 332.0636)


def test_charge_scaling_is_quadratic(born_setup):
    phys, charges = born_setup
    mesh = pa.icosphere(1.0, 2)
    e1 = pa.solvation_energy(pa.solve_forward(mesh, phys, charges), charges, phys)
    doubled = pa.ChargeSet(charges.positions, 2.0 * charges.charges)
    e2 = pa.solvation_energy(pa.solve_forward(mesh, phys, doubled), doubled, phys)
    assert e2.dG_solv == pytest.approx(4.0 * e1.dG_solv, rel=1e-7)


def test_zero_charges_give_zero_energy(born_setup):
    phys, _ = born_setup
    mesh = pa.icosphere(1.0, 1)
    charges = pa.ChargeSet(np.array([[0.0, 0.0, 0.0]]), np.array([0.0]))
    sol = pa.solve_forward(mesh, phys, charges)
    energy = pa.solvation_energy(sol, charges, phys)
    assert energy.dG_solv == 0.0


# -- PQR parsing ----------------------------------------------------------------


def test_load_pqr_single_record(tmp_path):
    p = tmp_path / "one.pqr"
    p.write_text("ATOM 1 N MET 1 0.0 0.0 0.0 -0.3 1.55\n")
    charges = pa.load_pqr(p)
    assert len(charges) == 1
    assert charges.charges[0] == pytest.approx(-0.3)
    assert np.allclose(charges.positions[0], 0.0)


def test_load_pqr_mixed_chain_columns(tmp_path):
    p = tmp_path / "mix.pqr"
    p.write_text(
        "REMARK generated\n"
        "ATOM 1 N MET 1 0.1 0.2 0.3 -0.3 1.55\n"
        "ATOM 2 CA MET A 1 1.0 2.0 3.0 0.25 1.7\n"
        "HETATM 3 O HOH 2 -1.0 0.0 0.5 -0.8 1.4\n"
    )
    charges = pa.load_pqr(p)
    assert len(charges) == 3
    assert np.allclose(charges.positions[1], [1.0, 2.0, 3.0])
    assert charges.charges[2] == pytest.approx(-0.8)


def test_load_pqr_empty_file(tmp_path):
    p = tmp_path / "empty.pqr"
    p.write_text("REMARK nothing here\n")
    with pytest.raises(ParseError, match="no charges"):
        pa.load_pqr(p)


def test_load_pqr_bad_float_reports_line(tmp_path):
    p = tmp_path / "bad.pqr"
    p.write_text("ATOM 1 N MET 1 0.0 zero 0.0 -0.3 1.55\n")
    with pytest.raises(ParseError) as err:
        pa.load_pqr(p)
    assert err.value.line_no == 1


def test_chargeset_validation():
    with pytest.raises(UsageError):
        pa.ChargeSet(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(UsageError):
        pa.BiePhysics(eps_m=-1.0)
    with pytest.raises(UsageError, match="eps_m >= 1e-30"):
        pa.BiePhysics(eps_m=1e-300)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300], ids=["nan", "inf", "huge"])
def test_chargeset_rejects_non_finite_values(value):
    with pytest.raises(UsageError, match="finite"):
        pa.ChargeSet(np.array([[0.0, value, 0.0]]), np.array([1.0]))
    with pytest.raises(UsageError, match="finite"):
        pa.ChargeSet(np.zeros((2, 3)), np.array([1.0, value]))


def test_load_pqr_non_finite_reports_line(tmp_path):
    p = tmp_path / "nan.pqr"
    p.write_text("ATOM 1 N MET 1 0.0 0.0 0.0 -0.3 1.55\nATOM 2 CA MET 1 0.1 nan 0.0 0.2 1.7\n")
    with pytest.raises(ParseError, match="non-finite") as err:
        pa.load_pqr(p)
    assert err.value.line_no == 2
    for row in ("0.1 0.0 0.0 1e300", "1e300 0.0 0.0 0.2"):  # a charge, then a coordinate
        p.write_text(f"ATOM 1 N MET 1 0.0 0.0 0.0 -0.3 1.55\nATOM 2 CA MET 1 {row} 1.7\n")
        with pytest.raises(ParseError, match="beyond 1e\\+30") as err:
            pa.load_pqr(p)
        assert err.value.line_no == 2


def test_energy_unit_is_fixed():
    phys = pa.BiePhysics()
    assert phys.energy_unit == ENERGY_UNIT
    assert "energy_unit" not in {f.name for f in dataclasses.fields(phys)}
    with pytest.raises(TypeError):
        pa.BiePhysics(energy_unit=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        phys.energy_unit = 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["eps_m", "eps_w", "kappa"])
def test_physics_rejects_non_finite_values(name, value):
    with pytest.raises(UsageError, match="finite"):
        pa.BiePhysics(**{name: value})


@pytest.mark.parametrize("given", [dict(eps_m=1e300), dict(eps_w=1e-300),
                                   dict(eps_m=1e30, eps_w=1e-30), dict(kappa=1e300)],
                         ids=["eps_m", "eps_w", "ratio", "kappa"])
def test_physics_rejects_values_beyond_the_input_bound(given):
    # beyond it the right-hand side underflows or the float32 system overflows
    with pytest.raises(UsageError, match="1e\\+30"):
        pa.BiePhysics(**given)


@pytest.mark.parametrize("given", [dict(eps_m=1e30), dict(eps_m=1e-30, eps_w=1e-30),
                                   dict(eps_m=1.0, eps_w=1e30), dict(kappa=1e30)],
                         ids=["eps_m", "eps_w-low", "eps_w-high", "kappa"])
def test_physics_accepts_values_at_the_input_bound(given):
    physics = pa.BiePhysics(**given)
    assert all(getattr(physics, name) == value for name, value in given.items())
