import dataclasses
import logging
import re

import numpy as np
import pytest

import pbadapt as pa
import pbadapt.driver as driver_mod
from pbadapt.errors import LoopAbortedError, SolverError, UsageError
from pbadapt.oracle import offcenter_benchmark


@pytest.fixture(scope="module")
def case():
    return offcenter_benchmark()


def small_config(**overrides):
    base = dict(
        estimator_tag="Eu",
        marking_fraction=0.10,
        adjoint_refine_levels=0,
        refinement_mode="flat",
        max_iterations=3,
    )
    base.update(overrides)
    return pa.AdaptiveConfig(**base)


def test_config_validation():
    with pytest.raises(UsageError):
        pa.AdaptiveConfig(estimator_tag="Emax")
    with pytest.raises(UsageError):
        pa.AdaptiveConfig(marking_fraction=0.0)
    with pytest.raises(UsageError):
        pa.AdaptiveConfig(max_iterations=0)
    with pytest.raises(UsageError):
        pa.AdaptiveConfig(refinement_mode="conforming")  # background missing


def test_config_rejects_nonpositive_gmres_tol():
    for tol in (0.0, -1e-8, float("nan")):
        with pytest.raises(UsageError):
            pa.AdaptiveConfig(gmres_tol=tol)


def test_single_iteration_history(case):
    hist = pa.adaptive_loop(
        pa.icosphere(1.0, 1), case.charges, case.physics, small_config(max_iterations=1)
    )
    assert len(hist) == 1
    rec = hist[0]
    assert rec.mesh.n_panels == 80
    assert rec.error_map is not None
    assert rec.energy.dG_solv < 0.0


def test_element_count_monotone_and_bounded(case):
    hist = pa.adaptive_loop(
        pa.icosphere(1.0, 1), case.charges, case.physics, small_config(max_iterations=4)
    )
    counts = [r.mesh.n_panels for r in hist]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert all(b <= 4 * a for a, b in zip(counts, counts[1:]))


def test_uniform_counts_and_richardson_pipeline(born_setup):
    phys, charges = born_setup
    hist = pa.uniform_loop(pa.icosphere(1.0, 1), charges, phys, levels=3)
    counts = [r.mesh.n_panels for r in hist]
    assert counts == [80, 320, 1280]
    values = [r.energy.dG_solv for r in hist]
    extrapolated, order = pa.richardson(values)
    exact = pa.born_energy(1.0, 1.0, phys)
    assert abs(extrapolated - exact) < abs(values[-1] - exact)
    # flat refinement keeps the polyhedral shape, so the sequence converges to
    # the polyhedron's energy, at first order but not to the sphere value
    assert 0.5 < order < 1.5


def test_uniform_conforming_error_ratio(born_setup, background):
    phys, charges = born_setup
    hist = pa.uniform_loop(
        pa.icosphere(1.0, 1), charges, phys, levels=3, background=background
    )
    exact = pa.born_energy(1.0, 1.0, phys)
    errs = [abs(r.energy.dG_solv - exact) for r in hist]
    for a, b in zip(errs, errs[1:]):
        assert 3.0 <= a / b <= 5.0


def test_marking_fraction_one_matches_uniform(case):
    mesh0 = pa.icosphere(1.0, 1)
    adaptive = pa.adaptive_loop(
        mesh0,
        case.charges,
        case.physics,
        small_config(marking_fraction=1.0, max_iterations=2),
    )
    uniform = pa.uniform_loop(mesh0, case.charges, case.physics, levels=2)
    for a, u in zip(adaptive, uniform):
        assert np.array_equal(a.mesh.triangles, u.mesh.triangles)
        assert np.allclose(a.mesh.vertices, u.mesh.vertices)


@pytest.mark.parametrize("iterations", [1, 3])
def test_loops_refine_only_between_iterations(case, monkeypatch, iterations):
    real = driver_mod.refine
    calls = []

    def counting(mesh, *args):
        calls.append(mesh.n_panels)
        return real(mesh, *args)

    monkeypatch.setattr(driver_mod, "refine", counting)
    hist = pa.adaptive_loop(
        pa.icosphere(1.0, 1), case.charges, case.physics, small_config(max_iterations=iterations)
    )
    assert len(hist) == iterations
    assert calls == [r.mesh.n_panels for r in hist[:-1]]
    calls.clear()
    pa.uniform_loop(pa.icosphere(1.0, 1), case.charges, case.physics, levels=iterations)
    assert calls == [80 * 4**k for k in range(iterations - 1)]


def test_histories_are_deterministic(case):
    runs = []
    for _ in range(2):
        hist = pa.adaptive_loop(
            pa.icosphere(1.0, 1), case.charges, case.physics, small_config()
        )
        runs.append(hist)
    for a, b in zip(*runs):
        assert a.energy.dG_solv == b.energy.dG_solv
        assert np.array_equal(a.mesh.vertices, b.mesh.vertices)
        assert np.array_equal(a.mesh.triangles, b.mesh.triangles)
        assert np.array_equal(a.error_map.per_panel, b.error_map.per_panel)


def test_abort_preserves_partial_history(case, monkeypatch):
    real = driver_mod.solve_adjoint
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise SolverError("injected failure", residual=1.0, iterations=0)
        return real(*args, **kwargs)

    monkeypatch.setattr(driver_mod, "solve_adjoint", failing)
    with pytest.raises(LoopAbortedError) as err:
        pa.adaptive_loop(pa.icosphere(1.0, 1), case.charges, case.physics, small_config())
    assert len(err.value.history) == 1


def test_estimator_choice_gives_similar_convergence(case):
    exact = pa.kirkwood_energy(case)
    errs = {}
    for tag in ("Eu", "Ephi"):
        hist = pa.adaptive_loop(
            pa.icosphere(1.0, 1),
            case.charges,
            case.physics,
            small_config(estimator_tag=tag, max_iterations=4),
        )
        errs[tag] = np.array([abs(exact - r.energy.dG_solv) for r in hist])
    ratio = errs["Eu"] / errs["Ephi"]
    assert np.all(ratio < 2.0) and np.all(ratio > 0.5)


def test_save_history_layout(tmp_path, case):
    hist = pa.adaptive_loop(
        pa.icosphere(1.0, 1), case.charges, case.physics, small_config(max_iterations=2)
    )
    out = tmp_path / "run"
    pa.save_history(hist, out)
    assert (out / "mesh_000.off").exists()
    assert (out / "mesh_001.off").exists()
    assert (out / "errors_000.csv").exists()
    rows = (out / "energy.csv").read_text().splitlines()
    assert rows[0] == driver_mod.ENERGY_CSV_HEADER
    assert len(rows) == 3
    first = rows[1].split(",")
    assert first[0] == "0" and int(first[1]) == 80
    assert float(first[2]) == pytest.approx(hist[0].energy.dG_solv)


def test_save_history_size_does_not_depend_on_the_timings(tmp_path, case):
    hist = pa.adaptive_loop(
        pa.icosphere(1.0, 1), case.charges, case.physics, small_config(max_iterations=2)
    )
    sizes = []
    for k, times in enumerate(([0.5, 2.0], [1.0 / 3.0, 20.0 / 7.0])):
        timed = [dataclasses.replace(rec, wall_time_s=t) for rec, t in zip(hist, times)]
        pa.save_history(timed, tmp_path / str(k))
        sizes.append(sum(f.stat().st_size for f in (tmp_path / str(k)).iterdir()))
    assert sizes[0] == sizes[1]


def test_loop_logs_reused_and_computed_rows_and_columns(case, caplog):
    config = small_config(max_iterations=2)
    with caplog.at_level(logging.DEBUG, logger="pbadapt.driver"):
        hist = pa.adaptive_loop(pa.icosphere(1.0, 1), case.charges, case.physics, config)
    lines = [r.getMessage() for r in caplog.records if r.name == "pbadapt.driver"]
    assert len(lines) == 4  # P0 and P1 of each iteration
    pattern = re.compile(
        r"iteration (\d) (P[01]) system: (\d+) rows and (\d+) columns reused, "
        r"(\d+) rows and (\d+) columns computed"
    )
    for line, (it, space) in zip(lines, [(0, "P0"), (0, "P1"), (1, "P0"), (1, "P1")]):
        m = pattern.fullmatch(line)
        assert m and (int(m[1]), m[2]) == (it, space)
        mesh = hist[it].mesh
        n = mesh.n_panels if space == "P0" else mesh.n_vertices
        rows_reused, cols_reused, rows_new, cols_new = map(int, m.groups()[2:])
        assert rows_reused + rows_new == n and cols_reused + cols_new == n
        assert (rows_reused > 0) == (it > 0) and (cols_reused > 0) == (it > 0)


def test_estimator_table_is_the_estimator_modules():
    from pbadapt import estimator

    assert driver_mod._ESTIMATORS is estimator.ESTIMATORS
    assert list(estimator.ESTIMATORS) == ["Ephi", "Eu"]
    with pytest.raises(UsageError, match="unknown estimator"):
        pa.AdaptiveConfig(estimator_tag="Emagic")


def _assert_same_solution(got, want):
    assert got.space == want.space and got.gmres_iters == want.gmres_iters
    assert np.array_equal(got.mesh_ref.vertices, want.mesh_ref.vertices)
    assert np.array_equal(got.mesh_ref.triangles, want.mesh_ref.triangles)
    assert np.array_equal(got.u_trace, want.u_trace)
    assert np.array_equal(got.dudn_trace, want.dudn_trace)


def test_solve_iteration_matches_the_solvers_called_with_the_config(case, monkeypatch):
    mesh, background = pa.icosphere(1.0, 1), pa.icosphere(1.0, 3)
    config = small_config(refinement_mode="conforming", adjoint_refine_levels=1,
                          background_mesh=background, gmres_tol=1e-9)
    charges, physics = case.charges, case.physics
    forward, energy, adjoint = driver_mod.solve_iteration(mesh, charges, physics, config, True)
    want = pa.solve_forward(mesh, physics, charges, gmres_tol=1e-9)
    _assert_same_solution(forward, want)
    want_energy = pa.solvation_energy(want, charges, physics)
    assert energy.dG_solv == want_energy.dG_solv
    assert np.array_equal(energy.per_charge, want_energy.per_charge)
    want = pa.solve_adjoint(mesh, physics, charges, refine_levels=1, background=background,
                            gmres_tol=1e-9)
    _assert_same_solution(adjoint, want)
    assert adjoint.mesh_ref.n_panels == 4 * mesh.n_panels  # one conforming 4-split level
    assert np.array_equal(adjoint.mesh_ref.parent_map, want.mesh_ref.parent_map)

    def no_adjoint(*args, **kwargs):
        raise AssertionError("solve_adjoint called")

    monkeypatch.setattr(driver_mod, "solve_adjoint", no_adjoint)
    forward, energy, adjoint = driver_mod.solve_iteration(mesh, charges, physics, config, False)
    assert adjoint is None
    _assert_same_solution(forward, pa.solve_forward(mesh, physics, charges, gmres_tol=1e-9))
    assert energy.dG_solv == want_energy.dG_solv
