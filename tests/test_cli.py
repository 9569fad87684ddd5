import re
from pathlib import Path

import numpy as np
import pytest

import pbadapt as pa
from pbadapt.cli import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SOLVER,
    _load_run,
    build_parser,
    main,
)
from pbadapt.errors import SolverError

from conftest import make_tetrahedron


def write_config(path, text):
    path.write_text(text)
    return str(path)


BORN_L3 = """
[mesh]
type = icosphere
radius = 1.0
level = 3

[charges]
inline = 1.0  0.0 0.0 0.0

[physics]
eps_m = 1.0
eps_w = 80.0
kappa = 0.0
"""

SPHERE_SMALL = """
[mesh]
type = icosphere
radius = 1.0
level = 1

[charges]
inline = 1.0  0.0 0.0 0.5

[physics]
eps_m = 4.0
eps_w = 80.0
kappa = 0.125
"""


def test_solve_born_within_two_percent(tmp_path, capsys):
    cfg = write_config(tmp_path / "born.ini", BORN_L3)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    dg = float(next(ln for ln in out.splitlines() if ln.startswith("dG_solv")).split()[2])
    target = -332.0636 * 0.5 * (1.0 - 1.0 / 80.0)
    assert abs((dg - target) / target) < 0.02
    assert "N_panels = 1280" in out
    assert "gmres_tol = 1e-08" in out
    csv = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    assert csv[0].startswith("iter,N_panels,dG")
    assert len(csv) == 2
    assert csv[0].split(",")[6] == "wall_time_s"
    assert float(csv[1].split(",")[6]) > 0.0


def test_solve_echoes_gmres_tol_override(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.ini", SPHERE_SMALL)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--gmres-tol", "1e-6"])
    assert code == EXIT_OK
    assert "gmres_tol = 1e-06" in capsys.readouterr().out


def test_missing_config_is_config_error(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG
    assert main(["solve"]) == EXIT_CONFIG


def test_missing_pqr_is_input_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.ini",
        "[mesh]\ntype = icosphere\nradius = 1\nlevel = 1\n\n[charges]\npqr = missing.pqr\n",
    )
    assert main(["solve", "--config", cfg]) == EXIT_INPUT


def test_bad_estimator_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SPHERE_SMALL + "\n[adapt]\nestimator = Emagic\n")
    assert main(["estimate", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, text, flags",
    [
        ("adapt", SPHERE_SMALL + "\n[adapt]\nfraction = abc\n", []),
        ("adapt", SPHERE_SMALL + "\n[adapt]\nfraction = 0\n", []),
        ("estimate", SPHERE_SMALL, ["--adjoint-levels", "-1"]),
        ("adapt", SPHERE_SMALL, ["--mode", "conforming"]),  # no background mesh
        ("solve", SPHERE_SMALL.replace("eps_m = 4.0", "eps_m = 0"), []),
        ("solve", SPHERE_SMALL.replace("level = 1", "level = -1"), []),
    ],
    ids=["fraction-abc", "fraction-0", "adjoint-levels", "no-background", "eps_m", "level"],
)
def test_bad_settings_are_config_errors(tmp_path, capsys, command, text, flags):
    cfg = write_config(tmp_path / "c.ini", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), *flags]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unreachable_tolerance_is_solver_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.ini", SPHERE_SMALL)
    code = main(["solve", "--config", cfg, "--gmres-tol", "1e-30"])
    assert code == EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err


def test_system_too_large_for_memory_is_solver_error(tmp_path, capsys, monkeypatch):
    from pbadapt import solver

    cfg = write_config(tmp_path / "s.ini", SPHERE_SMALL)
    monkeypatch.setattr(solver, "_memory_budget", lambda: 0)
    assert main(["solve", "--config", cfg]) == EXIT_SOLVER
    assert "needs" in capsys.readouterr().err


def test_estimate_sphere_reports_gamma_both_estimators(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.ini", SPHERE_SMALL)
    out_dir = tmp_path / "est"
    code = main(["estimate", "--config", cfg, "--out", str(out_dir), "--adjoint-levels", "0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "gamma_eff[Ephi]" in out and "gamma_eff[Eu]" in out
    for tag in ("ephi", "eu"):
        rows = (out_dir / f"{tag}_per_panel.csv").read_text().splitlines()
        assert len(rows) == 80 + 1  # header plus one row per panel


def test_estimate_conforming_adjoint_matches_adapt(tmp_path, capsys):
    # estimate and adapt must build the same (conforming) adjoint
    cfg = write_config(
        tmp_path / "c.ini", SPHERE_SMALL.replace("level = 1", "level = 1\nbackground_level = 4")
    )
    flags = ["--config", cfg, "--adjoint-levels", "1", "--mode", "conforming"]
    assert main(["estimate", *flags, "--out", str(tmp_path / "est")]) == EXIT_OK
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("Eu:"))
    run = tmp_path / "run"
    assert main(["adapt", *flags, "--iters", "1", "--estimator", "Eu", "--out", str(run)]) == EXIT_OK
    signed = float((run / "energy.csv").read_text().splitlines()[1].split(",")[3])
    assert line == f"Eu: signed total = {signed:.6f} kcal/mol"


def test_estimate_molecular_mesh_omits_gamma(tmp_path, capsys):
    tet = make_tetrahedron()
    vert = tmp_path / "m.vert"
    face = tmp_path / "m.face"
    vert.write_text(
        "# v\n#\n4 1\n"
        + "".join(f"{v[0]} {v[1]} {v[2]} 0 0 1\n" for v in tet.vertices * 3.0)
    )
    face.write_text("# f\n#\n4 1\n" + "".join(f"{t[0]+1} {t[1]+1} {t[2]+1}\n" for t in tet.triangles))
    cfg = write_config(
        tmp_path / "m.ini",
        f"[mesh]\ntype = msms\nvert = {vert}\nface = {face}\n\n"
        "[charges]\ninline = 1.0  0.7 0.7 0.7\n\n"
        "[physics]\neps_m = 4.0\neps_w = 80.0\nkappa = 0.125\n",
    )
    code = main(["estimate", "--config", cfg, "--out", str(tmp_path / "o"), "--adjoint-levels", "0"])
    assert code == EXIT_OK
    assert "omitted" in capsys.readouterr().out
    # the tetrahedron's 4/16/64-panel history does not converge (differences
    # 0.71, then 4.22 kcal/mol), so no extrapolated reference can be formed
    with open(cfg, "a") as fh:
        fh.write("\n[oracle]\nmode = richardson\n")
    code = main(["estimate", "--config", cfg, "--out", str(tmp_path / "o2"), "--adjoint-levels", "0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "gamma_eff: omitted (no Richardson reference: differences do not shrink" in out
    assert "gamma_eff[" not in out


def test_estimate_molecular_mesh_with_converging_history_reports_gamma(tmp_path, capsys):
    # an MSMS copy of a level-1 icosphere: its 80/320/1,280-panel history
    # converges (differences 0.292, then 0.046 kcal/mol; order 1.34)
    sphere = pa.icosphere(1.0, 1)
    vert = tmp_path / "m.vert"
    face = tmp_path / "m.face"
    vert.write_text(f"# v\n#\n{sphere.n_vertices} 1\n"
                    + "".join(f"{x!r} {y!r} {z!r} 0 0 1\n" for x, y, z in sphere.vertices.tolist()))
    face.write_text(f"# f\n#\n{sphere.n_panels} 1\n"
                    + "".join(f"{a+1} {b+1} {c+1}\n" for a, b, c in sphere.triangles))
    cfg = write_config(
        tmp_path / "m.ini",
        f"[mesh]\ntype = msms\nvert = {vert}\nface = {face}\n\n"
        "[charges]\ninline = 1.0  0.1 0.1 0.1\n\n"
        "[physics]\neps_m = 4.0\neps_w = 80.0\nkappa = 0.125\n\n"
        "[oracle]\nmode = richardson\n",
    )
    code = main(["estimate", "--config", cfg, "--out", str(tmp_path / "o"), "--adjoint-levels", "0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "gamma_eff[Eu]" in out and "gamma_eff[Ephi]" in out and "omitted" not in out


def test_adapt_run_directory(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.ini", SPHERE_SMALL)
    out1 = tmp_path / "run1"
    args = [
        "adapt", "--config", cfg, "--iters", "2", "--mode", "flat",
        "--adjoint-levels", "0", "--estimator", "Eu",
    ]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    rows = (out1 / "energy.csv").read_text().splitlines()
    assert len(rows) == 3  # header + one row per iteration
    # determinism: identical run reproduces identical numbers and meshes
    out2 = tmp_path / "run2"
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    for name in ("mesh_000.off", "mesh_001.off", "errors_000.csv", "errors_001.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    r1 = [ln.split(",")[:6] for ln in (out1 / "energy.csv").read_text().splitlines()]
    r2 = [ln.split(",")[:6] for ln in (out2 / "energy.csv").read_text().splitlines()]
    assert r1 == r2  # everything but the wall-time column is byte-identical


def test_energy_csv_full_precision(tmp_path):
    cfg = write_config(tmp_path / "s.ini", SPHERE_SMALL)
    out = tmp_path / "run"
    assert main(["adapt", "--config", cfg, "--iters", "1", "--mode", "flat",
                 "--adjoint-levels", "0", "--out", str(out)]) == EXIT_OK
    dg_field = (out / "energy.csv").read_text().splitlines()[1].split(",")[2]
    assert len(dg_field.replace("-", "").replace(".", "").lstrip("0")) >= 15
    assert float(dg_field) == float(repr(float(dg_field)))


def test_oracle_kirkwood_and_richardson(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "o.ini",
        "[mesh]\ntype = icosphere\nradius = 1.0\nlevel = 1\n\n"
        "[charges]\ninline = 1.0  0.0 0.0 0.5\n\n"
        "[physics]\neps_m = 4.0\neps_w = 80.0\nkappa = 0.125\n",
    )
    assert main(["oracle", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    value = float(out.split("=")[1].split()[0])
    assert value == pytest.approx(-52.462648, abs=5e-5)

    rich = write_config(
        tmp_path / "r.ini", "[oracle]\nvalues = -4.0 -4.75 -4.9375\n\n[charges]\ninline = 1 0 0 0\n"
    )
    assert main(["oracle", "--config", rich]) == EXIT_OK
    out = capsys.readouterr().out
    assert "-5.0" in out and "order 1.0000" in out


@pytest.mark.parametrize("values", ["1 2 3", "1 2 4"])
def test_oracle_values_that_do_not_converge_are_config_error(tmp_path, capsys, values):
    cfg = write_config(
        tmp_path / "r.ini", f"[oracle]\nvalues = {values}\n\n[charges]\ninline = 1 0 0 0\n"
    )
    assert main(["oracle", "--config", cfg]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: bad [oracle] values: differences do not shrink" in captured.err
    assert captured.out == ""


def test_unconverged_oracle_series_is_internal_error(tmp_path, capsys):
    """Two terms cannot sum the series of an off-center charge: the oracle
    fails with the catch-all exit code, not with a wrong energy."""
    cfg = write_config(tmp_path / "o.ini", SPHERE_SMALL + "\n[oracle]\nn_terms = 2\n")
    assert main(["oracle", "--config", cfg]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert "error: series not converged after 2 terms" in captured.err
    assert captured.out == ""


def test_born_config_oracle_closed_form(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "b.ini",
        "[mesh]\ntype = icosphere\nradius = 1.0\nlevel = 1\n\n"
        "[charges]\ninline = 1.0  0.0 0.0 0.0\n\n"
        "[physics]\neps_m = 1.0\neps_w = 80.0\nkappa = 0.0\n",
    )
    assert main(["oracle", "--config", cfg]) == EXIT_OK
    value = float(capsys.readouterr().out.split("=")[1].split()[0])
    phys = pa.BiePhysics(eps_m=1.0, eps_w=80.0, kappa=0.0)
    assert value == pytest.approx(pa.born_energy(1.0, 1.0, phys), rel=1e-10)


@pytest.mark.parametrize("radius", ["nan", "inf", "-1"])
def test_bad_oracle_radius_is_config_error(tmp_path, capsys, radius):
    cfg = write_config(tmp_path / "o.ini", f"[mesh]\nradius = {radius}\n\n"
                       "[charges]\ninline = 1.0  0.0 0.0 0.5\n")
    assert main(["oracle", "--config", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "kappa = 0.0\n", "eps_m = 2.0\neps_w = 40.0\n"],
                         ids=["empty", "kappa", "eps"])
def test_physics_keys_left_out_take_the_class_defaults(tmp_path, text):
    cfg = write_config(tmp_path / "p.ini", SPHERE_SMALL.split("[physics]")[0] + "[physics]\n" + text)
    _cp, _mesh, _charges, physics, _config = _load_run(build_parser().parse_args(
        ["solve", "--config", cfg]))
    given = dict(line.split(" = ") for line in text.splitlines())
    assert physics == pa.BiePhysics(**{k: float(v) for k, v in given.items()})


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = write_config(tmp_path / "readme.ini", block)
    assert main(["oracle", "--config", cfg]) == EXIT_OK
    args = build_parser().parse_args(["adapt", "--config", cfg])
    _cp, mesh, charges, _physics, config = _load_run(args)
    assert mesh.n_panels == 320 and len(charges.charges) == 1
    assert (config.estimator_tag, config.marking_fraction, config.adjoint_refine_levels,
            config.refinement_mode, config.max_iterations, config.gmres_tol) == (
        "Eu", 0.10, 1, "conforming", 20, 1e-8)
    assert config.background_mesh.n_panels == 20 * 4**6


@pytest.mark.parametrize(
    "text, key",
    [
        (SPHERE_SMALL.replace("level = 1", "levle = 1"), "levle"),
        (SPHERE_SMALL.replace("inline =", "pqr_file = x.pqr\ninline ="), "pqr_file"),
        (SPHERE_SMALL.replace("kappa =", "kapa ="), "kapa"),
        (SPHERE_SMALL + "\n[adapt]\niters = 20\nfracton = 0.3\n", "fracton"),
        (SPHERE_SMALL + "\n[oracle]\nnterms = 40\n", "nterms"),
        ("[DEFAULT]\nkapa = 0.1\n" + SPHERE_SMALL, "kapa"),
        (SPHERE_SMALL + "\n[adpat]\niterations = 20\n", "[adpat]"),
    ],
    ids=["mesh", "charges", "physics", "adapt", "oracle", "default", "section"],
)
def test_unknown_keys_are_config_errors(tmp_path, capsys, text, key):
    cfg = write_config(tmp_path / "c.ini", text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("values", ["1 2", "1 1 1", "-4 -4.5 -4.0", "1 nan 3", "1 2 inf"],
                         ids=["count", "equal", "non-monotone", "nan", "inf"])
def test_bad_oracle_values_are_config_errors(tmp_path, capsys, values):
    cfg = write_config(tmp_path / "r.ini", f"[oracle]\nvalues = {values}\n")
    assert main(["oracle", "--config", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "estimate", "adapt"])
@pytest.mark.parametrize(
    "setting", ["mode = conforming", "gmres_tol = 0", "estimator = Emagic"],
    ids=["no-background", "gmres-tol-0", "estimator"],
)
def test_every_run_command_rejects_the_same_file(tmp_path, capsys, command, setting):
    cfg = write_config(tmp_path / "c.ini", SPHERE_SMALL + f"\n[adapt]\n{setting}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_oracle_takes_no_run_flags(tmp_path, capsys):
    cfg = write_config(tmp_path / "r.ini", "[oracle]\nvalues = -4.0 -4.75 -4.9375\n")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--config", cfg, "--iters", "2"])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", ["eps_m", "eps_w", "kappa"])
def test_non_finite_physics_is_config_error(tmp_path, capsys, name, value):
    text = re.sub(rf"{name} = .*", f"{name} = {value}", SPHERE_SMALL)
    cfg = write_config(tmp_path / "c.ini", text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_solve_writes_a_one_iteration_run_directory(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.ini", SPHERE_SMALL)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    printed = dict(ln.split(" = ") for ln in capsys.readouterr().out.splitlines())
    assert (out / "mesh_000.off").exists()
    header, row = (out / "energy.csv").read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert f"{float(fields['dG']):.6f} kcal/mol" == printed["dG_solv"]
    assert fields["N_panels"] == printed["N_panels"] == "80"
    assert fields["gmres_iters"] == printed["gmres_iters"]
    assert fields["signed_E"] == fields["sum_Ei"] == ""


@pytest.mark.parametrize("command", ["estimate", "adapt"])
@pytest.mark.parametrize("failure, message", [("memory", "needs"), ("tolerance", "GMRES stalled")],
                         ids=["memory", "tolerance"])
def test_run_commands_exit_on_solver_failure(tmp_path, capsys, monkeypatch, command, failure,
                                             message):
    from pbadapt import solver

    cfg = write_config(tmp_path / "s.ini", SPHERE_SMALL)
    flags = ["--adjoint-levels", "0", "--out", str(tmp_path / "o")]
    if failure == "memory":
        monkeypatch.setattr(solver, "_memory_budget", lambda: 0)
    else:
        flags += ["--gmres-tol", "1e-30"]
    assert main([command, "--config", cfg, *flags]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "solver error" in err and message in err


def test_aborted_adapt_keeps_finished_iterations(tmp_path, capsys, monkeypatch):
    from pbadapt import driver

    calls = []

    def failing_second_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise SolverError("injected failure")
        return pa.solve_adjoint(*args, **kwargs)

    monkeypatch.setattr(driver, "solve_adjoint", failing_second_call)
    cfg = write_config(tmp_path / "s.ini", SPHERE_SMALL)
    out = tmp_path / "run"
    code = main(["adapt", "--config", cfg, "--iters", "3", "--mode", "flat",
                 "--adjoint-levels", "0", "--out", str(out)])
    assert code == EXIT_SOLVER
    assert "injected failure" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["energy.csv", "errors_000.csv", "mesh_000.off"]
    rows = (out / "energy.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0,80,")


def test_non_finite_vertex_is_input_error(tmp_path, capsys):
    tet = make_tetrahedron()
    coords = tet.vertices * 3.0
    coords[1, 0] = np.nan
    vert = tmp_path / "m.vert"
    face = tmp_path / "m.face"
    vert.write_text("# v\n#\n4 1\n" + "".join(f"{x} {y} {z} 0 0 1\n" for x, y, z in coords))
    face.write_text("# f\n#\n4 1\n" + "".join(f"{a+1} {b+1} {c+1}\n" for a, b, c in tet.triangles))
    cfg = write_config(
        tmp_path / "m.ini",
        f"[mesh]\ntype = msms\nvert = {vert}\nface = {face}\n\n"
        "[charges]\ninline = 1.0  0.7 0.7 0.7\n",
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert "input error: non-finite vertex coordinate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "solve", "adapt"])
def test_msms_mesh_with_unused_vertex_is_input_error(tmp_path, capsys, command):
    sphere = pa.icosphere(3.0, 1)
    coords = np.vstack([sphere.vertices, [[0.0, 0.0, 10.0]]])
    vert = tmp_path / "m.vert"
    face = tmp_path / "m.face"
    vert.write_text(f"# v\n#\n{len(coords)} 1\n"
                    + "".join(f"{x} {y} {z} 0 0 1\n" for x, y, z in coords))
    face.write_text(f"# f\n#\n{sphere.n_panels} 1\n"
                    + "".join(f"{a+1} {b+1} {c+1}\n" for a, b, c in sphere.triangles))
    cfg = write_config(
        tmp_path / "m.ini",
        f"[mesh]\ntype = msms\nvert = {vert}\nface = {face}\n\n"
        "[charges]\ninline = 1.0  0.0 0.0 0.5\n",
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert "input error: vertex 42 is used by no triangle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new",
    [("radius = 1.0", "radius = nan"), ("inline = 1.0  0.0 0.0 0.5", "inline = nan 0 0 0"),
     ("inline = 1.0  0.0 0.0 0.5", "inline = 1.0  0.0 inf 0.5")],
    ids=["radius", "charge", "position"],
)
def test_non_finite_setting_is_config_error(tmp_path, capsys, old, new):
    cfg = write_config(tmp_path / "c.ini", SPHERE_SMALL.replace(old, new))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_non_finite_pqr_charge_is_input_error(tmp_path, capsys):
    pqr = tmp_path / "c.pqr"
    pqr.write_text("ATOM 1 N MET 1 0.0 0.0 0.5 nan 1.55\n")
    text = SPHERE_SMALL.replace("inline = 1.0  0.0 0.0 0.5", f"pqr = {pqr}")
    cfg = write_config(tmp_path / "c.ini", text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert f"input error: {pqr}:1: non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "estimate", "adapt"])
def test_charge_outside_surface_is_input_error(tmp_path, capsys, command):
    text = SPHERE_SMALL.replace("inline = 1.0  0.0 0.0 0.5", "inline = 1.0  0.0 0.0 2.0")
    cfg = write_config(tmp_path / "c.ini", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert "charge 0 lies outside the surface" in capsys.readouterr().err
