import numpy as np
import pytest

import pbadapt as pa
from pbadapt.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, EXIT_SOLVER, main

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


def test_threads_must_be_positive(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.ini", SPHERE_SMALL)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", cfg, "--threads", "0"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


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
    # with a three-level uniform history the extrapolated reference kicks in
    with open(cfg, "a") as fh:
        fh.write("\n[oracle]\nmode = richardson\n")
    code = main(["estimate", "--config", cfg, "--out", str(tmp_path / "o2"), "--adjoint-levels", "0"])
    assert code == EXIT_OK
    assert "gamma_eff[Eu]" in capsys.readouterr().out


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
