"""Command-line interface: solve, estimate, adapt, oracle.

Runs are configured by an INI file with sections [mesh], [charges],
[physics] and [adapt] (plus an optional [oracle] section); command-line
flags override file values. Exit codes: 0 ok, 2 configuration, 3 input
parse, 4 solver, 5 internal.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from pathlib import Path

import numpy as np

from .driver import (
    ENERGY_CSV_HEADER,
    AdaptiveConfig,
    adaptive_loop,
    save_history,
    uniform_loop,
)
from .errors import (
    ConfigError,
    MeshInvariantError,
    ParseError,
    PbAdaptError,
    SolverError,
    UsageError,
)
from .estimator import estimate_Ephi, estimate_Eu, effectivity
from .mesh import SurfaceMesh, icosphere, load_msms, save_panel_values
from .oracle import SphereCase, kirkwood_energy, richardson
from .physics import BiePhysics, ChargeSet, load_pqr, solvation_energy
from .solver import DEFAULT_GMRES_TOL, solve_adjoint, solve_forward

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_SOLVER = 4
EXIT_INTERNAL = 5


def _read_config(path) -> configparser.ConfigParser:
    if path is None:
        raise ConfigError("--config is required")
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    return cp


def _get(section, key, kind, default=None):
    """``section[key]`` parsed by ``kind`` (float or int); ``default`` when absent."""
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing key {key!r} in [{section.name}]")
        return default
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad {kind.__name__} for {key!r}: {raw!r}") from exc


def _positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _require_file(path, what):
    if path is None:
        raise ConfigError(f"missing {what}")
    if not Path(path).exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _icosphere(sec, level_key, default_level=None) -> SurfaceMesh:
    try:
        return icosphere(_get(sec, "radius", float, 1.0), _get(sec, level_key, int, default_level))
    except ValueError as exc:
        raise ConfigError(f"[mesh] {exc}") from exc


def _build_mesh(cp) -> SurfaceMesh:
    if "mesh" not in cp:
        raise ConfigError("missing [mesh] section")
    sec = cp["mesh"]
    kind = sec.get("type", "icosphere")
    if kind == "icosphere":
        return _icosphere(sec, "level", 3)
    if kind == "msms":
        vert = _require_file(sec.get("vert"), "vert file")
        face = _require_file(sec.get("face"), "face file")
        return load_msms(vert, face)
    raise ConfigError(f"unknown mesh type {kind!r}")


def _build_background(cp) -> SurfaceMesh | None:
    sec = cp["mesh"] if "mesh" in cp else {}
    if "background_level" in sec:
        return _icosphere(sec, "background_level")
    if "background_vert" in sec:
        return load_msms(
            _require_file(sec.get("background_vert"), "background vert file"),
            _require_file(sec.get("background_face"), "background face file"),
        )
    return None


def _build_charges(cp) -> ChargeSet:
    if "charges" not in cp:
        raise ConfigError("missing [charges] section")
    sec = cp["charges"]
    if sec.get("pqr"):
        return load_pqr(_require_file(sec.get("pqr"), "pqr file"))
    inline = sec.get("inline")
    if not inline:
        raise ConfigError("[charges] needs either 'pqr' or 'inline'")
    positions, charges = [], []
    for line in inline.strip().splitlines():
        fields = line.split()
        if len(fields) != 4:
            raise ConfigError(f"inline charge rows are 'q x y z'; got {line!r}")
        try:
            q, x, y, z = (float(v) for v in fields)
        except ValueError as exc:
            raise ConfigError(f"bad inline charge {line!r}: {exc}") from exc
        charges.append(q)
        positions.append([x, y, z])
    return ChargeSet(np.array(positions), np.array(charges))


def _build_physics(cp) -> BiePhysics:
    if "physics" not in cp:
        return BiePhysics()
    sec = cp["physics"]
    try:
        return BiePhysics(
            eps_m=_get(sec, "eps_m", float, 4.0),
            eps_w=_get(sec, "eps_w", float, 80.0),
            kappa=_get(sec, "kappa", float, 0.125),
        )
    except UsageError as exc:
        raise ConfigError(f"[physics] {exc}") from exc


def _adapt_settings(cp, args) -> dict:
    """[adapt] values, each overridden by its command-line flag when given."""
    sec = cp["adapt"] if "adapt" in cp else cp[cp.default_section]

    def pick(flag, kind, key, default):
        return flag if flag is not None else _get(sec, key, kind, default)

    settings = {
        "estimator": args.estimator or sec.get("estimator", "Eu"),
        "fraction": pick(args.fraction, float, "fraction", 0.10),
        "adjoint_levels": pick(args.adjoint_levels, int, "adjoint_levels", 1),
        "mode": args.mode or sec.get("mode", "flat"),
        "iters": pick(args.iters, int, "iterations", 1),
        "gmres_tol": pick(args.gmres_tol, float, "gmres_tol", DEFAULT_GMRES_TOL),
    }
    if settings["estimator"] not in ("Ephi", "Eu"):
        raise ConfigError(f"unknown estimator {settings['estimator']!r}")
    if settings["mode"] not in ("flat", "conforming"):
        raise ConfigError(f"unknown refinement mode {settings['mode']!r}")
    for ok, what in (
        (0.0 < settings["fraction"] <= 1.0, "fraction must lie in (0, 1]"),
        (settings["adjoint_levels"] >= 0, "adjoint_levels must be >= 0"),
        (settings["iters"] >= 1, "iterations must be >= 1"),
        (settings["gmres_tol"] > 0.0, "gmres_tol must be > 0"),
    ):
        if not ok:
            raise ConfigError(what)
    return settings


def _load_run(args, background: bool = True):
    """Everything solve, estimate and adapt read from the config file and flags.

    Returns (cp, mesh, charges, physics, settings, background mesh or None);
    ``background=False`` skips building a background mesh that is not used.
    """
    cp = _read_config(args.config)
    mesh, charges, physics = _build_mesh(cp), _build_charges(cp), _build_physics(cp)
    settings = _adapt_settings(cp, args)
    return cp, mesh, charges, physics, settings, _build_background(cp) if background else None


def _out_dir(args) -> Path:
    out = Path(args.out or "runs")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _kirkwood_reference(cp, charges, physics) -> float:
    if "mesh" not in cp or cp["mesh"].get("type", "icosphere") != "icosphere":
        raise ConfigError("kirkwood reference needs an icosphere [mesh]")
    radius = _get(cp["mesh"], "radius", float, 1.0)
    n_terms = _get(cp["oracle"], "n_terms", int, 80) if "oracle" in cp else 80
    return kirkwood_energy(SphereCase(radius, charges, physics, n_terms))


def _exact_reference(cp, mesh, charges, physics, settings, background, threads) -> float | None:
    """Reference energy for effectivity ratios.

    Analytic spheres use the multipole series; any mesh can opt into a
    Richardson-extrapolated value from a three-level uniform refinement
    history ([oracle] mode = richardson). Returns None when no reference is
    available.
    """
    is_sphere = "mesh" in cp and cp["mesh"].get("type", "icosphere") == "icosphere"
    mode = cp["oracle"].get("mode") if "oracle" in cp else None
    if mode is None:
        mode = "kirkwood" if is_sphere else "none"
    if mode == "none":
        return None
    if mode == "kirkwood":
        return _kirkwood_reference(cp, charges, physics)
    if mode == "richardson":
        refine_mode = "conforming" if background is not None else "flat"
        history = uniform_loop(
            mesh, charges, physics, levels=3, mode=refine_mode, background=background,
            gmres_tol=settings["gmres_tol"], threads=threads,
        )
        value, _order = richardson([rec.energy.dG_solv for rec in history])
        return value
    raise ConfigError(f"unknown oracle mode {mode!r}")


def cmd_solve(args) -> int:
    _cp, mesh, charges, physics, settings, _ = _load_run(args, background=False)
    start = time.perf_counter()
    solution = solve_forward(
        mesh, physics, charges, gmres_tol=settings["gmres_tol"], threads=args.threads
    )
    energy = solvation_energy(solution, charges, physics, threads=args.threads)
    wall = time.perf_counter() - start
    print(f"dG_solv = {energy.dG_solv:.6f} kcal/mol")
    print(f"N_panels = {mesh.n_panels}")
    print(f"gmres_iters = {solution.gmres_iters}")
    print(f"gmres_tol = {settings['gmres_tol']:g}")
    out = _out_dir(args)
    row = f"0,{mesh.n_panels},{energy.dG_solv!r},,,{solution.gmres_iters},{wall!r}"
    (out / "energy.csv").write_text(ENERGY_CSV_HEADER + "\n" + row + "\n")
    return EXIT_OK


def cmd_estimate(args) -> int:
    cp, mesh, charges, physics, settings, background = _load_run(args)
    forward = solve_forward(
        mesh, physics, charges, gmres_tol=settings["gmres_tol"], threads=args.threads
    )
    energy = solvation_energy(forward, charges, physics, threads=args.threads)
    adjoint = solve_adjoint(
        mesh,
        physics,
        charges,
        refine_levels=settings["adjoint_levels"],
        background=background,
        gmres_tol=settings["gmres_tol"],
        threads=args.threads,
    )
    out = _out_dir(args)
    maps = {
        "Ephi": estimate_Ephi(forward, adjoint, charges, physics),
        "Eu": estimate_Eu(forward, adjoint, charges, physics),
    }
    for tag, emap in maps.items():
        save_panel_values(mesh, emap.per_panel, out / f"{tag.lower()}_per_panel.csv")
        print(f"{tag}: signed total = {emap.signed_total:.6f} kcal/mol")
    print(f"dG_solv = {energy.dG_solv:.6f} kcal/mol (N_panels = {mesh.n_panels})")
    exact = _exact_reference(cp, mesh, charges, physics, settings, background, args.threads)
    if exact is None:
        print("gamma_eff: omitted (no reference value; supply [oracle] mode = richardson)")
    else:
        for tag, emap in maps.items():
            gamma = effectivity(emap.signed_total, energy.dG_solv, exact)
            print(f"gamma_eff[{tag}] = {gamma:.4f}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    _cp, mesh, charges, physics, settings, background = _load_run(args)
    if settings["mode"] == "conforming" and background is None:
        raise ConfigError("conforming refinement needs a background mesh in [mesh]")
    config = AdaptiveConfig(
        estimator_tag=settings["estimator"],
        marking_fraction=settings["fraction"],
        adjoint_refine_levels=settings["adjoint_levels"],
        refinement_mode=settings["mode"],
        max_iterations=settings["iters"],
        background_mesh=background,
        gmres_tol=settings["gmres_tol"],
        threads=args.threads,
    )
    history = adaptive_loop(mesh, charges, physics, config)
    out = _out_dir(args)
    save_history(history, out)
    last = history[-1]
    print(f"iterations = {len(history)}")
    print(f"final dG_solv = {last.energy.dG_solv:.6f} kcal/mol on {last.mesh.n_panels} panels")
    print(f"run directory = {out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    cp = _read_config(args.config)
    if "oracle" in cp and cp["oracle"].get("values"):
        try:
            vals = [float(v) for v in cp["oracle"]["values"].split()]
        except ValueError as exc:
            raise ConfigError(f"bad [oracle] values: {exc}") from exc
        extrapolated, order = richardson(vals)
        print(f"richardson = {extrapolated!r} (order {order:.4f})")
        return EXIT_OK
    value = _kirkwood_reference(cp, _build_charges(cp), _build_physics(cp))
    print(f"kirkwood dG_solv = {value!r} kcal/mol")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbadapt",
        description="Boundary-element Poisson-Boltzmann solvation with adaptive refinement",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("solve", cmd_solve),
        ("estimate", cmd_estimate),
        ("adapt", cmd_adapt),
        ("oracle", cmd_oracle),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=False)
        p.add_argument("--out", default=None)
        p.add_argument("--estimator", choices=("Ephi", "Eu"), default=None)
        p.add_argument("--fraction", type=float, default=None)
        p.add_argument("--adjoint-levels", dest="adjoint_levels", type=int, default=None)
        p.add_argument("--mode", choices=("flat", "conforming"), default=None)
        p.add_argument("--iters", type=int, default=None)
        p.add_argument("--gmres-tol", dest="gmres_tol", type=float, default=None)
        p.add_argument("--threads", type=_positive_int, default=None,
                       help="worker threads (default: every CPU this process may use)")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, MeshInvariantError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except PbAdaptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
