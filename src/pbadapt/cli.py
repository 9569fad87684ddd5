"""Command-line interface: solve, estimate, adapt, oracle.

Runs are configured by an INI file with sections [mesh], [charges],
[physics] and [adapt] (plus an optional [oracle] section); command-line
flags override file values. Exit codes: 0 ok, 2 configuration, 3 input
(unparsable, an invalid mesh, a charge outside the surface), 4 solver,
5 internal.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from .driver import AdaptiveConfig, adaptive_loop, save_history, solve_iteration, uniform_loop
from .errors import (
    ConfigError,
    DomainError,
    ExtrapolationError,
    LoopAbortedError,
    MeshInvariantError,
    ParseError,
    PbAdaptError,
    SolverError,
    UsageError,
)
from .estimator import ESTIMATORS, effectivity
from .mesh import SurfaceMesh, icosphere, load_msms, save_panel_values
from .oracle import SphereCase, kirkwood_energy, richardson
from .physics import BiePhysics, ChargeSet, load_pqr

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_SOLVER = 4
EXIT_INTERNAL = 5

# (key in [adapt], command-line flag, AdaptiveConfig field, type); a flag
# overrides its key, and AdaptiveConfig supplies defaults and checks ranges
RUN_SETTINGS = (
    ("estimator", "--estimator", "estimator_tag", str),
    ("fraction", "--fraction", "marking_fraction", float),
    ("adjoint_levels", "--adjoint-levels", "adjoint_refine_levels", int),
    ("mode", "--mode", "refinement_mode", str),
    ("iterations", "--iters", "max_iterations", int),
    ("gmres_tol", "--gmres-tol", "gmres_tol", float),
)

# the keys each section may hold; any other key is a configuration error
SECTION_KEYS = {
    "mesh": {"type", "radius", "level", "vert", "face",
             "background_level", "background_vert", "background_face"},
    "charges": {"pqr", "inline"},
    "physics": {"eps_m", "eps_w", "kappa"},
    "adapt": {key for key, *_ in RUN_SETTINGS},
    "oracle": {"mode", "n_terms", "values"},
}


def _check_keys(cp: configparser.ConfigParser) -> None:
    """Reject sections and keys the config does not know, so a misspelt name
    cannot run with its default.

    [DEFAULT] keys show up in every section; each must be known to some section.
    """
    sections = sorted(set(cp.sections()) - set(SECTION_KEYS))
    if sections:
        raise ConfigError(f"unknown section(s): {', '.join(f'[{s}]' for s in sections)}")
    defaults = set(cp.defaults())
    checks = [(cp.default_section, defaults, set().union(*SECTION_KEYS.values()))]
    checks += [(name, set(cp[name]) - defaults, known)
               for name, known in SECTION_KEYS.items() if name in cp]
    for name, keys, known in checks:
        unknown = sorted(keys - known)
        if unknown:
            raise ConfigError(f"unknown key(s) in [{name}]: {', '.join(unknown)}")


def _read_config(path) -> configparser.ConfigParser:
    if path is None:
        raise ConfigError("--config is required")
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    _check_keys(cp)
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
    rows = []
    for line in inline.strip().splitlines():
        fields = line.split()
        if len(fields) != 4:
            raise ConfigError(f"inline charge rows are 'q x y z'; got {line!r}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise ConfigError(f"bad inline charge {line!r}: {exc}") from exc
    rows = np.array(rows)
    try:
        return ChargeSet(rows[:, 1:], rows[:, 0])
    except UsageError as exc:
        raise ConfigError(f"[charges] {exc}") from exc


def _build_physics(cp) -> BiePhysics:
    sec = cp["physics"] if "physics" in cp else {}
    try:
        return BiePhysics(**{key: _get(sec, key, float) for key in SECTION_KEYS["physics"]
                             if key in sec})
    except UsageError as exc:
        raise ConfigError(f"[physics] {exc}") from exc


def _load_run(args):
    """Everything solve, estimate and adapt read from the config file and flags.

    Returns (cp, mesh, charges, physics, config); ``config`` holds the
    ``RUN_SETTINGS`` the file or the flags set and any background mesh.
    """
    cp = _read_config(args.config)
    mesh, charges, physics = _build_mesh(cp), _build_charges(cp), _build_physics(cp)
    sec = cp["adapt"] if "adapt" in cp else cp[cp.default_section]
    settings = {}
    for key, _flag, field, kind in RUN_SETTINGS:
        if getattr(args, field) is not None:
            settings[field] = getattr(args, field)
        elif key in sec:
            settings[field] = _get(sec, key, kind)
    try:
        config = AdaptiveConfig(background_mesh=_build_background(cp), **settings)
    except UsageError as exc:
        raise ConfigError(f"[adapt] {exc}") from exc
    return cp, mesh, charges, physics, config


def _out_dir(args) -> Path:
    out = Path(args.out or "runs")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _is_sphere(cp) -> bool:
    """Whether [mesh] is an icosphere, the mesh with an analytic reference."""
    return "mesh" in cp and cp["mesh"].get("type", "icosphere") == "icosphere"


def _kirkwood_reference(cp, charges, physics) -> float:
    if not _is_sphere(cp):
        raise ConfigError("kirkwood reference needs an icosphere [mesh]")
    radius = _get(cp["mesh"], "radius", float, 1.0)
    n_terms = _get(cp["oracle"], "n_terms", int, 80) if "oracle" in cp else 80
    try:
        case = SphereCase(radius, charges, physics, n_terms)
    except UsageError as exc:
        raise ConfigError(f"kirkwood reference: {exc}") from exc
    return kirkwood_energy(case)


def _exact_reference(cp, mesh, charges, physics, config) -> float | None:
    """Reference energy for effectivity ratios.

    Analytic spheres use the multipole series; any mesh can opt into a
    Richardson-extrapolated value from a three-level uniform refinement
    history ([oracle] mode = richardson). Returns None when no reference is
    available, and raises ExtrapolationError when that history does not
    converge.
    """
    mode = cp["oracle"].get("mode") if "oracle" in cp else None
    if mode is None:
        mode = "kirkwood" if _is_sphere(cp) else "none"
    if mode == "none":
        return None
    if mode == "kirkwood":
        return _kirkwood_reference(cp, charges, physics)
    if mode == "richardson":
        history = uniform_loop(mesh, charges, physics, levels=3,
                               background=config.background_mesh, gmres_tol=config.gmres_tol)
        value, _order = richardson([rec.energy.dG_solv for rec in history])
        return value
    raise ConfigError(f"unknown oracle mode {mode!r}")


def cmd_solve(args) -> int:
    _cp, mesh, charges, physics, config = _load_run(args)
    history = uniform_loop(mesh, charges, physics, levels=1, gmres_tol=config.gmres_tol)
    energy = history[0].energy
    print(f"dG_solv = {energy.dG_solv:.6f} kcal/mol")
    print(f"N_panels = {mesh.n_panels}")
    print(f"gmres_iters = {energy.diagnostics['gmres_iters']}")
    print(f"gmres_tol = {config.gmres_tol:g}")
    save_history(history, _out_dir(args))
    return EXIT_OK


def cmd_estimate(args) -> int:
    cp, mesh, charges, physics, config = _load_run(args)
    forward, energy, adjoint = solve_iteration(mesh, charges, physics, config, adjoint=True)
    out = _out_dir(args)
    maps = {tag: estimate(forward, adjoint, charges, physics)
            for tag, estimate in ESTIMATORS.items()}
    for tag, emap in maps.items():
        save_panel_values(mesh, emap.per_panel, out / f"{tag.lower()}_per_panel.csv")
        print(f"{tag}: signed total = {emap.signed_total:.6f} kcal/mol")
    print(f"dG_solv = {energy.dG_solv:.6f} kcal/mol (N_panels = {mesh.n_panels})")
    why = "no reference value; supply [oracle] mode = richardson"
    try:
        exact = _exact_reference(cp, mesh, charges, physics, config)
    except ExtrapolationError as exc:
        exact, why = None, f"no Richardson reference: {exc}"
    if exact is None:
        print(f"gamma_eff: omitted ({why})")
    else:
        for tag, emap in maps.items():
            gamma = effectivity(emap.signed_total, energy.dG_solv, exact)
            print(f"gamma_eff[{tag}] = {gamma:.4f}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    _cp, mesh, charges, physics, config = _load_run(args)
    out = _out_dir(args)
    try:
        history = adaptive_loop(mesh, charges, physics, config)
    except LoopAbortedError as exc:
        save_history(exc.history, out)  # keep the iterations that finished
        raise
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
            extrapolated, order = richardson(cp["oracle"]["values"].split())
        except (ValueError, UsageError, ExtrapolationError) as exc:
            raise ConfigError(f"bad [oracle] values: {exc}") from exc
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
        p.set_defaults(handler=fn)
        p.add_argument("--config")
        if fn is cmd_oracle:  # reads no run setting
            continue
        p.add_argument("--out")
        for _key, flag, field, kind in RUN_SETTINGS:
            p.add_argument(flag, dest=field, type=kind)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PbAdaptError, FileNotFoundError) as exc:
        # an aborted loop exits the way the error that stopped it would
        cause = exc.__cause__ if isinstance(exc, LoopAbortedError) else exc
        for kinds, prefix, code in (
            (ConfigError, "config error", EXIT_CONFIG),
            ((ParseError, MeshInvariantError, DomainError, FileNotFoundError), "input error",
             EXIT_INPUT),
            (SolverError, "solver error", EXIT_SOLVER),
            (object, "error", EXIT_INTERNAL),
        ):
            if isinstance(cause, kinds):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())
