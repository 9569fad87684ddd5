"""Point-charge electrostatics: Coulomb traces, reaction potential, energy.

Internal units: lengths in Å, charges in elementary charges, potentials in
e/Å with the 1/(4*pi) kernel convention. ``ENERGY_UNIT`` converts the
resulting energies to kcal/mol; it is fixed so that a centered unit charge
in a unit sphere reproduces 332.0636 * (q^2 / 2R) * (1/eps_w - 1/eps_m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from . import kernels
from .errors import DomainError, ParseError, SingularityError, UsageError
from .mesh import INPUT_BOUND, SurfaceMesh, points_inside, read_lines
from .sweep import sweep

if TYPE_CHECKING:
    from .solver import PanelSolution

ENERGY_UNIT = 4.0 * np.pi * 332.0636  # kcal/mol per e^2/Å
CHARGE_CLEARANCE = 1e-12              # Å; closer targets hit the Coulomb singularity


@dataclass(frozen=True)
class BiePhysics:
    """Dielectric and ionic parameters of the two-region model.

    kappa is the inverse Debye screening length of the solvent in 1/Å
    (0.125 corresponds to roughly 150 mM NaCl in water).
    """

    eps_m: float = 4.0
    eps_w: float = 80.0
    kappa: float = 0.125
    energy_unit: ClassVar[float] = ENERGY_UNIT

    def __post_init__(self):
        low, high = 1 / INPUT_BOUND, INPUT_BOUND
        if not (low <= self.eps_m <= high and low <= self.eps_w <= high
                and low <= self.eps_m / self.eps_w <= high):
            raise UsageError(f"permittivities must be finite, with eps_m >= {low:g}, eps_w >= "
                             f"{low:g} and eps_m/eps_w >= {low:g}, each at most {high:g}")
        if not 0 <= self.kappa <= high:
            raise UsageError(f"kappa must be finite, within [0, {high:g}]")


@dataclass(frozen=True)
class ChargeSet:
    """Point charges q_k at positions r_k (Å, elementary charges)."""

    positions: np.ndarray
    charges: np.ndarray

    def __post_init__(self):
        pos = np.ascontiguousarray(np.atleast_2d(np.asarray(self.positions, dtype=float)))
        q = np.ascontiguousarray(np.atleast_1d(np.asarray(self.charges, dtype=float)))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise UsageError("positions must be (N, 3)")
        if q.shape != (pos.shape[0],):
            raise UsageError("charges must match positions")
        if len(q) < 1:
            raise UsageError("at least one charge required")
        if not (np.all(np.abs(pos) <= INPUT_BOUND) and np.all(np.abs(q) <= INPUT_BOUND)):
            raise UsageError(f"charge positions and values must be finite, within {INPUT_BOUND:g}")
        pos.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "charges", q)

    def __len__(self) -> int:
        return len(self.charges)


def require_inside(mesh: SurfaceMesh, points, what: str) -> None:
    """Raise DomainError naming the first ``what`` of ``points`` not strictly inside.

    Cost (``mesh.points_inside``): a ray-crossing test of each point
    against the few panels of its grid cell, after one grid build per mesh
    (a few passes over the panels); at most ``sweep.CHUNK_PAIRS`` (point,
    panel) pairs take the solid-angle sum instead, one arctan2 per pair."""
    inside = points_inside(mesh, points)
    if not np.all(inside):
        raise DomainError(f"{what} {int(np.flatnonzero(~inside)[0])} lies outside the surface")


@dataclass(frozen=True)
class EnergyResult:
    """Solvation free energy and its per-charge decomposition (kcal/mol)."""

    dG_solv: float
    per_charge: np.ndarray
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Coulomb field of the solute charges


def _sweep(charges: ChargeSet, points, evaluate, *shapes) -> list[np.ndarray]:
    """``sweep.sweep`` over the charges: ``evaluate(d, r)`` takes a chunk's
    offsets charge minus point and their lengths. A point on a charge raises
    SingularityError."""

    def checked(rel, lens):
        (d,), (r,) = rel, lens
        if np.any(r < CHARGE_CLEARANCE):
            raise SingularityError("evaluation point coincides with a charge")
        return evaluate(d, r)

    return sweep(points, charges.positions.T[None], checked, *shapes)


def _potential(charges: ChargeSet, physics: BiePhysics, r) -> np.ndarray:
    """sum_k q_k / (4 pi r) / eps_m per row, in one chunk-sized array."""
    w = kernels.FOUR_PI * r
    np.divide(charges.charges, w, out=w)
    return w.sum(axis=1) / physics.eps_m


def _gradient(charges: ChargeSet, physics: BiePhysics, d, r) -> np.ndarray:
    """sum_k q_k d_k / (4 pi r^3) / eps_m per row, in one chunk-sized array
    and the offsets ``d``, which it overwrites."""
    w = r * r
    w *= r
    np.multiply(kernels.FOUR_PI, w, out=w)
    np.divide(charges.charges, w, out=w)
    g = np.empty((len(r), 3))
    for i, di in enumerate(d):
        di *= w
        di.sum(axis=1, out=g[:, i])
    g /= physics.eps_m
    return g


def coulomb_potential(charges: ChargeSet, physics: BiePhysics, points) -> np.ndarray:
    """u_c = (1/eps_m) sum_k q_k / (4*pi*|r - r_k|)."""
    return _sweep(charges, points, lambda d, r: (_potential(charges, physics, r),), ())[0]


def coulomb_trace(charges: ChargeSet, physics: BiePhysics, points, normals):
    """Coulomb potential and its normal derivative at surface points."""
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    u, grad = _sweep(charges, points, lambda d, r: (_potential(charges, physics, r),
                                                     _gradient(charges, physics, d, r)), (), (3,))
    return u, np.einsum("mx,mx->m", grad, normals)


# ---------------------------------------------------------------------------
# reaction potential and energy


def reaction_potential(solution: "PanelSolution", targets) -> np.ndarray:
    """Solvent reaction potential at interior points from the surface traces.

    Evaluates the interior representation with the Laplace kernel,
    u_r = -K[u] + V[du/dn]; panels close to a target get the closed-form
    flat-panel integrals. The kernel layer runs one worker per usable CPU
    (``sweep.run_parallel``). Targets must lie inside the surface.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    mesh = solution.mesh_ref
    require_inside(mesh, targets, "target")
    vl, kl = (np.empty((len(targets), len(solution.u_trace))) for _ in range(2))
    kernels.operator_blocks(targets, mesh, 0.0, (vl, kl, None, None), solution.space == "P1")
    return -(kl @ solution.u_trace) + vl @ solution.dudn_trace


def solvation_energy(
    solution: "PanelSolution", charges: ChargeSet, physics: BiePhysics
) -> EnergyResult:
    """Electrostatic solvation free energy (1/2) sum_k q_k u_r(r_k), in kcal/mol."""
    ur = reaction_potential(solution, charges.positions)
    per_charge = physics.energy_unit * 0.5 * charges.charges * ur
    diag = {
        "n_panels": solution.mesh_ref.n_panels,
        "space": solution.space,
        "gmres_iters": solution.gmres_iters,
        "gmres_residual": solution.gmres_residual,
        "gmres_cycles": len(solution.gmres_history),
        "gmres_history": list(solution.gmres_history),
    }
    return EnergyResult(float(per_charge.sum()), per_charge, diag)


# ---------------------------------------------------------------------------
# PQR input


def load_pqr(path) -> ChargeSet:
    """Read charges from ATOM/HETATM records of a PQR file.

    Records may or may not carry a chain column; the last five fields are
    always x, y, z, charge, radius.
    """
    positions, charges = [], []
    for no, line in enumerate(read_lines(path), start=1):
        fields = line.split()
        if not fields or fields[0] not in ("ATOM", "HETATM"):
            continue
        if len(fields) < 10:
            raise ParseError(path, no, f"expected >= 10 fields, got {len(fields)}")
        try:
            x, y, z, q, _radius = (float(v) for v in fields[-5:])
        except ValueError as exc:
            raise ParseError(path, no, f"bad numeric field: {exc}") from exc
        if not np.all(np.abs([x, y, z, q]) <= INPUT_BOUND):
            raise ParseError(path, no, "non-finite coordinate or charge, or one beyond "
                             f"{INPUT_BOUND:g}")
        positions.append([x, y, z])
        charges.append(q)
    if not charges:
        raise ParseError(path, 0, "no charges")
    return ChargeSet(np.array(positions), np.array(charges))
