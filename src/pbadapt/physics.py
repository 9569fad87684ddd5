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
from .mesh import SurfaceMesh, points_inside
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
        if not (0 < self.eps_m < np.inf and 0 < self.eps_w < np.inf):
            raise UsageError("permittivities must be finite and positive")
        if not 0 <= self.kappa < np.inf:
            raise UsageError("kappa must be finite and >= 0")


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
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(q))):
            raise UsageError("charge positions and values must be finite")
        pos.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "charges", q)

    def __len__(self) -> int:
        return len(self.charges)


def _require_inside(mesh: SurfaceMesh, points, what: str) -> None:
    """Raise DomainError naming the first ``what`` of ``points`` not strictly inside."""
    inside = points_inside(mesh, points)
    if not np.all(inside):
        raise DomainError(f"{what} {int(np.flatnonzero(~inside)[0])} lies outside the surface")


def require_charges_inside(charges: ChargeSet, mesh: SurfaceMesh) -> None:
    """Raise DomainError unless every charge sits strictly inside the surface."""
    _require_inside(mesh, charges.positions, "charge")


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
    return (charges.charges[None, :] / (kernels.FOUR_PI * r)).sum(axis=1) / physics.eps_m


def _gradient(charges: ChargeSet, physics: BiePhysics, d, r) -> np.ndarray:
    w = charges.charges[None, :] / (kernels.FOUR_PI * (r * r * r))
    g = np.stack([(w * di).sum(axis=1) for di in d], axis=1)
    return g / physics.eps_m


def coulomb_potential(charges: ChargeSet, physics: BiePhysics, points) -> np.ndarray:
    """u_c = (1/eps_m) sum_k q_k / (4*pi*|r - r_k|)."""
    return _sweep(charges, points, lambda d, r: (_potential(charges, physics, r),), ())[0]


def coulomb_gradient(charges: ChargeSet, physics: BiePhysics, points) -> np.ndarray:
    """Gradient of the Coulomb potential at the given points, (M, 3)."""
    return _sweep(charges, points, lambda d, r: (_gradient(charges, physics, d, r),), (3,))[0]


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
    (``sweep.run_parallel``). Targets must lie inside the surface; the
    charges the solve already found inside (``solution.charges``) are not
    tested again.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    mesh = solution.mesh_ref
    checked = solution.charges
    if checked is None or not np.array_equal(targets, checked.positions):
        _require_inside(mesh, targets, "target")
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
    with open(path) as fh:
        for no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields or fields[0] not in ("ATOM", "HETATM"):
                continue
            if len(fields) < 10:
                raise ParseError(path, no, f"expected >= 10 fields, got {len(fields)}")
            try:
                x, y, z, q, _radius = (float(v) for v in fields[-5:])
            except ValueError as exc:
                raise ParseError(path, no, f"bad numeric field: {exc}") from exc
            if not np.all(np.isfinite([x, y, z, q])):
                raise ParseError(path, no, "non-finite coordinate or charge")
            positions.append([x, y, z])
            charges.append(q)
    if not charges:
        raise ParseError(path, 0, "no charges")
    return ChargeSet(np.array(positions), np.array(charges))
