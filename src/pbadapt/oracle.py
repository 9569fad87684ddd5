"""Analytic references: Kirkwood-sphere energies and Richardson extrapolation.

The sphere solution expands the reaction potential of point charges inside
a dielectric sphere in Legendre series; the ionic exterior enters through
logarithmic derivatives of the modified spherical Bessel functions k_n,
computed by upward ratio recurrences (stable because k_n dominates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import eval_legendre

from .errors import ExtrapolationError, SeriesConvergenceError, UsageError
from .physics import BiePhysics, ChargeSet

MAX_TERMS = 200


@dataclass(frozen=True)
class SphereCase:
    """Point charges strictly inside a dielectric sphere in ionic solvent."""

    radius: float
    charges: ChargeSet
    physics: BiePhysics
    n_terms: int = 50

    def __post_init__(self):
        if not 0 < self.radius < np.inf:
            raise UsageError("radius must be finite and positive")
        if not 1 <= self.n_terms <= MAX_TERMS:
            raise UsageError(f"n_terms must lie in [1, {MAX_TERMS}]")
        if np.linalg.norm(self.charges.positions, axis=1).max() >= self.radius:
            raise UsageError("all charges must sit strictly inside the sphere")


def _kn_log_derivatives(x: float, nmax: int) -> np.ndarray:
    """L_n = x * k_n'(x) / k_n(x) for n = 0..nmax without over/underflow."""
    ratio = np.empty(nmax + 2)  # k_{n+1}/k_n
    ratio[0] = 1.0 + 1.0 / x
    for n in range(1, nmax + 2):
        ratio[n] = 1.0 / ratio[n - 1] + (2 * n + 1) / x
    out = np.empty(nmax + 1)
    out[0] = -(x + 1.0)
    for n in range(1, nmax + 1):
        out[n] = -x * (n / ratio[n - 1] + (n + 1) * ratio[n]) / (2 * n + 1)
    return out


def series_terms(case: SphereCase) -> np.ndarray:
    """Per-order contributions of the multipole series, already in kcal/mol.

    ``kirkwood_energy`` is the gated sum of these terms; the raw terms are
    exposed for convergence studies.
    """
    phys = case.physics
    pos, q = case.charges.positions, case.charges.charges
    rn = np.linalg.norm(pos, axis=1)
    safe = np.where(rn > 0.0, rn, 1.0)
    unit = np.where(rn[:, None] > 0.0, pos / safe[:, None], 0.0)
    cosg = np.clip(unit @ unit.T, -1.0, 1.0)
    qq = np.outer(q, q)
    radial_ratio = np.outer(rn, rn) / case.radius**2
    if phys.kappa > 0.0:
        log_der = _kn_log_derivatives(phys.kappa * case.radius, case.n_terms)
    scale = phys.energy_unit / (8.0 * np.pi * phys.eps_m * case.radius)
    terms = np.empty(case.n_terms + 1)
    for n in range(case.n_terms + 1):
        if phys.kappa > 0.0:
            ln = log_der[n]
            mult = ((n + 1) * phys.eps_m + phys.eps_w * ln) / (n * phys.eps_m - phys.eps_w * ln)
        else:
            mult = (n + 1) * (phys.eps_m - phys.eps_w) / (n * phys.eps_m + (n + 1) * phys.eps_w)
        terms[n] = scale * mult * float((qq * radial_ratio**n * eval_legendre(n, cosg)).sum())
    return terms


def kirkwood_energy(case: SphereCase) -> float:
    """Reaction (solvation) energy of the sphere case in kcal/mol.

    Series terms are accumulated until the last term falls below 1e-10 of
    the running total; exhausting ``n_terms`` first raises with a geometric
    tail estimate.
    """
    terms = series_terms(case)
    total = 0.0
    for n, term in enumerate(terms):
        total += term
        if n >= 1 and abs(term) < 1e-10 * max(abs(total), 1e-300):
            return float(total)
    radial_ratio = (
        np.linalg.norm(case.charges.positions, axis=1).max() / case.radius
    ) ** 2
    tail = abs(terms[-1]) * radial_ratio / max(1.0 - radial_ratio, 1e-16)
    raise SeriesConvergenceError(
        f"series not converged after {case.n_terms} terms", tail_estimate=tail
    )


def born_energy(q: float, radius: float, physics: BiePhysics) -> float:
    """Closed form for a centered charge: the n = 0 term of the series."""
    kr = physics.kappa * radius
    return (
        physics.energy_unit
        / (4.0 * np.pi)
        * (q * q / (2.0 * radius))
        * (1.0 / (physics.eps_w * (1.0 + kr)) - 1.0 / physics.eps_m)
    )


def richardson(values) -> tuple[float, float]:
    """Extrapolate three energies from meshes refined by a factor 4 in count.

    Returns (extrapolated value, observed order p); assumes first-order
    convergence in 1/N so consecutive differences shrink by 4**p. A history
    whose differences do not shrink (p <= 0) has no limit to extrapolate to.
    """
    values = [float(v) for v in values]
    if len(values) != 3 or not np.all(np.isfinite(values)):
        raise UsageError("richardson needs exactly three finite values")
    f1, f2, f3 = values
    d1, d2 = f2 - f1, f3 - f2
    if d1 == 0.0 or d2 == 0.0:
        raise ExtrapolationError("consecutive values are equal; order undefined")
    if d1 * d2 < 0.0:
        raise ExtrapolationError("non-monotone sequence; order undefined")
    if abs(d2) >= abs(d1):
        raise ExtrapolationError("differences do not shrink; order <= 0")
    p = np.log(d1 / d2) / np.log(4.0)
    return float(f3 + d2 / (4.0**p - 1.0)), float(p)


# ---------------------------------------------------------------------------
# reference sphere benchmarks (unit sphere, unit charges, salty water)


def _benchmark_physics() -> BiePhysics:
    return BiePhysics(eps_m=4.0, eps_w=80.0, kappa=0.125)


def offcenter_benchmark(n_terms: int = 80) -> SphereCase:
    """Unit charge displaced half a radius from the center of a unit sphere."""
    charges = ChargeSet(np.array([[0.0, 0.0, 0.5]]), np.array([1.0]))
    return SphereCase(1.0, charges, _benchmark_physics(), n_terms)


def charge_dipole_benchmark(n_terms: int = 80) -> SphereCase:
    """Unit charge at 0.62 R opposed by a two-charge dipole spanning 10 degrees."""
    half = np.radians(5.0)
    r = 0.62
    positions = np.array(
        [
            [0.0, 0.0, r],
            [0.0, -r * np.sin(half), -r * np.cos(half)],
            [0.0, r * np.sin(half), -r * np.cos(half)],
        ]
    )
    charges = ChargeSet(positions, np.array([1.0, -1.0, 1.0]))
    return SphereCase(1.0, charges, _benchmark_physics(), n_terms)
