"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two 20-iteration
benchmark histories are shared session fixtures (see conftest.py); they
start from deliberately imbalanced sphere meshes (coarse caps around the
charges) like the uneven output of production surface meshers.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import pbadapt as pa
from pbadapt.mesh import close_marking, mark_elements, refine_flat
from pbadapt.oracle import offcenter_benchmark


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, detail


# -- criterion 1: Born convergence ---------------------------------------------


def test_criterion_1_born_convergence(born_setup):
    physics, charges = born_setup
    exact = pa.born_energy(1.0, 1.0, physics)
    start = time.perf_counter()
    values = []
    for level in (2, 3, 4):
        mesh = pa.icosphere(1.0, level)
        sol = pa.solve_forward(mesh, physics, charges)
        values.append(pa.solvation_energy(sol, charges, physics).dG_solv)
    elapsed = time.perf_counter() - start
    _, order = pa.richardson(values)
    rel4 = abs((values[-1] - exact) / exact)
    ok = 0.8 <= order <= 1.2 and rel4 <= 0.005 and elapsed <= 120.0
    _report(
        "criterion 1 (Born convergence)",
        ok,
        f"order p={order:.3f} in [0.8,1.2], level-4 rel err {rel4*100:.3f}% <= 0.5%, "
        f"runtime {elapsed:.0f}s <= 120s",
    )


# -- criteria 2 and 3: sphere benchmarks vs the analytic oracle ------------------


def _check_convergence(bundle, target, name):
    exact = bundle["exact"]
    final = bundle["adaptive"][-1].energy.dG_solv
    rel = abs((exact - final) / exact)
    oracle_ok = abs(exact - target) <= 0.5e-4  # agreement to 6 significant figures
    ok = rel <= 0.01 and oracle_ok
    _report(
        name,
        ok,
        f"final rel err {rel*100:.3f}% <= 1% after 20 conforming iterations; "
        f"oracle {exact:.6f} vs {target:.6f} (6 significant figures)",
    )


def test_criterion_2_offcenter(offcenter_bundle):
    _check_convergence(offcenter_bundle, -52.462648, "criterion 2 (off-center sphere)")


def test_criterion_3_charge_dipole(dipole_bundle):
    _check_convergence(dipole_bundle, -65.467255, "criterion 3 (charge-dipole sphere)")


# -- criterion 4: adaptive beats uniform at matched element counts ---------------


def _beats_uniform(bundle):
    exact = bundle["exact"]
    rungs = [(r.mesh.n_panels, abs(exact - r.energy.dG_solv)) for r in bundle["uniform"]]
    worst = None
    for k, rec in enumerate(bundle["adaptive"]):
        if k < 5:
            continue
        n = rec.mesh.n_panels
        err = abs(exact - rec.energy.dG_solv)
        candidates = [ue for un, ue in rungs if un >= n]
        assert candidates, "uniform baseline does not reach the adaptive element count"
        margin = err / candidates[0]
        if worst is None or margin > worst[1]:
            worst = (k, margin)
        if err >= candidates[0]:
            return False, worst
    return True, worst


def test_criterion_4_adaptive_beats_uniform(offcenter_bundle, dipole_bundle):
    ok_parts = []
    for name, bundle in (("off-center", offcenter_bundle), ("charge-dipole", dipole_bundle)):
        ok, worst = _beats_uniform(bundle)
        ok_parts.append(ok)
        print(
            f"      {name}: iterations >= 5 all below the next uniform rung "
            f"(worst ratio {worst[1]:.2f} at iteration {worst[0]})"
        )
    _report(
        "criterion 4 (adaptive beats uniform)",
        all(ok_parts),
        "adaptive error < uniform error at the nearest uniform count >= adaptive count, both cases",
    )


# -- criterion 5: effectivity trend with adjoint refinement ----------------------


def test_criterion_5_effectivity_trend(background):
    case = offcenter_benchmark()
    exact = pa.kirkwood_energy(case)
    mesh = pa.icosphere(1.0, 2)
    forward = pa.solve_forward(mesh, case.physics, case.charges)
    energy = pa.solvation_energy(forward, case.charges, case.physics)
    gammas = []
    for levels in (0, 1, 2):
        adjoint = pa.solve_adjoint(
            mesh, case.physics, case.charges, refine_levels=levels, background=background
        )
        emap = pa.estimate_Eu(forward, adjoint, case.charges, case.physics)
        gammas.append(pa.effectivity(emap.signed_total, energy.dG_solv, exact))
    dist = [abs(g - 1.0) for g in gammas]
    ok = dist[0] > dist[1] > dist[2] and 0.8 <= gammas[2] <= 1.2
    _report(
        "criterion 5 (effectivity trend)",
        ok,
        f"gamma_eff^u = {gammas[0]:.3f} -> {gammas[1]:.3f} -> {gammas[2]:.3f}, "
        f"monotone toward 1 and within [0.8, 1.2] at level 2",
    )


# -- criterion 6: the two estimators rank panels alike ----------------------------


def test_criterion_6_estimator_agreement(offcenter_bundle, dipole_bundle, background):
    rhos = []
    for bundle in (offcenter_bundle, dipole_bundle):
        case = bundle["case"]
        mesh = bundle["mesh0"]
        forward = pa.solve_forward(mesh, case.physics, case.charges)
        adjoint = pa.solve_adjoint(mesh, case.physics, case.charges, refine_levels=0)
        ephi = pa.estimate_Ephi(forward, adjoint, case.charges, case.physics)
        eu = pa.estimate_Eu(forward, adjoint, case.charges, case.physics)
        rhos.append(float(spearmanr(ephi.per_panel, eu.per_panel).statistic))
    ok = all(r >= 0.8 for r in rhos)
    _report(
        "criterion 6 (estimator agreement)",
        ok,
        f"Spearman rank correlation {rhos[0]:.3f} and {rhos[1]:.3f} >= 0.8 at iteration 0",
    )


# -- criterion 7: property suite ---------------------------------------------------


def test_criterion_7_property_suite(born_setup):
    physics, charges = born_setup
    checks = []

    mesh = pa.icosphere(1.0, 1)
    refined = refine_flat(mesh, close_marking(mesh, {0, 4, 31}))
    outward = np.all(np.einsum("ij,ij->i", refined.normals, refined.centroids) > 0)
    checks.append(("manifold/orientation preserved by refinement", refined.signed_volume > 0 and outward))

    marked_small = mark_elements([5.0, 3.0, 1.0, 1.0], 0.10)
    marked_large = mark_elements([5.0, 3.0, 1.0, 1.0], 0.60)
    checks.append(
        ("marking monotone with tie-break", marked_small == {0} and marked_small <= marked_large
         and mark_elements([1.0] * 10, 0.10) == {0})
    )

    plan = close_marking(mesh, {2, 40})
    checks.append(("closure idempotent", close_marking(mesh, plan.refine4) == plan))

    case = offcenter_benchmark()
    fwd = pa.solve_forward(pa.icosphere(1.0, 1), case.physics, case.charges)
    adj = pa.solve_adjoint(pa.icosphere(1.0, 1), case.physics, case.charges, refine_levels=0)
    for fn, tag in ((pa.estimate_Ephi, "Ephi"), (pa.estimate_Eu, "Eu")):
        emap = fn(fwd, adj, case.charges, case.physics)
        checks.append(
            (f"|signed total| <= sum of panel indicators ({tag})",
             abs(emap.signed_total) <= emap.per_panel.sum() * (1 + 1e-12))
        )

    import pointwise as pw

    m3 = pa.icosphere(1.0, 3)
    corners = m3.vertices[m3.triangles]
    total = sum(
        pw.panel_integral(
            lambda t, x, n=m3.normals[i]: pw.dgdn_laplace(t, x, n),
            np.array([0.2, -0.1, 0.3]),
            corners[i],
            pw.CENTROID,
        )
        for i in range(m3.n_panels)
    )
    checks.append(("Gauss identity within 1e-2 at level 3", abs(total + 1.0) < 1e-2))

    h = 1e-5
    r = np.array([0.9, 0.1, 0.4])
    rp = r + np.array([1.0, 0.0, 0.0])
    n = np.array([0.6, 0.8, 0.0])
    fd = (pw.g_laplace(r, rp + h * n) - pw.g_laplace(r, rp - h * n)) / (2 * h)
    checks.append(
        ("kernel derivative matches finite differences at 1e-6",
         abs(pw.dgdn_laplace(r, rp, n) - fd) <= 1e-6 * abs(fd))
    )

    m2 = pa.icosphere(1.0, 2)
    e1 = pa.solvation_energy(pa.solve_forward(m2, physics, charges), charges, physics).dG_solv
    scaled = pa.ChargeSet(charges.positions, 3.0 * charges.charges)
    e9 = pa.solvation_energy(pa.solve_forward(m2, physics, scaled), scaled, physics).dG_solv
    checks.append(("energy scales with charge squared", abs(e9 - 9.0 * e1) <= 1e-6 * abs(e9)))

    v1, p1 = pa.richardson([-4.0, -4.75, -4.9375])
    lim, c = 3.0, 8.0
    v2, p2 = pa.richardson([lim + c, lim + c / 16.0, lim + c / 256.0])
    checks.append(
        ("richardson exact on constructed sequences",
         abs(v1 + 5.0) < 1e-12 and abs(p1 - 1.0) < 1e-12 and abs(v2 - lim) < 1e-10 and abs(p2 - 2.0) < 1e-12)
    )

    for label, ok in checks:
        print(f"      {'ok' if ok else 'FAIL'}: {label}")
    _report("criterion 7 (property suite)", all(ok for _, ok in checks), f"{len(checks)} properties")


# -- criterion 8: large error drop at small element growth ------------------------


def test_criterion_8_efficiency(dipole_bundle):
    exact = dipole_bundle["exact"]
    hist = dipole_bundle["adaptive"]
    err0 = abs(exact - hist[0].energy.dG_solv)
    n0 = hist[0].mesh.n_panels
    hit = None
    for k, rec in enumerate(hist):
        err = abs(exact - rec.energy.dG_solv)
        growth = rec.mesh.n_panels / n0
        if err <= err0 / 10.0 and growth <= 2.0:
            hit = (k, err, growth)
            break
    _report(
        "criterion 8 (efficiency)",
        hit is not None,
        "no iteration reached error(0)/10 within 2x elements"
        if hit is None
        else f"iteration {hit[0]}: error {hit[1]:.4f} <= {err0/10:.4f} at {hit[2]:.2f}x elements",
    )
