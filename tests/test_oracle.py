import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre, spherical_kn

import pbadapt as pa
from pbadapt.errors import ExtrapolationError, SeriesConvergenceError, UsageError
from pbadapt.oracle import (MAX_TERMS, SphereCase, _kn_log_derivatives, _legendre,
                            offcenter_benchmark)

from conftest import charge_dipole_benchmark


def test_legendre_recurrence_matches_scipy_through_max_terms():
    x = np.concatenate([np.linspace(-1.0, 1.0, 2001), [np.cos(1e-8), -np.cos(1e-8), 1e-300]])
    for n, p in zip(range(MAX_TERMS + 1), _legendre(x)):
        assert np.abs(p - eval_legendre(n, x)).max() <= 2e-13, n


def test_centered_charge_collapses_to_born():
    phys = pa.BiePhysics(eps_m=1.0, eps_w=80.0, kappa=0.0)
    charges = pa.ChargeSet(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))
    case = SphereCase(2.0, charges, phys, n_terms=5)
    assert pa.kirkwood_energy(case) == pytest.approx(pa.born_energy(1.0, 2.0, phys), rel=1e-12)
    assert pa.born_energy(1.0, 2.0, phys) == pytest.approx(
        332.0636 * (1.0 / 4.0) * (1.0 / 80.0 - 1.0), rel=1e-12
    )


def test_born_with_salt():
    phys = pa.BiePhysics(eps_m=2.0, eps_w=80.0, kappa=0.125)
    charges = pa.ChargeSet(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))
    case = SphereCase(1.0, charges, phys, n_terms=5)
    expected = 332.0636 * 0.5 * (1.0 / (80.0 * 1.125) - 1.0 / 2.0)
    assert pa.kirkwood_energy(case) == pytest.approx(expected, rel=1e-12)


def test_no_dielectric_contrast_gives_zero():
    phys = pa.BiePhysics(eps_m=80.0, eps_w=80.0, kappa=0.0)
    charges = pa.ChargeSet(np.array([[0.0, 0.0, 0.4]]), np.array([1.0]))
    assert pa.kirkwood_energy(SphereCase(1.0, charges, phys)) == pytest.approx(0.0, abs=1e-12)


def test_reference_benchmark_values():
    assert pa.kirkwood_energy(offcenter_benchmark()) == pytest.approx(-52.462648, abs=5e-5)
    assert pa.kirkwood_energy(charge_dipole_benchmark()) == pytest.approx(-65.467255, abs=5e-5)


def test_rotation_invariance():
    case = charge_dipole_benchmark()
    rng = np.random.default_rng(5)
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    theta = 1.1
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    rot = np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)
    rotated = SphereCase(
        case.radius,
        pa.ChargeSet(case.charges.positions @ rot.T, case.charges.charges),
        case.physics,
        case.n_terms,
    )
    assert pa.kirkwood_energy(rotated) == pytest.approx(pa.kirkwood_energy(case), rel=1e-12)


def test_series_converges_monotonically():
    from pbadapt.oracle import series_terms

    for case in (offcenter_benchmark(), charge_dipole_benchmark()):
        partial = np.cumsum(series_terms(case))
        f = partial[[10, 20, 30, 40]]
        diffs = np.abs(np.diff(f))
        assert np.all(np.diff(diffs) < 0)


def test_truncation_error_carries_tail():
    case = offcenter_benchmark()
    with pytest.raises(SeriesConvergenceError) as err:
        pa.kirkwood_energy(SphereCase(case.radius, case.charges, case.physics, n_terms=3))
    assert err.value.tail_estimate is not None and err.value.tail_estimate > 0


def test_sphere_case_validation():
    phys = pa.BiePhysics()
    outside = pa.ChargeSet(np.array([[0.0, 0.0, 1.5]]), np.array([1.0]))
    with pytest.raises(UsageError):
        SphereCase(1.0, outside, phys)
    inside = pa.ChargeSet(np.array([[0.0, 0.0, 0.5]]), np.array([1.0]))
    with pytest.raises(UsageError):
        SphereCase(1.0, inside, phys, n_terms=0)
    with pytest.raises(UsageError):
        SphereCase(1.0, inside, phys, n_terms=500)


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0, 1e300, 1e-300])
def test_sphere_case_rejects_bad_radius(radius):
    inside = pa.ChargeSet(np.array([[0.0, 0.0, 0.5]]), np.array([1.0]))
    with pytest.raises(UsageError, match="radius"):
        SphereCase(radius, inside, pa.BiePhysics())


def test_bessel_log_derivatives_against_scipy():
    x = 0.125
    nmax = 50
    mine = _kn_log_derivatives(x, nmax)
    ref = np.array(
        [x * spherical_kn(n, x, derivative=True) / spherical_kn(n, x) for n in range(nmax + 1)]
    )
    assert np.allclose(mine, ref, rtol=1e-12)


def test_bessel_log_derivatives_large_order_finite():
    # scipy's k_n overflows near n ~ 150 at small argument; the ratio form must not
    vals = _kn_log_derivatives(0.125, 200)
    assert np.all(np.isfinite(vals))
    assert vals[200] < vals[10] < vals[0] < 0


# -- Richardson extrapolation ---------------------------------------------------


def test_richardson_first_order_sequence():
    value, p = pa.richardson([-4.0, -4.75, -4.9375])
    assert value == pytest.approx(-5.0, abs=1e-12)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_richardson_second_order_sequence():
    limit, c = 3.0, 8.0
    value, p = pa.richardson([limit + c, limit + c / 16.0, limit + c / 256.0])
    assert value == pytest.approx(limit, abs=1e-10)
    assert p == pytest.approx(2.0, abs=1e-12)


def test_richardson_degenerate_sequences():
    with pytest.raises(ExtrapolationError):
        pa.richardson([1.0, 1.0, 1.0])
    with pytest.raises(ExtrapolationError):
        pa.richardson([0.0, 1.0, 0.5])
    with pytest.raises(UsageError):
        pa.richardson([1.0, 2.0])


@pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], [1.0, 2.0, 4.0]], ids=["order-0", "order-neg"])
def test_richardson_refuses_a_history_that_does_not_converge(values):
    # order 0 would divide by 4**0 - 1 = 0; a negative order extrapolates
    # away from the values
    with pytest.raises(ExtrapolationError, match="do not shrink"):
        pa.richardson(values)


@pytest.mark.parametrize("values", [[1.0, np.nan, 3.0], [np.inf, 2.0, 3.0], [1.0, 2.0, -np.inf]])
def test_richardson_rejects_non_finite_values(values):
    with pytest.raises(UsageError, match="finite"):
        pa.richardson(values)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=-5, max_value=5, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
    b=st.floats(min_value=-10, max_value=10, allow_nan=False),
    c=st.floats(min_value=0.1, max_value=10),
    p=st.floats(min_value=0.3, max_value=3.0),
)
def test_richardson_commutes_with_affine_maps(a, b, c, p):
    base = 1.0
    seq = [base + c / (4.0**p) ** k for k in range(3)]
    v0, p0 = pa.richardson(seq)
    v1, p1 = pa.richardson([a * f + b for f in seq])
    assert p1 == pytest.approx(p0, rel=1e-9)
    assert v1 == pytest.approx(a * v0 + b, rel=1e-8, abs=1e-8)
