"""Angular field distributions and the auxiliary far-field pair."""

import math

import numpy as np
import pytest

from nff import (
    FREE_SPACE_IMPEDANCE,
    FRONT,
    WAVENUMBER,
    AngularFieldDistribution,
    Direction,
    InconsistentFarField,
    analytic_angular_distribution,
    array_field,
    auxiliary_fields,
    ff_precoder,
    field_mismatch,
    uniform_linear_array,
    unit_vector,
)
from nff.farfield import far_field_from_sample

Z0 = FREE_SPACE_IMPEDANCE
K = WAVENUMBER


def _sampled(fields, d, r_ff=1e6):
    """``(f, E/H residual)`` from one sample of ``fields(point)`` at ``r_ff`` along ``d``."""
    rhat = unit_vector(d)
    return far_field_from_sample(*fields(r_ff * rhat), rhat, r_ff)


def test_analytic_f_vanishes_along_dipole_axis():
    geo = uniform_linear_array(1, 0.5)
    dist = analytic_angular_distribution(geo, np.ones(1), Direction(0.0, 0.0))
    assert np.linalg.norm(dist.f) == 0.0


def test_analytic_f_equatorial_magnitude():
    # single z-dipole at theta = 90: |f| = sqrt(Z0) * k * Il / (4 pi)
    geo = uniform_linear_array(1, 0.5)
    dist = analytic_angular_distribution(geo, np.ones(1), FRONT)
    expected = math.sqrt(Z0) * K / (4.0 * math.pi)
    assert np.linalg.norm(dist.f) == pytest.approx(expected, rel=1e-14)


def test_analytic_f_broadside_coherence():
    # front direction, uniform weights: all element phases are 1, so the
    # array f is exactly N times the single-element f.
    n = 8
    geo = uniform_linear_array(n, 0.5)
    single = analytic_angular_distribution(uniform_linear_array(1, 0.5), np.ones(1), FRONT)
    total = analytic_angular_distribution(geo, np.ones(n), FRONT)
    np.testing.assert_allclose(total.f, n * single.f, rtol=1e-14)


def test_sampled_f_matches_analytic():
    geo = uniform_linear_array(8, 0.5)
    w = ff_precoder(geo, FRONT)
    for d in (FRONT, Direction(90, 45), Direction(60, 10)):
        exact = analytic_angular_distribution(geo, w, d)
        f, discrepancy = _sampled(lambda p: array_field(geo, w, p), d)
        err = np.linalg.norm(f - exact.f) / np.linalg.norm(exact.f)
        assert err < 1e-5
        assert discrepancy < 10.0 / (K * 1e6)


def test_sampled_f_exact_for_pure_far_field():
    # a provider that IS the far-field pair must round-trip f to rounding
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = Direction(rng.uniform(10, 170), rng.uniform(0, 360))
        rhat = unit_vector(d)
        raw = rng.normal(size=3) + 1j * rng.normal(size=3)
        f = raw - rhat * (rhat @ raw)  # make it transversal
        dist0 = AngularFieldDistribution(d, f)

        def provider(p, dist0=dist0):
            return auxiliary_fields(dist0, np.linalg.norm(p))

        got, _ = _sampled(provider, d, r_ff=5e5)
        # accuracy is phase-limited: k * r_ff * ulp ~ 3e-10
        assert np.linalg.norm(got - dist0.f) <= 5e-9 * np.linalg.norm(dist0.f)


def test_sampled_radial_component_is_small():
    # raw E at the sampling radius has only an O(1/(kr)) radial part
    geo = uniform_linear_array(8, 0.5)
    w = ff_precoder(geo, FRONT)
    rhat = unit_vector(FRONT)
    e, _ = array_field(geo, w, 1e6 * rhat)
    f_raw = e * 1e6 * np.exp(1j * K * 1e6) / math.sqrt(Z0)
    assert abs(rhat @ f_raw) < 1e-5 * np.linalg.norm(f_raw)


def test_sampled_f_detects_corrupted_h():
    geo = uniform_linear_array(8, 0.5)
    w = ff_precoder(geo, FRONT)

    def corrupted(p):
        e, h = array_field(geo, w, p)
        return e, 2.0 * h

    with pytest.raises(InconsistentFarField):
        _sampled(corrupted, FRONT)


def test_auxiliary_fields_structure():
    d = FRONT
    dist = AngularFieldDistribution(d, np.array([0.0, 2.0 - 1.0j, 0.5 + 0.5j]))
    rhat = unit_vector(d)
    for r in (0.3, 7.0, 1e3):
        e, h = auxiliary_fields(dist, r)
        # impedance relation and mutual orthogonality are exact by form;
        # the unconjugated dot is the scalar triple product rhat.(f x f) = 0
        assert np.linalg.norm(e) / np.linalg.norm(h) == pytest.approx(Z0, rel=1e-12)
        assert abs(rhat @ e) <= 1e-15 * np.linalg.norm(e)
        assert abs(rhat @ h) <= 1e-15 * np.linalg.norm(h)
        assert abs(e @ h) <= 1e-12 * np.linalg.norm(e) * np.linalg.norm(h)


def test_auxiliary_fields_spherical_wave_decay():
    d = Direction(90, 45)
    dist = AngularFieldDistribution(d, np.array([1.0 - 1.0j, -1.0 + 1.0j, 0.75]))
    r = 3.7
    e1, h1 = auxiliary_fields(dist, r)
    e2, h2 = auxiliary_fields(dist, 2 * r)
    # r * exp(+jkr) * E_FF is radius-independent
    lhs = e1 * r * np.exp(1j * K * r)
    rhs = e2 * 2 * r * np.exp(1j * K * 2 * r)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
    np.testing.assert_allclose(
        h1 * r * np.exp(1j * K * r), h2 * 2 * r * np.exp(1j * K * 2 * r), rtol=1e-12
    )


def test_auxiliary_fields_reject_origin():
    dist = AngularFieldDistribution(FRONT, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        auxiliary_fields(dist, 0.0)
    # the boundary criteria's domain: a radius that is not 0 < r < inf has no field
    for bad in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            auxiliary_fields(dist, np.array([1.0, bad]))


def test_analytic_and_sampled_epsilon_agree():
    # The mismatch metric computed with analytic f and with sampled f must
    # agree to 1e-6 absolute at every radius up to 1e4 wavelengths once the
    # sample sits beyond the array's own Fresnel zone.  At a sampling radius
    # of 1e6 the residual aperture-curvature phase k*y_max^2/(2*r_ff) ~ 1e-5
    # rad still moves epsilon by up to ~2e-6, so the strict bound is checked
    # at r_ff = 1e8 and a 1e-5 bound at 1e6.
    geo = uniform_linear_array(8, 0.5)
    w = ff_precoder(geo, FRONT)
    exact = analytic_angular_distribution(geo, w, FRONT)
    provider = lambda p: array_field(geo, w, p)
    far = AngularFieldDistribution(FRONT, _sampled(provider, FRONT, r_ff=1e8)[0])
    default = AngularFieldDistribution(FRONT, _sampled(provider, FRONT)[0])
    rhat = unit_vector(FRONT)
    for r in np.geomspace(0.1, 1e4, 41):
        e, h = array_field(geo, w, r * rhat)
        point = float(r)
        eps_a = field_mismatch(e, h, *auxiliary_fields(exact, point))
        eps_far = field_mismatch(e, h, *auxiliary_fields(far, point))
        eps_def = field_mismatch(e, h, *auxiliary_fields(default, point))
        assert abs(eps_a - eps_far) < 1e-6
        assert abs(eps_a - eps_def) < 1e-5


def test_transversality_invariant_random_scenarios():
    # each element row of f is (c rhat - u) sqrt(Z0) j k / (4 pi), so rhat . f is rounding
    # alone: at most that of the N-term sum forming f, (N + 8) eps |f_elem| sum |w_n|.  It
    # is not bounded by ||f||, which is rounding noise itself at an exact null
    rng = np.random.default_rng(77)
    cases = []
    for _ in range(100):
        n = int(rng.integers(1, 17))
        spacing = rng.uniform(0.1, 1.0)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        cases.append((n, spacing, w, Direction(rng.uniform(0, 180), rng.uniform(0, 360))))
    # exact array-factor nulls off the equator: N pi sin(theta) sin(phi) is a multiple of 2 pi
    nulls = ((64, Direction(60.0, 300.0)), (8, Direction(15.0, 75.0)))
    cases += [(n, 0.5, np.ones(n), d) for n, d in nulls]
    # coherent sums, where the rounding of f grows with N: no bound of fixed eps holds
    cases += [(n, 0.5, np.ones(n), Direction(75.0, 0.0)) for n in (256, 1024, 4096)]
    unit = np.finfo(float).eps * math.sqrt(Z0) * K / (4.0 * math.pi)
    for n, spacing, w, d in cases:
        f = analytic_angular_distribution(uniform_linear_array(n, spacing), w, d).f
        assert abs(unit_vector(d) @ f) <= (n + 8) * unit * np.sum(np.abs(w))
