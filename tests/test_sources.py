"""Dipole element fields, array superposition, and precoders."""

import math
import tracemalloc

import numpy as np
import pytest

from nff import (
    FREE_SPACE_IMPEDANCE,
    FRONT,
    SIDE,
    WAVENUMBER,
    ArrayGeometry,
    DipoleElement,
    Direction,
    FieldSingularity,
    SphericalPoint,
    array_field,
    dipole_field,
    ff_precoder,
    gamma_uniform_power,
    nf_precoder,
    uniform_linear_array,
    unit_vector,
    upsilon_power,
)

Z0 = FREE_SPACE_IMPEDANCE
K = WAVENUMBER


# ---------------------------------------------------------------------------
# geometry construction


def test_ula_positions_and_span():
    geo = uniform_linear_array(8, 0.5)
    expected_y = (np.arange(1, 9) - 4.5) * 0.5
    np.testing.assert_array_equal(geo.positions[:, 1], expected_y)
    np.testing.assert_array_equal(geo.positions[:, [0, 2]], 0.0)
    assert geo.span == pytest.approx(3.5, rel=1e-15)
    np.testing.assert_array_equal(geo.boresight, [1.0, 0.0, 0.0])
    assert geo.n == 8


def test_ula_single_element_is_degenerate():
    geo = uniform_linear_array(1, 0.5)
    assert geo.span == 0.0
    np.testing.assert_array_equal(geo.positions, [[0.0, 0.0, 0.0]])


def test_span_matches_pairwise_maximum():
    rng = np.random.default_rng(3)
    for n in (2, 3, 17):
        pos = rng.normal(size=(n, 3))
        pos -= pos.mean(axis=0)
        geo = ArrayGeometry(pos)
        diff = geo.positions[:, None, :] - geo.positions[None, :, :]
        assert geo.span == float(np.sqrt(np.max(np.sum(diff * diff, axis=-1))))


def test_span_needs_no_pairwise_temporaries():
    tracemalloc.start()
    try:
        geo = uniform_linear_array(1024, 0.5)
        assert "span" not in vars(geo)  # computed on first read
        assert geo.span == 511.5
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # an (N, N, 3) difference array alone is 24 MiB


def test_ula_validation():
    with pytest.raises(ValueError):
        uniform_linear_array(0, 0.5)
    with pytest.raises(ValueError):
        uniform_linear_array(4, 0.0)
    with pytest.raises(ValueError):
        uniform_linear_array(4, -0.25)


def test_element_orientation_normalized():
    el = DipoleElement(np.zeros(3), np.array([0.0, 0.0, 2.0]))
    np.testing.assert_array_equal(el.orientation, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        DipoleElement(np.zeros(3), np.zeros(3))


def test_geometry_must_be_centered():
    with pytest.raises(ValueError, match="centered"):
        ArrayGeometry([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])


def test_geometry_holds_validated_arrays():
    pos = np.array([[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    geo = ArrayGeometry(pos, [0.0, 0.0, 3.0])
    pos[0, 1] = 5.0  # the geometry keeps its own copy
    np.testing.assert_array_equal(geo.positions, [[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(geo.orientations, [[0.0, 0.0, 1.0]] * 2)
    assert not (geo.positions.flags.writeable or geo.orientations.flags.writeable)
    tilted = ArrayGeometry(geo.positions, [[0.0, 0.0, 2.0], [0.1, -0.4, 1.3]])
    el = DipoleElement(np.zeros(3), np.array([0.1, -0.4, 1.3]))
    np.testing.assert_array_equal(tilted.orientations[1], el.orientation)
    for bad in ([0.0, 0.0, 0.0], np.zeros((0, 3)), [[0.0, 0.0, 1.0]]):  # shape, empty, off-center
        with pytest.raises(ValueError):
            ArrayGeometry(bad)
    with pytest.raises(ValueError):
        ArrayGeometry(geo.positions, np.ones((3, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_geometry_rejects_non_finite_positions(bad):
    with pytest.raises(ValueError, match="finite"):
        ArrayGeometry([[0.0, bad, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        DipoleElement(np.array([bad, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# single-element fields


def test_dipole_equatorial_field_is_transverse():
    # z-oriented dipole, observation on the x axis: the radial E term
    # carries a factor cos(local polar angle) = 0 exactly.
    el = DipoleElement(np.zeros(3))
    e, h = dipole_field(el, np.array([2.3, 0.0, 0.0]))
    assert e[0] == 0.0
    assert e[1] == 0.0
    assert h[0] == h[2] == 0.0
    assert abs(e[2]) > 0.0 and abs(h[1]) > 0.0


def test_dipole_far_zone_impedance():
    # kR = 1e6: transverse E over H approaches the wave impedance as 1/(kR)
    el = DipoleElement(np.zeros(3))
    r = 1e6 / K
    p = r * unit_vector(Direction(50.0, 20.0))
    e, h = dipole_field(el, p)
    rhat = p / np.linalg.norm(p)
    e_t = e - (e @ rhat) * rhat
    ratio = np.linalg.norm(e_t) / np.linalg.norm(h)
    assert ratio == pytest.approx(Z0, rel=1e-5)


def test_dipole_field_singularity():
    el = DipoleElement(np.zeros(3))
    with pytest.raises(FieldSingularity):
        dipole_field(el, np.zeros(3))


# ---------------------------------------------------------------------------
# Maxwell consistency via central finite differences


def _jacobians(fields, p, h=1e-4):
    """d(E,H)/dx_i via central differences; J[i] is the step-i derivative."""
    je = np.zeros((3, 3), dtype=complex)
    jh = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        ep, hp = fields(p + step)
        em, hm = fields(p - step)
        je[i] = (ep - em) / (2.0 * h)
        jh[i] = (hp - hm) / (2.0 * h)
    return je, jh


def _curl(j):
    return np.array([j[1, 2] - j[2, 1], j[2, 0] - j[0, 2], j[0, 1] - j[1, 0]])


def _check_maxwell(fields, points):
    omega_mu = K * Z0
    omega_eps = K / Z0
    for p in points:
        je, jh = _jacobians(fields, p)
        e, h = fields(p)
        r = np.linalg.norm(p)

        faraday = np.linalg.norm(_curl(je) + 1j * omega_mu * h)
        assert faraday / (omega_mu * np.linalg.norm(h)) < 1e-5

        ampere = np.linalg.norm(_curl(jh) - 1j * omega_eps * e)
        assert ampere / (omega_eps * np.linalg.norm(e)) < 1e-5

        assert abs(np.trace(je)) * r / np.linalg.norm(e) < 1e-5
        assert abs(np.trace(jh)) * r / np.linalg.norm(h) < 1e-5


def test_dipole_fields_satisfy_maxwell():
    el = DipoleElement(np.zeros(3), np.array([0.1, -0.4, 1.3]))
    rng = np.random.default_rng(42)
    points = []
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        points.append(u * rng.uniform(0.5, 50.0))
    _check_maxwell(lambda p: dipole_field(el, p), points)


def test_array_fields_satisfy_maxwell():
    geo = uniform_linear_array(8, 0.5)
    w = ff_precoder(geo, FRONT)
    rng = np.random.default_rng(43)
    points = []
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        # keep at least 0.85 wavelengths clear of every element
        points.append(u * rng.uniform(2.6, 40.0))
    _check_maxwell(lambda p: array_field(geo, w, p), points)


# ---------------------------------------------------------------------------
# array superposition


def test_single_element_array_matches_dipole():
    geo = uniform_linear_array(1, 0.5)
    p = np.array([1.2, -0.7, 0.4])
    e_a, h_a = array_field(geo, np.ones(1), p)
    e_d, h_d = dipole_field(DipoleElement(geo.positions[0], geo.orientations[0]), p)
    np.testing.assert_array_equal(e_a, e_d)
    np.testing.assert_array_equal(h_a, h_d)


def test_array_field_linearity():
    geo = uniform_linear_array(5, 0.4)
    rng = np.random.default_rng(3)
    w1 = rng.normal(size=5) + 1j * rng.normal(size=5)
    w2 = rng.normal(size=5) + 1j * rng.normal(size=5)
    p = np.array([3.0, 1.0, -2.0])
    e1, h1 = array_field(geo, w1, p)
    e2, h2 = array_field(geo, w2, p)
    e12, h12 = array_field(geo, w1 + w2, p)
    np.testing.assert_allclose(e12, e1 + e2, rtol=1e-13)
    np.testing.assert_allclose(h12, h1 + h2, rtol=1e-13)


def test_symmetric_pair_cancels_on_symmetry_plane():
    geo = uniform_linear_array(2, 0.7)
    rng = np.random.default_rng(8)
    for _ in range(25):
        p = np.array([rng.uniform(0.5, 20.0), 0.0, rng.uniform(-5.0, 5.0)])
        e, h = array_field(geo, np.ones(2), p)
        assert abs(e[1]) <= 1e-14 * np.linalg.norm(e)
        assert abs(h[0]) <= 1e-14 * np.linalg.norm(h)
        assert abs(h[2]) <= 1e-14 * np.linalg.norm(h)


def test_array_field_singularity_at_element():
    geo = uniform_linear_array(8, 0.5)
    with pytest.raises(FieldSingularity):
        array_field(geo, np.ones(8), np.array([0.0, 0.75, 0.0]))


def test_singular_radius_scales_with_wavelength():
    # the guard is 1e-9 wavelengths for the field kernel and the boundary
    # criteria alike: 0.5e-9 from an element is inside it, 1.5e-9 outside
    geo = uniform_linear_array(8, 0.5)
    inside = SphericalPoint(0.75 + 0.5e-9, SIDE)
    with pytest.raises(FieldSingularity):
        array_field(geo, np.ones(8), inside.to_cartesian())
    with pytest.raises(ValueError, match="singular"):
        upsilon_power(geo, inside.r, inside.direction)
    with pytest.raises(ValueError, match="singular"):
        gamma_uniform_power(geo, inside.r, inside.direction)
    outside = SphericalPoint(0.75 + 1.5e-9, SIDE)
    e, h = array_field(geo, np.ones(8), outside.to_cartesian())
    assert np.all(np.isfinite(e)) and np.all(np.isfinite(h))
    assert upsilon_power(geo, outside.r, outside.direction) > 0.0
    assert gamma_uniform_power(geo, outside.r, outside.direction) >= 0.0


# ---------------------------------------------------------------------------
# precoders


def test_ff_precoder_broadside_is_uniform():
    geo = uniform_linear_array(8, 0.5)
    w = ff_precoder(geo, FRONT)
    assert np.all(w == 1.0 + 0.0j)


def test_ff_precoder_endfire_alternates():
    # half-wavelength spacing steered along the array axis: adjacent
    # elements are driven in antiphase.
    geo = uniform_linear_array(8, 0.5)
    w = ff_precoder(geo, SIDE)
    ratios = w[1:] / w[:-1]
    np.testing.assert_allclose(ratios, -1.0, rtol=0, atol=1e-12)


def test_ff_precoder_unit_modulus():
    rng = np.random.default_rng(17)
    for _ in range(100):
        geo = uniform_linear_array(int(rng.integers(1, 17)), rng.uniform(0.1, 1.0))
        d = Direction(rng.uniform(0, 180), rng.uniform(0, 360))
        w = ff_precoder(geo, d)
        np.testing.assert_allclose(np.abs(w), 1.0, rtol=0, atol=1e-12)


def test_nf_precoder_palindromic_on_bisector():
    geo = uniform_linear_array(6, 0.5)
    w = nf_precoder(geo, np.array([4.0, 0.0, 1.5]))
    assert np.array_equal(w, w[::-1])
    np.testing.assert_allclose(np.abs(w), 1.0, rtol=0, atol=1e-12)


def test_nf_precoder_far_focus_matches_steering():
    # exp(+jk|r - r_n|) = exp(+jkr) exp(-jk rhat.r_n) + O(1/r): up to a
    # common phase the focusing weights converge to the steering weights.
    geo = uniform_linear_array(8, 0.5)
    for d in (FRONT, Direction(90, 45), Direction(40, 200)):
        focus = 1e6 * unit_vector(d)
        w = nf_precoder(geo, focus)
        ref = ff_precoder(geo, d)
        rel = (w / w[0]) * np.conj(ref / ref[0])
        assert np.max(np.abs(np.angle(rel))) < 1e-5


def test_nf_precoder_rejects_focus_on_element():
    geo = uniform_linear_array(8, 0.5)
    with pytest.raises(FieldSingularity):
        nf_precoder(geo, np.array([0.0, 0.25, 0.0]))
