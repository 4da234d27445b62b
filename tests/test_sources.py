"""Dipole element fields, array superposition, and precoders."""

import cmath
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
    DipoleArrayScenario,
    Direction,
    FieldSingularity,
    array_field,
    ff_precoder,
    gamma_uniform_power,
    nf_precoder,
    uniform_linear_array,
    unit_vector,
    upsilon_power,
)

Z0 = FREE_SPACE_IMPEDANCE
K = WAVENUMBER


def _lone_dipole(orientation=(0.0, 0.0, 1.0)):
    """Field function of one dipole at the origin: a one-element array with weight 1."""
    geo = ArrayGeometry(np.zeros((1, 3)), orientation)
    return lambda p: array_field(geo, [1.0], p)


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


def _span_of_every_row(geo):
    """The span scanned over every row, as before its rows were pruned: the bit reference."""
    from nff.core import _blockwise, _plane_offsets

    pos = geo.positions

    def row_max(i):
        return np.max(_plane_offsets(pos[i, None, :], pos)[1], axis=-1)

    return float(np.max(_blockwise(row_max, len(pos), np.arange(len(pos)))))


def _span_clouds(seed):
    """Centered seeded clouds with ties, duplicates and collinear points."""
    rng = np.random.default_rng(seed)
    square = np.array([[x, y, 0.0] for x in (-1.0, 1.0) for y in (-1.0, 1.0)])
    cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]) * 0.75
    normal = rng.normal(size=(300, 3)) * 5.0
    dupes = np.repeat(rng.normal(size=(40, 3)), 3, axis=0)
    line = np.outer(rng.uniform(-7.0, 7.0, 50), rng.normal(size=3))
    sphere = rng.normal(size=(200, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)  # many near-ties at the diameter
    grid = np.stack(np.meshgrid(*[np.arange(-2.0, 3.0)] * 3), axis=-1).reshape(-1, 3)
    for pos in (square, cube, normal, dupes, line, sphere, grid,
                np.vstack([square, square, -square]), np.vstack([line, line[::-1]])):
        yield ArrayGeometry(pos - pos.mean(axis=0))


def test_span_has_the_bits_of_every_row():
    # rows that cannot hold the maximum are skipped; the maximum keeps its bits
    geometries = [uniform_linear_array(n, 0.5) for n in (1, 2, 3, 4096)]
    geometries += [uniform_linear_array(n, d) for n in (5, 64) for d in (0.25, 1.0, 1e-7, 3e5)]
    geometries += [geo for seed in range(4) for geo in _span_clouds(seed)]
    for geo in geometries:
        assert geo.span.hex() == _span_of_every_row(geo).hex(), geo.n


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
    geo = ArrayGeometry(np.zeros((1, 3)), np.array([0.0, 0.0, 2.0]))
    np.testing.assert_array_equal(geo.orientations, [[0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        ArrayGeometry(np.zeros((1, 3)), np.zeros(3))


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
    lone = ArrayGeometry(np.zeros((1, 3)), [0.1, -0.4, 1.3])
    np.testing.assert_array_equal(tilted.orientations[1], lone.orientations[0])
    for bad in ([0.0, 0.0, 0.0], np.zeros((0, 3)), [[0.0, 0.0, 1.0]]):  # shape, empty, off-center
        with pytest.raises(ValueError):
            ArrayGeometry(bad)
    with pytest.raises(ValueError):
        ArrayGeometry(geo.positions, np.ones((3, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_geometry_rejects_non_finite_positions(bad):
    with pytest.raises(ValueError, match="finite"):
        ArrayGeometry([[0.0, bad, 0.0], [0.0, 1.0, 0.0]])


# ---------------------------------------------------------------------------
# single-element fields


def test_dipole_equatorial_field_is_transverse():
    # z-oriented dipole, observation on the x axis: the radial E term
    # carries a factor cos(local polar angle) = 0 exactly.
    e, h = _lone_dipole()(np.array([2.3, 0.0, 0.0]))
    assert e[0] == 0.0
    assert e[1] == 0.0
    assert h[0] == h[2] == 0.0
    assert abs(e[2]) > 0.0 and abs(h[1]) > 0.0


def test_dipole_far_zone_impedance():
    # kR = 1e6: transverse E over H approaches the wave impedance as 1/(kR)
    r = 1e6 / K
    p = r * unit_vector(Direction(50.0, 20.0))
    e, h = _lone_dipole()(p)
    rhat = p / np.linalg.norm(p)
    e_t = e - (e @ rhat) * rhat
    ratio = np.linalg.norm(e_t) / np.linalg.norm(h)
    assert ratio == pytest.approx(Z0, rel=1e-5)


def test_dipole_field_singularity():
    with pytest.raises(FieldSingularity):
        _lone_dipole()(np.zeros(3))


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
    rng = np.random.default_rng(42)
    points = []
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        points.append(u * rng.uniform(0.5, 50.0))
    _check_maxwell(_lone_dipole([0.1, -0.4, 1.3]), points)


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
    # the textbook z-dipole (Il = 1) in spherical components:
    #   E_r   = Z0 cos(t) / (2 pi R^2) (1 + 1/(jkR)) exp(-jkR)
    #   E_t   = j Z0 k sin(t) / (4 pi R) (1 + 1/(jkR) - 1/(kR)^2) exp(-jkR)
    #   H_phi = j k sin(t) / (4 pi R) (1 + 1/(jkR)) exp(-jkR)
    rng = np.random.default_rng(12)
    big_r = 10.0 ** rng.uniform(-1.0, 4.0, 200)
    theta = np.arccos(rng.uniform(-1.0, 1.0, 200))
    phi = rng.uniform(0.0, 2.0 * math.pi, 200)
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    r_hat = np.stack([st * cp, st * sp, ct], axis=-1)
    t_hat = np.stack([ct * cp, ct * sp, -st], axis=-1)
    p_hat = np.stack([-sp, cp, np.zeros(200)], axis=-1)
    kr = K * big_r
    near = 1.0 + 1.0 / (1j * kr)
    phase = np.exp(-1j * kr)
    want_e = np.stack(
        [
            Z0 * ct / (2.0 * math.pi * big_r**2) * near * phase,
            1j * Z0 * K * st / (4.0 * math.pi * big_r) * (near - 1.0 / kr**2) * phase,
            np.zeros(200),
        ],
        axis=-1,
    )
    want_h = np.zeros((200, 3), dtype=complex)
    want_h[:, 2] = 1j * K * st / (4.0 * math.pi * big_r) * near * phase

    e, h = array_field(uniform_linear_array(1, 0.5), np.ones(1), big_r[:, None] * r_hat)
    frame = np.stack([r_hat, t_hat, p_hat], axis=-2)  # rows r, theta, phi
    got_e = np.einsum("nij,nj->ni", frame, e)
    got_h = np.einsum("nij,nj->ni", frame, h)
    for got, want in ((got_e, want_e), (got_h, want_h)):
        rel = np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1)
        assert np.max(rel) <= 1e-10


def _docstring_array_field(positions, orientations, weights, point):
    """``sum_n w_n (E_n, H_n)`` from the ``nff.sources`` formulas, one element at a time."""
    e_sum, h_sum = np.zeros(3, dtype=complex), np.zeros(3, dtype=complex)
    for r_n, u, w in zip(positions, orientations, weights):
        offset = [point[i] - r_n[i] for i in range(3)]
        big_r = math.sqrt(sum(c * c for c in offset))
        r_hat = np.array(offset) / big_r
        c = float(u @ r_hat)
        kr = K * big_r
        near = 1.0 + 1.0 / (1j * kr)
        phase = cmath.exp(-1j * kr)
        h = phase * (1j * K / (4.0 * math.pi * big_r)) * near * np.cross(u, r_hat)
        e = phase * (
            Z0 / (2.0 * math.pi * big_r**2) * near * c * r_hat
            + 1j * Z0 * K / (4.0 * math.pi * big_r) * (near - 1.0 / kr**2) * (c * r_hat - u)
        )
        e_sum += w * e
        h_sum += w * h
    return e_sum, h_sum


def test_array_field_matches_per_element_formula():
    rng = np.random.default_rng(2718)
    pos = rng.normal(size=(5, 3))
    geo = ArrayGeometry(pos - pos.mean(axis=0), rng.normal(size=(5, 3)))
    w = rng.normal(size=5) + 1j * rng.normal(size=5)
    dirs = rng.normal(size=(60, 3))
    radii = 10.0 ** rng.uniform(-1, 3, (60, 1))
    points = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * radii
    e, h = array_field(geo, w, points)
    for i, p in enumerate(points):
        want_e, want_h = _docstring_array_field(geo.positions, geo.orientations, w, p)
        assert np.linalg.norm(e[i] - want_e) <= 1e-13 * np.linalg.norm(want_e)
        assert np.linalg.norm(h[i] - want_h) <= 1e-13 * np.linalg.norm(want_h)


def _per_plane_array_field(geometry, weights, points):
    """A frozen copy of the per-plane ``array_field`` kernel, the bit reference of the one pass.

    Offsets and unit vectors as x, y, z planes ``(..., N)``, ``u x rhat`` per axis, E and H
    stacked to ``(..., N, 3)``, then one ``(1, N) @ (N, 3)`` product per point.
    """
    points = np.asarray(points, dtype=float)
    pos = geometry.positions
    rvec = tuple(points[..., None, i] - pos[..., i] for i in range(3))
    dist = np.sqrt(rvec[0] * rvec[0] + rvec[1] * rvec[1] + rvec[2] * rvec[2])
    x, y, z = rhat = tuple(c / dist for c in rvec)
    u = geometry.orientations.T
    cos_loc = u[0] * x + u[1] * y + u[2] * z
    kr = K * dist
    near = 1.0 + 1.0 / (1j * kr)
    e_rad = Z0 / (2.0 * math.pi * dist**2) * near
    e_pol = 1j * Z0 * K / (4.0 * math.pi * dist) * (near - 1.0 / kr**2)
    h_amp = 1j * K / (4.0 * math.pi * dist)
    phase = np.exp(-1j * kr)
    h_amp = phase * h_amp * near
    cross = (u[1] * z - u[2] * y, u[2] * x - u[0] * z, u[0] * y - u[1] * x)
    h = np.stack([h_amp * c for c in cross], axis=-1)
    e_rad = e_rad * cos_loc
    e = np.stack(
        [phase * (e_rad * c + e_pol * (cos_loc * c - ui)) for c, ui in zip(rhat, u)], axis=-1
    )
    w = np.asarray(weights, dtype=complex)[..., None, :]
    return (w @ e)[..., 0, :], (w @ h)[..., 0, :]


def _same_bits(a, b):
    """Equal shapes and bytes: ``np.array_equal``, and signed zeros too."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 8, 64, 1024])
def test_array_field_keeps_the_per_plane_bits(n):
    # seeded clouds with tilted dipoles, and a z-dipole line whose equatorial fields have
    # exact zeros; twenty single points (a one-element product can take another path
    # through numpy), batches and grids of points; (N,), broadcast and per-point weights.
    # Batches stay below 16384 point-element pairs: from there numpy elides the per-plane
    # kernel's 256 KiB temporaries and forms E's last product as (...) * phase, whose
    # imaginary part differs in the last bit (see the next test)
    rng = np.random.default_rng(n)
    pos = rng.normal(scale=2.0, size=(n, 3))
    cloud = ArrayGeometry(pos - pos.mean(axis=0), rng.normal(size=(n, 3)))
    for geo in (cloud, uniform_linear_array(n, 0.5)):
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        for shape in ((),) * 20 + ((5,), (3, 4)):
            points = rng.normal(size=shape + (3,)) * 10.0 ** rng.uniform(-1, 4, shape + (1,))
            if geo is not cloud and shape:
                points[..., 2] = 0.0
            per_point = rng.normal(size=shape + (n,)) + 1j * rng.normal(size=shape + (n,))
            for weights in (w, np.broadcast_to(w, shape + (n,)), per_point):
                e, h = array_field(geo, weights, points)
                want_e, want_h = _per_plane_array_field(geo, weights, points)
                assert e.shape == h.shape == shape + (3,)
                assert np.array_equal(e, want_e) and np.array_equal(h, want_h)
                assert _same_bits(e, want_e) and _same_bits(h, want_h)


@pytest.mark.parametrize("n, batch", [(64, 300), (1024, 20)])
def test_array_field_gives_a_point_its_bits_in_any_batch(n, batch):
    # a point's fields do not depend on the batch it comes in; in the per-plane kernel they
    # did from 16384 point-element pairs on, where E's last product changed operand order
    rng = np.random.default_rng(n)
    pos = rng.normal(scale=2.0, size=(n, 3))
    geo = ArrayGeometry(pos - pos.mean(axis=0), rng.normal(size=(n, 3)))
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    points = rng.normal(size=(batch, 3)) * 10.0 ** rng.uniform(-1, 4, (batch, 1))
    e, h = array_field(geo, w, points)
    for i, p in enumerate(points):
        e1, h1 = array_field(geo, w, p)
        assert _same_bits(e[i], e1) and _same_bits(h[i], h1)


def test_array_field_memory_does_not_grow_with_the_batch():
    # a default-grid line of 501 points at N = 4096: evaluated whole, the batch's planes held
    # 705 MiB at the peak; a block of _SCAN_PAIRS // N points at a time holds a few planes of
    # N, with fixed weights and with nf-bf's per-point focusing weights alike
    geo = uniform_linear_array(4096, 0.5)
    points = np.multiply.outer(np.geomspace(1.0, 1e4, 501), unit_vector(Direction(60.0, 30.0)))
    w = ff_precoder(geo, FRONT)
    focus = DipoleArrayScenario(geo, "nf-bf")
    for call in (lambda: array_field(geo, w, points), lambda: focus.fields(points)):
        tracemalloc.start()
        try:
            e, h = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert e.shape == h.shape == (501, 3)
        assert peak < 8 * 2**20, peak


def test_a_batch_of_blocks_keeps_each_point_s_bits():
    # past one block, a batch's points get the bits they get alone: with an (N,) row,
    # broadcast and per-point weights, in a (2, 9) grid of points, and with nf-bf's weights
    rng = np.random.default_rng(39)
    pos = rng.normal(size=(1024, 3))
    geo = ArrayGeometry(pos - pos.mean(axis=0), rng.normal(size=(1024, 3)))
    points = rng.normal(size=(2, 9, 3)) * 10.0 ** rng.uniform(0, 3, (2, 9, 1))
    w = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    per_point = rng.normal(size=(2, 9, 1024)) + 1j * rng.normal(size=(2, 9, 1024))
    for weights in (w, np.broadcast_to(w, (2, 9, 1024)), per_point):
        e, h = array_field(geo, weights, points)
        assert e.shape == h.shape == (2, 9, 3)
        for i in np.ndindex(2, 9):
            e1, h1 = array_field(geo, weights if weights.ndim == 1 else weights[i], points[i])
            assert _same_bits(e[i], e1) and _same_bits(h[i], h1)
    focus = DipoleArrayScenario(geo, "nf-bf")
    e, h = focus.fields(points)
    for i in np.ndindex(2, 9):
        e1, h1 = focus.fields(points[i])
        assert _same_bits(e[i], e1) and _same_bits(h[i], h1)


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
    inside = 0.75 + 0.5e-9
    with pytest.raises(FieldSingularity):
        array_field(geo, np.ones(8), inside * unit_vector(SIDE))
    with pytest.raises(ValueError, match="singular"):
        upsilon_power(geo, inside, SIDE)
    with pytest.raises(ValueError, match="singular"):
        gamma_uniform_power(geo, inside, SIDE)
    outside = 0.75 + 1.5e-9
    e, h = array_field(geo, np.ones(8), outside * unit_vector(SIDE))
    assert np.all(np.isfinite(e)) and np.all(np.isfinite(h))
    assert upsilon_power(geo, outside, SIDE) > 0.0
    assert gamma_uniform_power(geo, outside, SIDE) >= 0.0


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
