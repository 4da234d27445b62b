"""Core coordinate and stable-geometry primitives."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from nff import (
    DIAGONAL,
    FREE_SPACE_IMPEDANCE,
    FRONT,
    SIDE,
    WAVENUMBER,
    Direction,
    uniform_linear_array,
    unit_vector,
)
from nff.core import _direction_of, _line_constants, _line_excess, _plane_dot, _plane_offsets


def _excess_decimal(r, rhat, r_n, digits=50):
    """Reference excess path |r*rhat - r_n| - r + rhat.r_n in high-precision decimal.

    The direction is renormalized in decimal arithmetic: the contract treats
    rhat as exactly unit, and its float64 representation is only accurate to
    machine rounding, which would otherwise leak an O(r*eps) term into the
    direct subtraction.
    """
    getcontext().prec = digits
    rd = Decimal(float(r))
    ud = [Decimal(float(a)) for a in rhat]
    norm = sum(x * x for x in ud).sqrt()
    ud = [x / norm for x in ud]
    comps = [a * rd - Decimal(float(b)) for a, b in zip(ud, r_n)]
    dist = sum(c * c for c in comps).sqrt()
    return float(dist - rd + sum(a * Decimal(float(b)) for a, b in zip(ud, r_n)))


def _line(r, rhat, r_n):
    """``(d, delta)`` of the line primitive, one row per radius and one column per offset."""
    t, w = _line_constants(np.atleast_2d(r_n), np.asarray(rhat, dtype=float))
    return _line_excess(np.atleast_1d(r)[:, None], t, w)


def test_wave_constants_are_unit_wavelength_free_space():
    assert WAVENUMBER == 2.0 * math.pi
    assert FREE_SPACE_IMPEDANCE == 376.730313668


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction(-1.0, 0.0)
    with pytest.raises(ValueError):
        Direction(181.0, 0.0)
    with pytest.raises(ValueError):
        Direction(90.0, 360.0)
    Direction(0.0, 0.0)
    Direction(180.0, 359.9)


def test_unit_vector_axis_cases():
    np.testing.assert_allclose(unit_vector(Direction(90, 0)), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(unit_vector(Direction(0, 123)), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(unit_vector(Direction(90, 90)), [0, 1, 0], atol=1e-15)


def test_unit_vector_norm_property():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        d = Direction(rng.uniform(0, 180), rng.uniform(0, 360))
        assert abs(np.linalg.norm(unit_vector(d)) - 1.0) <= 1e-15


def test_spherical_round_trip_property():
    rng = np.random.default_rng(5)
    for _ in range(2_000):
        v = rng.normal(size=3) * 10 ** rng.uniform(-2, 4)
        back = np.linalg.norm(v) * unit_vector(_direction_of(v))
        assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v)
    # a direction a hair below +x has an azimuth that rounds up to 360 degrees
    assert math.degrees(math.atan2(-1e-17, 1.0)) % 360.0 == 360.0
    assert _direction_of(np.array([1.0, -1e-17, 0.0])) == Direction(90.0, 0.0)


def test_line_excess_zero_offset():
    d, delta = _line(3.0, [1.0, 0.0, 0.0], np.zeros(3))
    assert d[0, 0] == 3.0 and delta[0, 0] == 0.0


def test_line_excess_perpendicular_large_radius():
    # rhat perpendicular to r_n, r = 1e6, |r_n| = 1 -> excess ~ 5e-7
    rhat = np.array([1.0, 0.0, 0.0])
    r_n = np.array([0.0, 1.0, 0.0])
    _, delta = _line(1e6, rhat, r_n)
    assert delta[0, 0] == pytest.approx(_excess_decimal(1e6, rhat, r_n), rel=1e-15)
    assert delta[0, 0] == pytest.approx(5e-7, rel=1e-6)


@pytest.mark.parametrize("n", [8, 64])
def test_line_excess_off_axis_matches_decimal(n):
    # off the array axis the excess keeps full relative precision from 1e-3 to 1e6
    # wavelengths, where it is about |r_n|^2 / 2r, ten or more orders below r
    rng = np.random.default_rng(n)
    randoms = [Direction(rng.uniform(0.0, 180.0), rng.uniform(0.0, 360.0)) for _ in range(3)]
    r_n = uniform_linear_array(n, 0.5).positions
    r = np.geomspace(1e-3, 1e6, 28)
    for direction in [FRONT, DIAGONAL, *randoms]:
        rhat = unit_vector(direction)
        _, delta = _line(r, rhat, r_n)
        want = np.array([[_excess_decimal(ri, rhat, p) for p in r_n] for ri in r])
        assert np.all(want > 0.0)
        assert np.max(np.abs(delta - want) / want) <= 1e-15, direction


@pytest.mark.parametrize("n", [8, 64])
def test_line_excess_is_exact_on_the_array_axis(n):
    # on SIDE the float direction has a 6e-17 x-part, but the elements on the y axis still
    # sit on the line exactly: past an element its excess is 0, before it 2 (t - r),
    # as on the exact axis (0, 1, 0)
    r_n = uniform_linear_array(n, 0.5).positions
    y = r_n[:, 1]
    on = y[y > 0.0]
    r = np.concatenate([np.geomspace(1e-3, 1e6, 37), on, *(np.nextafter(on, x) for x in (0, 99))])
    d, delta = _line(r, unit_vector(SIDE), r_n)
    r = r[:, None]
    assert np.array_equal(d, np.abs(r - y))
    assert np.array_equal(delta, np.where(r >= y, 0.0, 2.0 * (y - r)))


def test_line_excess_bulk_property():
    # 1e6 random draws against an extended-precision direct subtraction:
    # 1000 observation points, each evaluated against 1000 source offsets.
    rng = np.random.default_rng(101)
    ld = np.longdouble
    worst = 0.0
    for _ in range(1000):
        r = float(10 ** rng.uniform(-2, 8))
        # Normalize in extended precision so the oracle direction is unit to
        # ~1e-19; the float64 rounding of it is what the implementation sees.
        u_ld = rng.normal(size=3).astype(ld)
        u_ld /= np.sqrt(np.sum(u_ld * u_ld))
        u = u_ld.astype(float)
        r_n = rng.normal(size=(1000, 3)) * (10 ** rng.uniform(-1, 1, size=1000))[:, None]

        _, got = _line(r, u, r_n)
        delta = ld(r) * u_ld - r_n.astype(ld)
        direct = np.sqrt(np.sum(delta * delta, axis=1)) - ld(r) + r_n.astype(ld) @ u_ld
        scale = np.maximum(np.linalg.norm(r_n, axis=1), 1.0)
        worst = max(worst, float(np.max(np.abs(got[0] - direct.astype(float)) / scale)))
    assert worst <= 1e-10

    # an offset gets the same bits alone and next to others
    r_pair = rng.normal(size=3)
    pair = _line(2.5, [0.0, 1.0, 0.0], np.stack([r_pair, r_pair]))
    alone = _line(2.5, [0.0, 1.0, 0.0], r_pair)
    for p, a in zip(pair, alone):
        assert p[0, 0] == p[0, 1] == a[0, 0]


def test_plane_offsets_match_the_length3_reductions():
    # the per-axis planes must reproduce the (..., N, 3) reductions they replace bit
    # for bit, or boundary values and reproduced tables would move
    rng = np.random.default_rng(24576)
    r_n = rng.normal(size=(64, 3)) * 10 ** rng.uniform(-1, 2, size=(64, 1))
    for j in range(12):
        rhat = r_n[j] / np.linalg.norm(r_n[j])
        far = 10 ** rng.uniform(-3, 6, size=24)
        near = np.linalg.norm(r_n[j]) + rng.uniform(-1e-6, 1e-6, size=8)  # by element j
        r = np.concatenate([far, near])
        point = (r[:, None] * rhat)[:, None, :]
        rvec = point - r_n
        planes, dist = _plane_offsets(point, r_n)
        assert np.array_equal(np.stack(planes, axis=-1), rvec)
        assert np.array_equal(dist, np.linalg.norm(rvec, axis=-1))
        assert np.array_equal(_plane_dot(planes, planes), np.sum(rvec**2, axis=-1))
        b = rng.normal(size=3)
        assert np.array_equal(_plane_dot(planes, b), np.sum(rvec * b, axis=-1))



def _masked_line_excess(r, t, w):
    """A frozen copy of the masked form of :func:`nff.core._line_excess`, the bit reference."""
    s = r - t
    d = np.sqrt(s * s + w)
    delta = d - s
    np.divide(w, d + s, out=delta, where=s > 0.0)
    return d, delta


def test_line_excess_keeps_its_bits_with_and_without_the_mask():
    # a block whose radii all pass max t divides without a mask, any other keeps the mask:
    # both give the masked form's bits, also at s = 0, s < 0 and elements on the line
    rng = np.random.default_rng(67)
    pairs = {"plain": 0, "masked": 0}
    for n in (1, 2, 8, 64, 1024):
        t = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3])
        w = np.abs(rng.normal(size=n)) * rng.choice([0.0, 1e-6, 1.0, 1e4])
        w[rng.random(n) < 0.3] = 0.0  # elements on the line
        inside = np.concatenate([t, rng.uniform(t.min(), t.max(), 64), -np.abs(t), [0.0]])
        beyond = t.max() + np.abs(t.max() * rng.normal(size=64)) + 10.0 ** rng.uniform(-3, 6, 64)
        for radii, branch in ((inside, "masked"), (beyond, "plain"), (np.append(beyond, t.max()),
                                                                      "masked")):
            radii = np.tile(radii, max(1, 50_000 // (radii.size * n)))
            assert np.all(radii > t.max()) == (branch == "plain")
            got = _line_excess(radii[:, None], t, w)
            want = _masked_line_excess(radii[:, None], t, w)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), (n, branch)
            pairs[branch] += radii.size * n
    assert min(pairs.values()) >= 100_000, pairs
