"""Core coordinate and stable-geometry primitives."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from nff import (
    FREE_SPACE_IMPEDANCE,
    WAVENUMBER,
    Direction,
    SphericalPoint,
    cartesian_to_spherical,
    stable_excess_path,
    unit_vector,
)
from nff.core import _plane_dot, _plane_offsets


def _excess_decimal(r, rhat, r_n, digits=50):
    """Reference excess path |r*rhat - r_n| - r in high-precision decimal.

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
    return float(dist - rd)


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


def test_spherical_to_cartesian_examples():
    np.testing.assert_allclose(
        SphericalPoint(2, Direction(90, 0)).to_cartesian(), [2, 0, 0], atol=1e-14
    )
    np.testing.assert_allclose(
        SphericalPoint(1, Direction(45, 45)).to_cartesian(),
        [0.5, 0.5, math.sqrt(2) / 2],
        atol=1e-15,
    )
    origin = cartesian_to_spherical(np.zeros(3))
    assert origin.r == 0.0
    assert origin.direction == Direction(0.0, 0.0)


def test_spherical_round_trip_property():
    rng = np.random.default_rng(5)
    for _ in range(2_000):
        v = rng.normal(size=3) * 10 ** rng.uniform(-2, 4)
        p = cartesian_to_spherical(v)
        back = p.to_cartesian()
        assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v)


def test_spherical_point_rejects_negative_radius():
    with pytest.raises(ValueError):
        SphericalPoint(-1.0, Direction(90, 0))


def test_stable_excess_path_zero_offset():
    assert stable_excess_path(3.0, np.array([1.0, 0, 0]), np.zeros(3)) == 0.0


def test_stable_excess_path_collinear():
    r_n = np.array([0.0, 2.5, 0.0])
    got = stable_excess_path(100.0, np.array([0.0, 1.0, 0.0]), r_n)
    assert got == pytest.approx(-2.5, rel=1e-12)


def test_stable_excess_path_perpendicular_large_radius():
    # rhat perpendicular to r_n, r = 1e6, |r_n| = 1 -> excess ~ 5e-7
    rhat = np.array([1.0, 0.0, 0.0])
    r_n = np.array([0.0, 1.0, 0.0])
    got = stable_excess_path(1e6, rhat, r_n)
    ref = _excess_decimal(1e6, rhat, r_n)
    assert got == pytest.approx(5e-7, rel=1e-6)
    assert abs(got - ref) <= 1e-12  # 1e-12 relative of |r_n| = 1


def test_stable_excess_path_decimal_spot_checks():
    rng = np.random.default_rng(23)
    for _ in range(50):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        r_n = rng.normal(size=3) * 10 ** rng.uniform(-1, 1)
        r = 10 ** rng.uniform(-2, 8)
        got = stable_excess_path(r, u, r_n)
        ref = _excess_decimal(r, u, r_n)
        assert abs(got - ref) <= 1e-12 * max(np.linalg.norm(r_n), 1.0)


def test_stable_excess_path_bulk_property():
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

        got = stable_excess_path(r, u, r_n)
        delta = ld(r) * u_ld - r_n.astype(ld)
        direct = np.sqrt(np.sum(delta * delta, axis=1)) - ld(r)
        scale = np.maximum(np.linalg.norm(r_n, axis=1), 1.0)
        worst = max(worst, float(np.max(np.abs(got - direct.astype(float)) / scale)))
    assert worst <= 1e-10

    # vectorized form matches the scalar form bit-for-bit
    r_pair = rng.normal(size=3)
    vec = stable_excess_path(2.5, np.array([0.0, 1.0, 0.0]), np.stack([r_pair, r_pair]))
    assert vec[0] == vec[1] == stable_excess_path(2.5, np.array([0.0, 1.0, 0.0]), r_pair)


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

        # stable_excess_path as written with (radii, N, 3) offsets
        rr = r[:, None]
        denom = np.linalg.norm(rr[..., None] * rhat - r_n, axis=-1) + rr
        safe = np.where(denom == 0.0, 1.0, denom)
        numer = np.sum(r_n * r_n, axis=-1) - 2.0 * rr * (r_n @ rhat)
        want = np.where(denom == 0.0, 0.0, numer / safe)
        assert np.array_equal(stable_excess_path(r, rhat, r_n), want)
