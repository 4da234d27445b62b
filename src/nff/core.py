"""Coordinate conventions, wave constants, and stable geometric primitives.

Every length, given or reported, is in wavelengths, and the medium is free
space: the wavenumber is :data:`WAVENUMBER` (``2*pi`` per wavelength) and
the wave impedance :data:`FREE_SPACE_IMPEDANCE`.  Angles cross the public
API in degrees and are converted to radians exactly once, here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Free-space wave impedance, ohms.
FREE_SPACE_IMPEDANCE = 376.730313668

#: Wavenumber ``k = 2*pi / wavelength`` in radians per wavelength, the unit of every length.
WAVENUMBER = 2.0 * math.pi


@dataclass(frozen=True)
class Direction:
    """Spherical direction in the physicist's convention, in degrees.

    ``theta_deg`` is the polar angle measured from the +z axis
    (0..180 inclusive); ``phi_deg`` is the azimuth measured from the +x
    axis in the x-y plane (0 inclusive to 360 exclusive).
    """

    theta_deg: float
    phi_deg: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta_deg <= 180.0):
            raise ValueError(f"theta must lie in [0, 180] degrees, got {self.theta_deg!r}")
        if not (0.0 <= self.phi_deg < 360.0):
            raise ValueError(f"phi must lie in [0, 360) degrees, got {self.phi_deg!r}")


#: Broadside of a y-axis linear array.
FRONT = Direction(90.0, 0.0)
#: Halfway between broadside and endfire in the azimuthal plane.
DIAGONAL = Direction(90.0, 45.0)
#: Endfire of a y-axis linear array.
SIDE = Direction(90.0, 90.0)

#: Named direction presets accepted wherever a direction is parsed from text.
DIRECTION_PRESETS = {"front": FRONT, "diagonal": DIAGONAL, "side": SIDE}


def unit_vector(direction: Direction) -> np.ndarray:
    """Cartesian unit vector for a spherical direction.

    Parameters
    ----------
    direction : Direction
        Polar/azimuthal angles in degrees.

    Returns
    -------
    numpy.ndarray
        Shape ``(3,)`` float vector of unit Euclidean norm.
    """
    theta = math.radians(direction.theta_deg)
    phi = math.radians(direction.phi_deg)
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


@dataclass(frozen=True)
class SphericalPoint:
    """A point given by radial distance and direction from the origin."""

    r: float
    direction: Direction

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"radial distance must be >= 0 and finite, got {self.r!r}")

    def to_cartesian(self) -> np.ndarray:
        """Cartesian coordinates of the point, shape ``(3,)``."""
        return self.r * unit_vector(self.direction)


def cartesian_to_spherical(vec: np.ndarray) -> SphericalPoint:
    """Convert a cartesian 3-vector to a :class:`SphericalPoint`.

    The origin maps to ``r = 0`` with the canonical direction
    ``theta = phi = 0``.
    """
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    r = float(np.linalg.norm(v))
    if r == 0.0:
        return SphericalPoint(0.0, Direction(0.0, 0.0))
    theta = math.degrees(math.acos(max(-1.0, min(1.0, v[2] / r))))
    phi = math.degrees(math.atan2(v[1], v[0])) % 360.0
    return SphericalPoint(r, Direction(theta, phi))


#: Pairs (radius-element, element-element, or ``Xi`` grid points) per block of a
#: scan over per-axis planes; ``Xi`` grid rows count 2001 pairs each.  A float64
#: plane of 8192 pairs is 64 KiB, below glibc's 128 KiB mmap threshold, so block
#: temporaries come from the heap and are not mapped and faulted in again on every
#: block; 2048 or 16384 pairs were slower.
_SCAN_PAIRS = 8192


def _plane_dot(u, v):
    """``u . v`` of vectors held as three per-axis planes, summed x, y, z left to right.

    That is the order ``np.sum(..., axis=-1)`` and ``np.linalg.norm(..., axis=-1)`` use
    on ``(..., 3)`` arrays, so results agree with them bit for bit; reducing over a
    length-3 axis is what made those forms slow.
    """
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _plane_offsets(a: np.ndarray, b: np.ndarray):
    """``a - b`` over a last axis of length 3, as per-axis planes, and its Euclidean norm.

    ``a`` and ``b`` broadcast as ``a[..., i] - b[..., i]`` does, so a batch of points
    ``(..., 1, 3)`` against element positions ``(N, 3)`` gives planes ``(..., N)``.
    """
    planes = tuple(a[..., i] - b[..., i] for i in range(3))
    return planes, np.sqrt(_plane_dot(planes, planes))


def stable_excess_path(
    r: float | np.ndarray, rhat: np.ndarray, r_n: np.ndarray
) -> float | np.ndarray:
    """Excess path length ``|r*rhat - r_n| - r`` without cancellation.

    Direct subtraction loses all significant digits once ``r`` exceeds
    ``|r_n|`` by a few orders of magnitude; the algebraically equivalent
    form ``(|r_n|^2 - 2 r rhat.r_n) / (|r*rhat - r_n| + r)`` stays accurate
    for arbitrarily large ``r``.

    Parameters
    ----------
    r : float or numpy.ndarray
        Nonnegative radial distance(s) of the observation point.
    rhat : numpy.ndarray
        Unit direction of the observation point, shape ``(3,)``.
    r_n : numpy.ndarray
        Source offset(s), shape ``(3,)`` or ``(..., 3)``.

    Returns
    -------
    float or numpy.ndarray
        The excess path, one value per radius and source offset, shape
        ``np.shape(r) + r_n.shape[:-1]``.
    """
    rhat = np.asarray(rhat, dtype=float)
    r_n = np.asarray(r_n, dtype=float)
    n2 = np.sum(r_n * r_n, axis=-1)
    t = r_n @ rhat
    r = np.reshape(r, np.shape(r) + (1,) * (r_n.ndim - 1))
    _, dist = _plane_offsets(r[..., None] * rhat, r_n)
    denom = dist + r
    safe = np.where(denom == 0.0, 1.0, denom)
    out = np.where(denom == 0.0, 0.0, (n2 - 2.0 * r * t) / safe)
    if out.ndim == 0:
        return float(out)
    return out
