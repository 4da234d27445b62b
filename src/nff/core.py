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


def _direction_of(vec: np.ndarray) -> Direction:
    """Direction of a nonzero, finite 3-vector; an azimuth that rounds up to 360 degrees is 0."""
    v = np.asarray(vec, dtype=float)
    r = float(np.linalg.norm(v))
    theta = math.degrees(math.acos(max(-1.0, min(1.0, v[2] / r))))
    phi = math.degrees(math.atan2(v[1], v[0])) % 360.0
    return Direction(theta, 0.0 if phi == 360.0 else phi)


#: Pairs (radius-element, element-element, or ``Xi`` cell points) per block of
#: :func:`_blockwise`; an ``Xi`` cell counts 21 pairs.  A float64 plane of
#: 8192 pairs is 64 KiB, below glibc's 128 KiB mmap threshold, so block temporaries
#: come from the heap and are not mapped and faulted in again on every block; 2048
#: or 16384 pairs were slower.
_SCAN_PAIRS = 8192


def _blockwise(fn, width: int, items, dtypes=(float,)):
    """``fn(items)`` on blocks of ``max(1, _SCAN_PAIRS // width)`` items, ``width`` pairs each.

    A block holds consecutive items of the flattened array; ``fn`` returns one value per item
    (a row, for a dtype like ``(complex, 3)``) for each entry of ``dtypes`` (a tuple of arrays
    if several).  An input of one block or less goes to ``fn`` whole.  Outputs, shaped as
    ``items``, are allocated before the first block: allocated after it, they raised the page
    faults and CPU time of the boundary scans (glibc trims and regrows the heap top).
    """
    size = np.size(items)
    step = max(1, _SCAN_PAIRS // width)
    if size <= step:
        return fn(items)
    outs = tuple(np.empty(size, dtype) for dtype in dtypes)
    flat = np.ravel(items)
    for i in range(0, size, step):
        parts = fn(flat[i : i + step])
        for out, part in zip(outs, parts if len(outs) > 1 else (parts,)):
            out[i : i + step] = part
    outs = tuple(out.reshape(np.shape(items) + out.shape[1:]) for out in outs)
    return outs if len(outs) > 1 else outs[0]


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
    The norm is :func:`_plane_dot` of the planes with themselves, summed in place.
    """
    x, y, z = planes = tuple(a[..., i] - b[..., i] for i in range(3))
    dist = x * x
    dist += y * y
    dist += z * z
    return planes, np.sqrt(dist, out=dist)


def _line_constants(positions: np.ndarray, rhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Place ``t = rhat . r_n`` of elements ``(N, 3)`` along the line ``r rhat``, and ``w``.

    ``w = |r_n|^2 - t^2`` (at least 0) is the squared distance off the line.  As a
    difference of squares it is exactly 0 for an element on the line, even when the
    float ``rhat`` is 6e-17 off it; ``|r_n x rhat|^2`` is not.
    """
    t = positions @ rhat
    return t, np.maximum(np.sum(positions * positions, axis=-1) - t * t, 0.0)


def _line_distance(s, w) -> np.ndarray:
    """Distance ``d = |r rhat - r_n| = sqrt(s^2 + w)`` at ``s = r - t`` along the line."""
    return np.sqrt(s * s + w)


def _line_excess(r, t, w) -> tuple[np.ndarray, np.ndarray]:
    """Distance ``d = |r rhat - r_n|`` and excess path ``delta = d - r + t`` (broadcast).

    With ``s = r - t``, ``d`` is :func:`_line_distance` and ``delta`` is ``w / (d + s)``
    where ``s > 0``, ``d - s`` elsewhere.  Neither branch cancels, so ``delta`` keeps
    its relative precision at any radius; on the line it is exactly 0 past the element
    and ``2 (t - r)`` before it.  A float difference is 0 only between equal floats, so
    every ``s > 0`` when every ``r > max t``; the quotient then needs no mask, which costs
    about as much again, and has the same bits.
    """
    s = r - t
    d = _line_distance(s, w)
    if not np.any(r <= np.max(t)):
        return d, w / (d + s)
    delta = d - s
    np.divide(w, d + s, out=delta, where=s > 0.0)
    return d, delta
