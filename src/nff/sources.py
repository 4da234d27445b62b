"""Closed-form dipole fields, array superposition, and beamforming weights.

The element model is the infinitesimal (Hertzian) dipole with a unit
current-length product ``Il = 1``; weights carry any amplitude.  Its exact
fields at distance ``R`` along ``Rhat`` from an element oriented along the
unit vector ``u`` are, with ``c = u . Rhat`` and the polar/azimuthal unit
vectors absorbed into the coordinate-free combinations ``c*Rhat - u`` and
``u x Rhat``::

    H(R) = exp(-jkR) * [ j*k*Il/(4*pi*R) * (1 + 1/(jkR)) ] * (u x Rhat)
    E(R) = exp(-jkR) * { Z0*Il/(2*pi*R^2) * (1 + 1/(jkR)) * c * Rhat
                       + j*Z0*k*Il/(4*pi*R) * (1 + 1/(jkR) - 1/(kR)^2) * (c*Rhat - u) }

No mutual coupling is modeled: array fields are exact weighted sums of
element fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    _SCAN_PAIRS,
    FREE_SPACE_IMPEDANCE,
    WAVENUMBER,
    Direction,
    _plane_offsets,
    unit_vector,
)

#: Evaluation closer to an element than this (in wavelengths) is rejected.
SINGULARITY_RADIUS = 1e-9

_Z_HAT = np.array([0.0, 0.0, 1.0])
_X_HAT = np.array([1.0, 0.0, 0.0])


class FieldSingularity(ValueError):
    """Raised when fields are requested on (or numerically at) an element."""


def on_element(dist: np.ndarray) -> np.ndarray:
    """True where a point-to-element distance is within SINGULARITY_RADIUS wavelengths."""
    return dist < SINGULARITY_RADIUS


def _as_array(vec: np.ndarray, ndim: int, what: str, unit: bool = False) -> np.ndarray:
    """A finite, read-only float copy of 3-vectors: ``(3,)`` or, with ``ndim == 2``, ``(N, 3)``.

    With ``unit``, every 3-vector must be nonzero and is scaled to unit length.
    """
    v = np.array(vec, dtype=float)
    if v.ndim != ndim or v.shape[-1] != 3 or v.size == 0:
        want = "a 3-vector" if ndim == 1 else "an (N, 3) array with N >= 1"
        raise ValueError(f"{what} must be {want}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} must be finite")
    if unit:
        norm = np.linalg.norm(v, axis=-1, keepdims=True)
        if not np.all((norm > 0.0) & np.isfinite(norm)):
            raise ValueError(f"{what} must be nonzero and of finite length")
        v = v / norm
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class DipoleElement:
    """A single infinitesimal dipole, the argument of :func:`dipole_field`.

    Attributes
    ----------
    position : numpy.ndarray
        Element location, wavelengths.
    orientation : numpy.ndarray
        Unit vector along the dipole axis (normalized at construction).
    """

    position: np.ndarray
    orientation: np.ndarray = field(default_factory=lambda: _Z_HAT.copy())

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", _as_array(self.position, 1, "position"))
        object.__setattr__(
            self, "orientation", _as_array(self.orientation, 1, "orientation", unit=True)
        )


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """An antenna array: element positions and orientations plus a boresight normal.

    Attributes
    ----------
    positions : numpy.ndarray
        Element locations ``(N, 3)``, wavelengths.  They must be finite and
        centered on the origin, the reference point of every radial sweep.
    orientations : numpy.ndarray
        Dipole axes, one 3-vector for every element or ``(N, 3)``; stored as
        ``(N, 3)`` unit vectors.
    boresight : numpy.ndarray
        Unit normal of the array (normalized at construction).
    """

    positions: np.ndarray
    orientations: np.ndarray = field(default_factory=lambda: _Z_HAT.copy())
    boresight: np.ndarray = field(default_factory=lambda: _X_HAT.copy())

    def __post_init__(self) -> None:
        pos = _as_array(self.positions, 2, "element positions")
        u = _as_array(np.broadcast_to(self.orientations, pos.shape), 2, "orientations", unit=True)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "orientations", u)
        object.__setattr__(self, "boresight", _as_array(self.boresight, 1, "boresight", unit=True))
        # the same test as ``centroid > 1e-12 * max(1, span)``, but the span is read
        # only for a centroid that is not already within 1e-12 of the origin
        centroid = float(np.linalg.norm(np.mean(pos, axis=0)))
        if centroid > 1e-12 and centroid > 1e-12 * self.span:
            raise ValueError(
                f"elements must be centered on the origin (centroid norm {centroid:.3e})"
            )

    @property
    def n(self) -> int:
        return len(self.positions)

    @cached_property
    def span(self) -> float:
        """Largest dimension: the maximum inter-element distance, computed on first read.

        Rows of the pairwise distances are taken ``_SCAN_PAIRS // N`` at a time.
        """
        pos = self.positions
        step = max(1, _SCAN_PAIRS // len(pos))
        return float(
            max(
                np.max(_plane_offsets(pos[i : i + step, None, :], pos)[1])
                for i in range(0, len(pos), step)
            )
        )


def uniform_linear_array(
    n: int,
    spacing: float,
    orientation: np.ndarray | None = None,
) -> ArrayGeometry:
    """Build a y-axis uniform linear array centered on the origin.

    Element ``m`` (1-based) sits at ``y = (m - (n+1)/2) * spacing``; the
    boresight normal is +x and elements are z-oriented unless an explicit
    orientation is given.

    Parameters
    ----------
    n : int
        Element count, at least 1.
    spacing : float
        Inter-element spacing in wavelengths; must be positive for n > 1.

    Returns
    -------
    ArrayGeometry
    """
    if n < 1:
        raise ValueError(f"element count must be >= 1, got {n}")
    if n > 1 and not (math.isfinite(spacing) and spacing > 0.0):
        raise ValueError(f"spacing must be positive for n > 1, got {spacing!r}")
    if n == 1:
        spacing = 0.0
    positions = np.zeros((n, 3))
    positions[:, 1] = (np.arange(1, n + 1) - (n + 1) / 2.0) * spacing
    return ArrayGeometry(positions, _Z_HAT if orientation is None else orientation)


def _element_fields(
    positions: np.ndarray,
    orientations: np.ndarray,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element dipole fields at points ``(..., 3)``; shapes ``(..., N, 3)``."""
    k = WAVENUMBER
    z0 = FREE_SPACE_IMPEDANCE
    rvec = points[..., None, :] - positions
    dist = np.linalg.norm(rvec, axis=-1)
    if np.any(on_element(dist)):
        raise FieldSingularity(
            f"field evaluation within {SINGULARITY_RADIUS} wavelengths of an element"
        )
    rhat = rvec / dist[..., None]
    cos_loc = np.sum(orientations * rhat, axis=-1)
    kr = k * dist
    phase = np.exp(-1j * kr)
    near = 1.0 + 1.0 / (1j * kr)

    h_amp = phase * (1j * k / (4.0 * math.pi * dist)) * near
    h = h_amp[..., None] * np.cross(orientations, rhat)

    e_rad = z0 / (2.0 * math.pi * dist**2) * near * cos_loc
    e_pol = 1j * z0 * k / (4.0 * math.pi * dist) * (near - 1.0 / kr**2)
    e = phase[..., None] * (
        e_rad[..., None] * rhat + e_pol[..., None] * (cos_loc[..., None] * rhat - orientations)
    )
    return e, h


def dipole_field(element: DipoleElement, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact fields of a single dipole at a cartesian point.

    Returns
    -------
    (E, H) : tuple of numpy.ndarray
        Complex 3-vectors of the electric and magnetic field phasors.
    """
    p = np.asarray(point, dtype=float).reshape(3)
    e, h = _element_fields(element.position[None, :], element.orientation[None, :], p)
    return e[0], h[0]


def array_field(
    geometry: ArrayGeometry,
    weights: np.ndarray,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Superposed array fields ``E = sum_n w_n E_n``, ``H = sum_n w_n H_n``.

    Parameters
    ----------
    geometry : ArrayGeometry
    weights : numpy.ndarray
        Complex excitation weights, shape ``(..., N)``; leading axes
        broadcast against those of ``points``.
    points : numpy.ndarray
        Cartesian observation points, shape ``(..., 3)``.

    Returns
    -------
    (E, H) : tuple of numpy.ndarray
        Complex field vectors, shape ``(..., 3)``.
    """
    e, h = _element_fields(
        geometry.positions, geometry.orientations, np.asarray(points, dtype=float)
    )
    # one (1, N) @ (N, 3) product per point, the same reduction as ``w @ e``
    w = np.asarray(weights, dtype=complex)[..., None, :]
    return (w @ e)[..., 0, :], (w @ h)[..., 0, :]


def ff_precoder(geometry: ArrayGeometry, direction: Direction) -> np.ndarray:
    """Beamsteering weights ``w_n = exp(-j k rhat . r_n)`` for a direction.

    Aligns the element phases so their far-zone contributions add
    coherently toward ``direction``; every weight has unit modulus.
    """
    rhat = unit_vector(direction)
    return np.exp(-1j * WAVENUMBER * (geometry.positions @ rhat))


def nf_precoder(geometry: ArrayGeometry, focus: np.ndarray) -> np.ndarray:
    """Beamfocusing weights ``w_n = exp(+j k |focus - r_n|)``, shape ``(..., N)``.

    Aligns the element phases at each cartesian focus point ``(..., 3)``;
    every weight has unit modulus.
    """
    p = np.asarray(focus, dtype=float)
    _, dist = _plane_offsets(p[..., None, :], geometry.positions)
    if np.any(on_element(dist)):
        raise FieldSingularity("focus coincides with an element position")
    return np.exp(1j * WAVENUMBER * dist)
