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

from .core import DEFAULT_CONTEXT, Direction, WaveContext, _plane_offsets, unit_vector

#: Evaluation closer to an element than this (in wavelengths) is rejected.
SINGULARITY_RADIUS = 1e-9

_Z_HAT = np.array([0.0, 0.0, 1.0])
_X_HAT = np.array([1.0, 0.0, 0.0])


class FieldSingularity(ValueError):
    """Raised when fields are requested on (or numerically at) an element."""


def on_element(dist: np.ndarray, ctx: WaveContext) -> np.ndarray:
    """True where a point-to-element distance is within SINGULARITY_RADIUS wavelengths."""
    return dist < SINGULARITY_RADIUS * ctx.wavelength


def _as_unit(vec: np.ndarray, what: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float).reshape(3)
    n = float(np.linalg.norm(v))
    if n == 0.0 or not math.isfinite(n):
        raise ValueError(f"{what} must be a nonzero finite 3-vector")
    v = v / n
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class DipoleElement:
    """A single infinitesimal dipole.

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
        pos = np.asarray(self.position, dtype=float).reshape(3)
        pos.flags.writeable = False
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", _as_unit(self.orientation, "orientation"))


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """An antenna array: element list plus a boresight normal.

    Elements must be centered on the origin (the reference point of every
    radial sweep).  ``spacing`` is recorded for uniform arrays and is
    purely descriptive.
    """

    elements: tuple[DipoleElement, ...]
    boresight: np.ndarray = field(default_factory=lambda: _X_HAT.copy())
    spacing: float | None = None

    def __post_init__(self) -> None:
        if len(self.elements) < 1:
            raise ValueError("an array needs at least one element")
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "boresight", _as_unit(self.boresight, "boresight"))
        centroid = np.mean([e.position for e in self.elements], axis=0)
        if np.linalg.norm(centroid) > 1e-12 * max(1.0, self.span):
            raise ValueError(
                "elements must be centered on the origin "
                f"(centroid norm {np.linalg.norm(centroid):.3e})"
            )

    @property
    def n(self) -> int:
        return len(self.elements)

    @cached_property
    def positions(self) -> np.ndarray:
        """Element positions stacked as shape ``(N, 3)``."""
        out = np.array([e.position for e in self.elements], dtype=float)
        out.flags.writeable = False
        return out

    @cached_property
    def orientations(self) -> np.ndarray:
        """Element orientations stacked as shape ``(N, 3)``."""
        out = np.array([e.orientation for e in self.elements], dtype=float)
        out.flags.writeable = False
        return out

    @cached_property
    def span(self) -> float:
        """Largest dimension: the maximum inter-element distance."""
        pos = self.positions
        return float(np.sqrt(max(np.max(np.sum((pos - p) ** 2, axis=1)) for p in pos)))


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
    u = _Z_HAT if orientation is None else orientation
    elements = tuple(
        DipoleElement(np.array([0.0, (m - (n + 1) / 2.0) * spacing, 0.0]), u)
        for m in range(1, n + 1)
    )
    return ArrayGeometry(elements, _X_HAT.copy(), spacing)


def _element_fields(
    positions: np.ndarray,
    orientations: np.ndarray,
    points: np.ndarray,
    ctx: WaveContext,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element dipole fields at points ``(..., 3)``; shapes ``(..., N, 3)``."""
    k = ctx.wavenumber
    z0 = ctx.impedance
    rvec = points[..., None, :] - positions
    dist = np.linalg.norm(rvec, axis=-1)
    if np.any(on_element(dist, ctx)):
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


def dipole_field(
    element: DipoleElement,
    point: np.ndarray,
    ctx: WaveContext = DEFAULT_CONTEXT,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact fields of a single dipole at a cartesian point.

    Returns
    -------
    (E, H) : tuple of numpy.ndarray
        Complex 3-vectors of the electric and magnetic field phasors.
    """
    p = np.asarray(point, dtype=float).reshape(3)
    e, h = _element_fields(element.position[None, :], element.orientation[None, :], p, ctx)
    return e[0], h[0]


def array_field(
    geometry: ArrayGeometry,
    weights: np.ndarray,
    points: np.ndarray,
    ctx: WaveContext = DEFAULT_CONTEXT,
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
        geometry.positions, geometry.orientations, np.asarray(points, dtype=float), ctx
    )
    # one (1, N) @ (N, 3) product per point, the same reduction as ``w @ e``
    w = np.asarray(weights, dtype=complex)[..., None, :]
    return (w @ e)[..., 0, :], (w @ h)[..., 0, :]


def ff_precoder(
    geometry: ArrayGeometry,
    direction: Direction,
    ctx: WaveContext = DEFAULT_CONTEXT,
) -> np.ndarray:
    """Beamsteering weights ``w_n = exp(-j k rhat . r_n)`` for a direction.

    Aligns the element phases so their far-zone contributions add
    coherently toward ``direction``; every weight has unit modulus.
    """
    k = ctx.wavenumber
    rhat = unit_vector(direction)
    return np.exp(-1j * k * (geometry.positions @ rhat))


def nf_precoder(
    geometry: ArrayGeometry,
    focus: np.ndarray,
    ctx: WaveContext = DEFAULT_CONTEXT,
) -> np.ndarray:
    """Beamfocusing weights ``w_n = exp(+j k |focus - r_n|)``, shape ``(..., N)``.

    Aligns the element phases at each cartesian focus point ``(..., 3)``;
    every weight has unit modulus.
    """
    k = ctx.wavenumber
    p = np.asarray(focus, dtype=float)
    _, dist = _plane_offsets(p[..., None, :], geometry.positions)
    if np.any(on_element(dist, ctx)):
        raise FieldSingularity("focus coincides with an element position")
    return np.exp(1j * k * dist)
