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
    FREE_SPACE_IMPEDANCE,
    WAVENUMBER,
    Direction,
    _blockwise,
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


def _off_elements(dist: np.ndarray, radius) -> np.ndarray:
    """``dist (..., N)``, unless point ``i`` is on an element: then raise, naming ``radius(i)``."""
    near = on_element(dist)
    if near.any():
        raise FieldSingularity(
            f"singular at r = {float(radius(np.argmax(np.any(near, axis=-1))))!r}: the point "
            f"lies within {SINGULARITY_RADIUS} wavelengths of an element position"
        )
    return dist


def _axes_first(a: np.ndarray) -> np.ndarray:
    """A view of ``a (..., 3)`` with its last axis first, ``(3, ...)``: its x, y, z planes."""
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1)))


def _point_offsets(points: np.ndarray, positions: np.ndarray):
    """Offsets ``p - r_n`` of points ``(..., 3)`` as x, y, z planes ``(..., N)``, and their norms.

    A point on an element raises :class:`FieldSingularity`, which names its ``r = |p|``.
    """
    planes, dist = _plane_offsets(points[..., None, :], positions)
    return planes, _off_elements(dist, lambda i: np.linalg.norm(np.reshape(points, (-1, 3))[i]))


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

        The pairwise distances are taken in blocks of rows (:func:`nff.core._blockwise`).
        """
        pos = self.positions

        def row_max(i):
            return np.max(_plane_offsets(pos[i, None, :], pos)[1], axis=-1)

        return float(np.max(_blockwise(row_max, len(pos), np.arange(len(pos)))))


def uniform_linear_array(n: int, spacing: float) -> ArrayGeometry:
    """Build a y-axis uniform linear array centered on the origin.

    Element ``m`` (1-based) sits at ``y = (m - (n+1)/2) * spacing``; the
    boresight normal is +x and elements are z-oriented.

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
    return ArrayGeometry(positions)


def _dipole_terms(dist: np.ndarray):
    """``kr``, ``near = 1 + 1/(jkR)`` and the bracketed factors of the module docstring.

    ``h``, ``e_rad`` (before its ``c``) and ``e_pol``, without the phase; both kernels use them.
    """
    k, z0 = WAVENUMBER, FREE_SPACE_IMPEDANCE
    kr = k * dist
    near = 1.0 + 1.0 / (1j * kr)
    e_rad = z0 / (2.0 * math.pi * dist**2) * near
    four_pi_r = 4.0 * math.pi * dist
    e_pol = 1j * z0 * k / four_pi_r * (near - 1.0 / kr**2)
    return kr, near, 1j * k / four_pi_r, e_rad, e_pol


#: Axes x, y, z, x, y: rows ``i + 1`` and ``i + 2`` of a vector so extended are the axes of
#: ``(u x v)_i = u_i+1 v_i+2 - u_i+2 v_i+1``, the products ``np.cross`` forms.
_CYCLE = [0, 1, 2, 0, 1]


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
    offsets, dist = _point_offsets(np.asarray(points, dtype=float), geometry.positions)
    # Vectors are x, y, z planes (3, ..., N), against which each per-element factor (..., N)
    # broadcasts, so every product is one ufunc call, per element in the order of the
    # per-axis formulas.  rhat and u get their x and y planes again: the axes i + 1 and
    # i + 2 of u x rhat are then slices.
    u = geometry.orientations.T[_CYCLE].reshape((5,) + (1,) * (dist.ndim - 1) + (-1,))
    planes = np.empty((5,) + dist.shape)
    for i in range(3):
        np.divide(offsets[i], dist, out=planes[i])
    rhat = planes[:3]
    planes[3:] = rhat[:2]
    c = rhat * u[:3]
    cos_loc = c[0] + c[1] + c[2]  # u . rhat, x, y, z left to right
    kr, near, h_amp, e_rad, e_pol = _dipole_terms(dist)
    phase = np.exp(-1j * kr)
    # complex products go into new arrays: numpy's in-place product of a one-element
    # complex array can differ from it in the last bit
    h_amp = phase * h_amp * near
    cross = u[1:4] * planes[2:]
    cross -= u[2:] * planes[1:4]  # u x rhat
    pol = cos_loc * rhat
    pol -= u[:3]
    pol = e_pol * pol
    pol += e_rad * cos_loc * rhat  # b + a: the bits of a + b
    # E and H per element are written plane by plane into C-ordered (..., N, 3) arrays: a
    # transposed (3, ..., N) array would send ``w @ e`` down another BLAS path, with other
    # bits.  The phase stays the first operand at any size (numpy turns ``a * (b + c)`` into
    # an in-place product with swapped operands from 256 KiB on, and a complex product's
    # imaginary part depends on the order), so a point gets the same bits in any batch
    e, h = np.empty(dist.shape + (3,), complex), np.empty(dist.shape + (3,), complex)
    np.multiply(phase, pol, out=_axes_first(e))
    np.multiply(h_amp, cross, out=_axes_first(h))
    # one (1, N) @ (N, 3) product per point, the same reduction as ``w @ e``
    w = np.asarray(weights, dtype=complex)[..., None, :]
    return (w @ e)[..., 0, :], (w @ h)[..., 0, :]


def _line_fields(geometry: ArrayGeometry, rhat: np.ndarray):
    """:func:`array_field` on the line ``r rhat``, as ``fields(r, weights) -> (dist, E, H)``.

    With ``s = r - t_n`` and ``p_n = r_n - t_n rhat`` normal to ``rhat``, a pair forms scalars
    alpha, beta, gamma: ``E = rhat sum(alpha s) - sum(alpha p_n) - sum(beta u_n)`` and ``H =
    sum(gamma s) (u_n x rhat) - sum(gamma (u_n x p_n))``, each sum a ``(1, N) @ (N, 3)``
    product per radius, so a radius gets the same bits in any block.  ``dist`` comes from
    :func:`array_field`'s :func:`_point_offsets` call, so ``exp(-jk dist)`` has its bits.
    ``weights`` None are focusing weights, whose product with the phase is 1.
    """
    pos, u = geometry.positions, geometry.orientations
    t = pos @ rhat
    p = pos - t[:, None] * rhat
    u_t, u_p = u @ rhat, np.sum(u * p, axis=-1)
    vecs = (np.broadcast_to(rhat, pos.shape), -p, -u, np.cross(u, rhat), -np.cross(u, p))
    vecs = [np.asarray(v, complex) for v in vecs]

    def fields(r, weights):
        _, dist = _point_offsets(r[:, None] * rhat, pos)
        s = r[:, None] - t
        kr, near, h, e_rad, beta = _dipole_terms(dist)
        if weights is not None:
            phase = weights * np.exp(-1j * kr)
            e_rad, beta, h = e_rad * phase, beta * phase, h * phase
        alpha = (e_rad + beta) * ((s * u_t - u_p) / dist**2)
        gamma = h * near / dist
        terms = (alpha * s, alpha, beta, gamma * s, gamma)
        e, ep, eu, h, hp = ((a[:, None, :] @ v)[:, 0, :] for a, v in zip(terms, vecs))
        return dist, e + ep + eu, h + hp

    return fields


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
    _, dist = _point_offsets(np.asarray(focus, dtype=float), geometry.positions)
    return np.exp(1j * WAVENUMBER * dist)
