"""Angular field distributions and the auxiliary far-field functions.

In the far zone the fields of any finite source reduce to outgoing
spherical waves

    E_FF(r) = sqrt(Z0) * f(theta, phi) * exp(-jkr) / r
    H_FF(r) = (1/sqrt(Z0)) * (rhat x f) * exp(-jkr) / r

where ``f`` is the direction-dependent, radius-independent angular field
distribution.  This module computes ``f`` either analytically (exact for
coupling-free dipole arrays) or by sampling a field provider at a large
radius, and evaluates the auxiliary fields at arbitrary radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FREE_SPACE_IMPEDANCE, WAVENUMBER, Direction, unit_vector
from .sources import ArrayGeometry

#: Default sampling radius, wavelengths: near-field residuals are
#: O(1/(k*r)) ~ 1.6e-7 there, while phase is still resolved in doubles.
DEFAULT_SAMPLING_RADIUS = 1e6

#: Allowed radial leakage of an angular distribution, relative to its norm.
TRANSVERSALITY_TOL = 1e-8


class InconsistentFarField(ValueError):
    """Raised when the E-based and H-based estimates of f disagree."""


@dataclass(frozen=True, eq=False)
class AngularFieldDistribution:
    """The angular field distribution f for one direction.

    ``f`` has shape ``(..., 3)``, one row per weight vector.  Each row is
    transversal: its component along the propagation direction must
    vanish (to within :data:`TRANSVERSALITY_TOL` of the row's norm).
    ``eh_discrepancy`` records the relative E/H cross-check residual when
    the distribution was recovered from sampled fields.
    """

    direction: Direction
    f: np.ndarray
    eh_discrepancy: float | None = None

    def __post_init__(self) -> None:
        f = np.array(self.f, dtype=complex)
        f.flags.writeable = False
        object.__setattr__(self, "f", f)
        norm = np.linalg.norm(f, axis=-1).reshape(-1)
        radial = np.abs(f @ unit_vector(self.direction)).reshape(-1)
        bad = np.flatnonzero(radial > TRANSVERSALITY_TOL * norm)
        if bad.size:
            raise ValueError(
                f"angular distribution is not transversal: |rhat.f| = {radial[bad[0]]:.3e}, "
                f"||f|| = {norm[bad[0]]:.3e}"
            )


def analytic_angular_distribution(
    geometry: ArrayGeometry,
    weights: np.ndarray,
    direction: Direction,
) -> AngularFieldDistribution:
    """Exact f of a weighted dipole array in a given direction.

    Weights ``(..., N)`` give ``f`` of shape ``(..., 3)``.  Each z-oriented
    element contributes
    ``f_elem = sqrt(Z0) * j*k*Il/(4*pi) * (cos_loc * rhat - u)`` with
    ``cos_loc = u . rhat``; element offsets enter through the array-factor
    phase ``exp(+j k rhat . r_n)``.

    Returns
    -------
    AngularFieldDistribution
    """
    k = WAVENUMBER
    w = np.asarray(weights, dtype=complex)
    rhat = unit_vector(direction)
    u = geometry.orientations
    cos_loc = u @ rhat
    f_elem = (cos_loc[:, None] * rhat[None, :] - u) * (
        math.sqrt(FREE_SPACE_IMPEDANCE) * 1j * k / (4.0 * math.pi)
    )
    phases = np.exp(1j * k * (geometry.positions @ rhat))
    f = ((w * phases)[..., None, :] @ f_elem)[..., 0, :]
    return AngularFieldDistribution(direction, f)


def far_field_from_sample(
    e: np.ndarray, h: np.ndarray, rhat: np.ndarray, r_ff: float
) -> tuple[np.ndarray, float]:
    """E-based estimate of f from one far-zone sample, and the E/H residual.

    Inverts the far-field relations at ``r_ff`` along ``rhat``:
    ``f_E = (1/sqrt(Z0)) * E * r * exp(+jkr)`` (projected transversal) and
    ``f_H = sqrt(Z0) * r * exp(+jkr) * (H x rhat)``.  The two estimates
    must agree within ``10 / (k * r_ff)`` relative, otherwise the sampling
    radius is not in the far field (or the sample is corrupt) and
    :class:`InconsistentFarField` is raised, as it is when ``k r_ff``, a
    scaled field or a norm overflows float64.
    """
    k = WAVENUMBER
    e = np.asarray(e, dtype=complex).reshape(3)
    h = np.asarray(h, dtype=complex).reshape(3)
    back = r_ff * np.exp(1j * k * r_ff)
    sqrt_z0 = math.sqrt(FREE_SPACE_IMPEDANCE)
    f_e = e * back / sqrt_z0
    f_e = f_e - rhat * (rhat @ f_e)  # drop the residual near-field radial part
    f_h = sqrt_z0 * back * np.cross(h, rhat)

    scale = max(float(np.linalg.norm(f_e)), float(np.linalg.norm(f_h)))
    discrepancy = 0.0 if scale == 0.0 else float(np.linalg.norm(f_e - f_h)) / scale
    tol = 10.0 / (k * r_ff)
    if not (math.isfinite(discrepancy) and tol > 0.0):
        raise InconsistentFarField(
            f"the far-field sample at r = {r_ff:.6g} overflows float64 (or is not "
            "finite), so its E/H check cannot run"
        )
    if discrepancy > tol:
        raise InconsistentFarField(
            f"E-based and H-based angular distributions disagree by {discrepancy:.3e} "
            f"relative (tolerance {tol:.3e}); the sample is not a consistent far field"
        )
    return f_e, discrepancy


def sample_angular_distribution(
    field_provider: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    direction: Direction,
    r_ff: float = DEFAULT_SAMPLING_RADIUS,
) -> AngularFieldDistribution:
    """Recover f by sampling fields at a single large radius.

    The sample goes through :func:`far_field_from_sample`.

    Parameters
    ----------
    field_provider : callable
        Maps a cartesian point, shape ``(3,)``, to an ``(E, H)`` pair.
    direction : Direction
        Sampling direction.
    r_ff : float, optional
        Sampling radius in wavelengths; defaults to
        :data:`DEFAULT_SAMPLING_RADIUS`.

    Returns
    -------
    AngularFieldDistribution
        E-based estimate, with the E/H residual in ``eh_discrepancy``.

    Raises
    ------
    InconsistentFarField
        If the E-based and H-based estimates disagree beyond tolerance.
    """
    if r_ff <= 0.0:
        raise ValueError(f"sampling radius must be positive, got {r_ff!r}")
    rhat = unit_vector(direction)
    e, h = field_provider(r_ff * rhat)
    f, discrepancy = far_field_from_sample(e, h, rhat, r_ff)
    return AngularFieldDistribution(direction, f, eh_discrepancy=discrepancy)


def auxiliary_fields(
    distribution: AngularFieldDistribution,
    r: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Far-field approximation ``(E_FF, H_FF)`` at radii ``r``, shape ``(...)``.

    The direction is the distribution's own; its rows broadcast with ``r``.

    Returns
    -------
    (E_FF, H_FF) : tuple of numpy.ndarray
        Outgoing spherical-wave fields, shape ``(..., 3)``;
        ``|E_FF| = Z0 * |H_FF|`` and both are perpendicular to the
        propagation direction.

    Raises
    ------
    ValueError
        At ``r <= 0``, where the spherical wave is singular.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("auxiliary far fields are undefined at r <= 0")
    rhat = unit_vector(distribution.direction)
    sqrt_z0 = math.sqrt(FREE_SPACE_IMPEDANCE)
    wave = (np.exp(-1j * WAVENUMBER * r) / r)[..., None]
    e_ff = sqrt_z0 * distribution.f * wave
    h_ff = np.cross(rhat, distribution.f) * (wave / sqrt_z0)
    return e_ff, h_ff
