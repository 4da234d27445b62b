"""The exact fields of a centre-fed thin-wire dipole: a field source that nff does not form.

A z-directed wire from ``z = -h`` to ``z = h`` carries ``I(z) = sin(k (h - |z|))`` (unit
``I0``).  With ``R1`` and ``R2`` the distances to its ends, ``r`` to its centre and ``rho``
to its axis, its fields are, exactly (Schelkunoff's closed form, as in the induced-EMF
derivation of mutual impedance; Balanis, *Antenna Theory*, ch. 8), with ``g(R) =
exp(-jkR)``::

    E_z   = -j Z0 / (4 pi)       * (g(R1)/R1 + g(R2)/R2 - 2 cos(kh) g(r)/r)
    E_rho =  j Z0 / (4 pi rho)   * ((z - h) g(R1)/R1 + (z + h) g(R2)/R2 - 2 cos(kh) z g(r)/r)
    H_phi =  j    / (4 pi rho)   * (g(R1) + g(R2) - 2 cos(kh) g(r))

and its far field is ``E_theta = j Z0 g(r) / (2 pi r) * (cos(kh cos theta) - cos kh) /
sin theta``.  Off the wire these solve Maxwell's equations, in the package's units
(wavelengths, ``exp(+j omega t)``).  As ``h -> 0`` the wire is a z-directed Hertzian dipole
of moment ``k h^2``.
"""

import math

import numpy as np

from nff import FREE_SPACE_IMPEDANCE, WAVENUMBER, Direction

K = WAVENUMBER
Z0 = FREE_SPACE_IMPEDANCE


def wire_fields(points: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """``(E, H)``, each ``(..., 3)``, of the wire of half-length ``h`` at ``points (..., 3)``
    off its axis."""
    p = np.asarray(points, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    rho2 = x * x + y * y
    r0, r1, r2 = (np.sqrt(rho2 + (z - c) ** 2) for c in (0.0, h, -h))
    g0, g1, g2 = (np.exp(-1j * K * r) for r in (r0, r1, r2))
    two_cos = 2.0 * math.cos(K * h)
    e_z = -1j * Z0 / (4 * math.pi) * (g1 / r1 + g2 / r2 - two_cos * g0 / r0)
    # E_rho / rho and H_phi / rho, so that rho-hat * rho = (x, y, 0) and phi-hat * rho = (-y, x, 0)
    e_rho = 1j * Z0 / (4 * math.pi * rho2) * (
        (z - h) * g1 / r1 + (z + h) * g2 / r2 - two_cos * z * g0 / r0
    )
    h_phi = 1j / (4 * math.pi * rho2) * (g1 + g2 - two_cos * g0)
    e = np.stack([e_rho * x, e_rho * y, e_z], axis=-1)
    hf = np.stack([-h_phi * y, h_phi * x, np.zeros_like(h_phi)], axis=-1)
    return e, hf


def wire_far_field(direction: Direction, h: float) -> np.ndarray:
    """The wire's angular field ``f`` along ``direction``: ``E_FF = sqrt(Z0) f exp(-jkr) / r``."""
    theta, phi = math.radians(direction.theta_deg), math.radians(direction.phi_deg)
    pattern = (math.cos(K * h * math.cos(theta)) - math.cos(K * h)) / math.sin(theta)
    theta_hat = np.array([math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi),
                          -math.sin(theta)])
    return 1j * math.sqrt(Z0) / (2 * math.pi) * pattern * theta_hat
