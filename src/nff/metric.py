"""The field-mismatch metric and radial approximation-error sweeps.

True fields and their far-field approximation are compared through the
squared normalized Euclidean distance of impedance-normalized stacked
field vectors ``F = [E / sqrt(Z0); sqrt(Z0) * H]``:

    mu = ( ||F - F_FF|| / (||F|| + ||F_FF||) )^2,   mu = 0 if both vanish.

``mu`` lies in [0, 1], is symmetric, and is exactly invariant to scaling
all inputs by one complex factor.  Sweeping ``mu`` along a test line as a
function of radius gives the approximation error curve ``epsilon(r)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np

from .core import FREE_SPACE_IMPEDANCE, Direction, _plane_offsets, unit_vector
from .farfield import AngularFieldDistribution, analytic_angular_distribution, auxiliary_fields
from .sources import ArrayGeometry, array_field, ff_precoder, nf_precoder, on_element

#: Default radial sweep grid: 10^-1 .. 10^4 wavelengths, 100 points/decade.
DEFAULT_GRID_LO = 0.1
DEFAULT_GRID_HI = 1.0e4
DEFAULT_GRID_PPD = 100

#: Largest point count :func:`default_grid` builds.
MAX_GRID_POINTS = 10**6

#: Radius-element pairs per block of :func:`error_sweep` and :func:`grid_on_element`.
#: It keeps a block's ``(pairs, 3)`` complex temporaries (96 KiB) under glibc's
#: 128 KiB mmap threshold, which perfbench pins, so peak memory stays flat in N.
BLOCK_PAIRS = 2048

#: Excitation scheme labels.
EXCITATION_STEER = "ff-bf"
EXCITATION_FOCUS = "nf-bf"
EXCITATION_NONE = "none"
_EXCITATIONS = (EXCITATION_STEER, EXCITATION_FOCUS, EXCITATION_NONE)


def _stacked_norm(e: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Norm of the impedance-normalized stacked 6-vector, broadcasting."""
    ne2 = np.sum(np.abs(e) ** 2, axis=-1)
    nh2 = np.sum(np.abs(h) ** 2, axis=-1)
    return np.sqrt(ne2 / FREE_SPACE_IMPEDANCE + FREE_SPACE_IMPEDANCE * nh2)


def field_mismatch(e, h, e_ff, h_ff):
    """Squared normalized distance between two field pairs.

    Accepts single complex 3-vectors or arrays of shape ``(..., 3)``
    (broadcast over leading axes).

    Returns
    -------
    float or numpy.ndarray
        ``mu`` in [0, 1]; 0 when both stacked vectors vanish.
    """
    e = np.asarray(e, dtype=complex)
    h = np.asarray(h, dtype=complex)
    e_ff = np.asarray(e_ff, dtype=complex)
    h_ff = np.asarray(h_ff, dtype=complex)
    num = _stacked_norm(e - e_ff, h - h_ff)
    den = _stacked_norm(e, h) + _stacked_norm(e_ff, h_ff)
    safe = np.where(den == 0.0, 1.0, den)
    ratio = num / safe
    # not ``** 2``, which on a scalar calls libm pow: a row alone would differ from a batch
    mu = np.minimum(ratio * ratio, 1.0)
    mu = np.where(den == 0.0, 0.0, mu)
    if mu.ndim == 0:
        return float(mu)
    return mu


class FieldScenario(Protocol):
    """Anything that can produce true fields and an angular distribution.

    ``fields`` returns the true ``(E, H)``, each ``(..., 3)``, at cartesian
    points ``(..., 3)``; ``angular_distribution`` returns the far-field
    ``f`` to compare against, given the evaluation direction and a radius
    or an array of radii ``(...)`` (the radius matters for excitations
    that re-focus at every evaluation point).
    """

    def fields(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...

    def angular_distribution(
        self, direction: Direction, r: float | np.ndarray
    ) -> AngularFieldDistribution: ...


@dataclass(frozen=True, eq=False)
class DipoleArrayScenario:
    """A dipole array driven by one of the supported excitation schemes.

    excitation:
        ``"ff-bf"``  - beamsteering toward ``steering`` (fixed weights);
        ``"nf-bf"``  - beamfocusing onto each evaluation point in turn;
        ``"none"``   - uniform unit weights.
    """

    geometry: ArrayGeometry
    excitation: str = EXCITATION_NONE
    steering: Direction | None = None

    def __post_init__(self) -> None:
        if self.excitation not in _EXCITATIONS:
            raise ValueError(
                f"unknown excitation {self.excitation!r}; expected one of {_EXCITATIONS}"
            )
        if self.excitation == EXCITATION_STEER and self.steering is None:
            raise ValueError("ff-bf excitation needs a steering direction")

    @cached_property
    def _steer_weights(self) -> np.ndarray:
        return ff_precoder(self.geometry, self.steering)

    def weights(self, points: np.ndarray) -> np.ndarray:
        """Excitation weights ``(..., N)`` used at cartesian points ``(..., 3)``."""
        if self.excitation == EXCITATION_FOCUS:
            return nf_precoder(self.geometry, points)
        steer = self.excitation == EXCITATION_STEER
        w = self._steer_weights if steer else np.ones(self.geometry.n, dtype=complex)
        return np.broadcast_to(w, np.shape(points)[:-1] + w.shape)

    def fields(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return array_field(self.geometry, self.weights(points), points)

    def angular_distribution(
        self, direction: Direction, r: float | np.ndarray
    ) -> AngularFieldDistribution:
        points = np.multiply.outer(r, unit_vector(direction))
        return analytic_angular_distribution(self.geometry, self.weights(points), direction)


@dataclass(frozen=True, eq=False)
class ErrorCurve:
    """An approximation-error curve epsilon(r) along one test line."""

    r: np.ndarray
    epsilon: np.ndarray
    direction: Direction

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float).reshape(-1)
        eps = np.asarray(self.epsilon, dtype=float).reshape(-1)
        if r.shape != eps.shape:
            raise ValueError(f"r and epsilon lengths differ: {r.size} vs {eps.size}")
        if r.size:
            if not np.all(r > 0.0):
                raise ValueError("radii must be positive")
            if not np.all(np.diff(r) > 0.0):
                raise ValueError("radii must be strictly increasing")
            if not (np.all(eps >= 0.0) and np.all(eps <= 1.0)):
                raise ValueError("epsilon values must lie in [0, 1]")
        r.flags.writeable = False
        eps.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "epsilon", eps)

    def __len__(self) -> int:
        return self.r.size


def error_sweep(
    scenario: FieldScenario,
    direction: Direction,
    r_grid: np.ndarray,
) -> ErrorCurve:
    """Evaluate the approximation error along a radial grid.

    Radii are evaluated in blocks of :data:`BLOCK_PAIRS` radius-element
    pairs; each gets the same value, bit for bit, as when swept alone.

    Parameters
    ----------
    scenario : FieldScenario
    direction : Direction
        Test-line direction.
    r_grid : numpy.ndarray
        Strictly increasing positive radii, wavelengths.

    Returns
    -------
    ErrorCurve
    """
    grid = np.asarray(r_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        return ErrorCurve(grid, grid.copy(), direction)
    if not np.all(grid > 0.0):
        raise ValueError("sweep grid radii must be positive")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("sweep grid must be strictly increasing")
    geometry = getattr(scenario, "geometry", None)
    if geometry is not None:
        bad = np.nonzero(grid_on_element(geometry, direction, grid))[0]
        if bad.size:
            raise ValueError(
                f"sweep grid point r = {float(grid[bad[0]])!r} coincides with an element position"
            )
    rhat = unit_vector(direction)
    step = max(1, BLOCK_PAIRS // (1 if geometry is None else geometry.n))
    eps = np.empty(grid.size)
    for i in range(0, grid.size, step):
        r = grid[i : i + step]
        e, h = scenario.fields(r[:, None] * rhat)
        dist = scenario.angular_distribution(direction, r)
        e_ff, h_ff = auxiliary_fields(dist, r)
        eps[i : i + step] = field_mismatch(e, h, e_ff, h_ff)
    return ErrorCurve(grid, eps, direction)


def grid_on_element(geometry: ArrayGeometry, direction: Direction, grid: np.ndarray) -> np.ndarray:
    """Mask of the radii on a test line that land on an element position."""
    rhat = unit_vector(direction)
    step = max(1, BLOCK_PAIRS // geometry.n)
    mask = np.empty(grid.size, dtype=bool)
    for i in range(0, grid.size, step):
        _, dists = _plane_offsets(grid[i : i + step, None, None] * rhat, geometry.positions)
        mask[i : i + step] = np.any(on_element(dists), axis=1)
    return mask


def default_grid(
    lo: float = DEFAULT_GRID_LO,
    hi: float = DEFAULT_GRID_HI,
    points_per_decade: int = DEFAULT_GRID_PPD,
) -> np.ndarray:
    """Logarithmic radial grid with a fixed density per decade, at most MAX_GRID_POINTS points."""
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo!r}, hi={hi!r}")
    if points_per_decade < 1:
        raise ValueError(f"points per decade must be >= 1, got {points_per_decade}")
    ratio = hi / lo
    if not math.isfinite(ratio):
        raise ValueError(f"grid span hi / lo = {ratio!r} is not finite")
    try:
        n = max(int(round(math.log10(ratio) * points_per_decade)) + 1, 2)
    except OverflowError:  # no float holds points_per_decade, so no finite span fits
        n = math.inf
    if n > MAX_GRID_POINTS:
        raise ValueError(f"the grid would have {n} points, more than the limit {MAX_GRID_POINTS}")
    return np.geomspace(lo, hi, n)
