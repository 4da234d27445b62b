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
from functools import cached_property, reduce

import numpy as np

from .core import (
    FREE_SPACE_IMPEDANCE, WAVENUMBER, Direction, _blockwise, _line_constants, _line_distance,
    _plane_dot, unit_vector,
)
from .farfield import (
    AngularFieldDistribution, _element_terms, analytic_angular_distribution, auxiliary_fields
)
from .sources import (
    SINGULARITY_RADIUS, ArrayGeometry, _line_fields, array_field, ff_precoder, nf_precoder,
    on_element,
)

#: Default radial sweep grid: 10^-1 .. 10^4 wavelengths, 100 points/decade.
DEFAULT_GRID_LO = 0.1
DEFAULT_GRID_HI = 1.0e4
DEFAULT_GRID_PPD = 100

#: Largest point count :func:`default_grid` builds.
MAX_GRID_POINTS = 10**6

#: Excitation scheme labels.
EXCITATION_STEER = "ff-bf"
EXCITATION_FOCUS = "nf-bf"
EXCITATION_NONE = "none"
_EXCITATIONS = (EXCITATION_STEER, EXCITATION_FOCUS, EXCITATION_NONE)


def _stacked_norm(ae: np.ndarray, ah: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Norm of the impedance-normalized stacked 6-vector from component magnitudes ``(..., 3)``.

    Each row's magnitudes are multiplied by its power of two ``s`` before they are
    squared, and each squared norm is summed x, y, z left to right, as ``np.sum`` does.
    """
    pe, ph = (np.moveaxis(a * s[..., None], -1, 0) for a in (ae, ah))
    return np.sqrt(
        _plane_dot(pe, pe) / FREE_SPACE_IMPEDANCE + FREE_SPACE_IMPEDANCE * _plane_dot(ph, ph)
    )


def field_mismatch(e, h, e_ff, h_ff):
    """Squared normalized distance between two field pairs.

    Accepts single complex 3-vectors or arrays of shape ``(..., 3)``
    (broadcast over leading axes).  Each row is scaled by a power of two
    before it is squared, so fields of any finite magnitude are scored.

    Returns
    -------
    float or numpy.ndarray
        ``mu`` in [0, 1]; 0 when both stacked vectors vanish.
    """
    e, h, e_ff, h_ff = (np.asarray(v, dtype=complex) for v in (e, h, e_ff, h_ff))
    mags = [np.abs(v) for v in (e, h, e_ff, h_ff)]
    # mu is invariant to one factor per row, and a power of two scales exactly: magnitudes
    # scaled to a row maximum in [0.5, 1) neither overflow nor underflow when squared
    big = reduce(np.maximum, [m[..., i] for m in mags for i in range(3)])
    # a subnormal maximum keeps the scale finite: 2**1021, not up to 2**1074
    s = np.ldexp(1.0, -np.maximum(np.frexp(big)[1], -1021))
    num = _stacked_norm(np.abs(e - e_ff), np.abs(h - h_ff), s)
    den = _stacked_norm(*mags[:2], s) + _stacked_norm(*mags[2:], s)
    safe = np.where(den == 0.0, 1.0, den)
    ratio = num / safe
    # not ``** 2``, which on a scalar calls libm pow: a row alone would differ from a batch
    mu = np.minimum(ratio * ratio, 1.0)
    mu = np.where(den == 0.0, 0.0, mu)
    if mu.ndim == 0:
        return float(mu)
    return mu


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
    def _fixed_weights(self) -> np.ndarray:
        """The ``(N,)`` weights of ``ff-bf`` or ``none``, the same at every point."""
        if self.excitation == EXCITATION_STEER:
            w = ff_precoder(self.geometry, self.steering)
        else:
            w = np.ones(self.geometry.n, dtype=complex)
        w.flags.writeable = False
        return w

    def _weights_at(self, points: np.ndarray) -> np.ndarray:
        """Per-point ``(..., N)`` weights of ``nf-bf``; the fixed ``(N,)`` row otherwise."""
        if self.excitation == EXCITATION_FOCUS:
            return nf_precoder(self.geometry, points)
        return self._fixed_weights

    def weights(self, points: np.ndarray) -> np.ndarray:
        """Excitation weights ``(..., N)`` used at cartesian points ``(..., 3)``."""
        w = self._weights_at(points)
        return np.broadcast_to(w, np.shape(points)[:-1] + w.shape[-1:])

    def fields(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # a fixed (N,) row broadcasts against every point inside array_field
        return array_field(self.geometry, self._weights_at(points), points)

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

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float).reshape(-1)
        eps = np.asarray(self.epsilon, dtype=float).reshape(-1)
        if r.shape != eps.shape:
            raise ValueError(f"r and epsilon lengths differ: {r.size} vs {eps.size}")
        if r.size:
            if not np.all(r > 0.0):
                raise ValueError("radii must be positive")
            if not np.all(r[1:] > r[:-1]):
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
    scenario: DipoleArrayScenario,
    direction: Direction,
    r_grid: np.ndarray,
) -> ErrorCurve:
    """Evaluate the approximation error along a radial grid.

    The sweep has two levels.  Field blocks of 2048 radius-element pairs
    (:func:`nff.core._blockwise`) form the exact fields on the line
    (:func:`nff.sources._line_fields`), one ``exp`` per pair: the phase, or for
    ``nf-bf`` (weight times phase is 1) the weight in the far-field ``f``.  Chunks
    of up to 512 radii then build the far fields and score the mismatch; the
    line's constants, a direction's element terms and the fixed ``f`` of ``ff-bf``
    and ``none`` are computed once per sweep.  Every radius gets its value, bit for
    bit, as swept alone; one on an element raises :class:`FieldSingularity`.

    Parameters
    ----------
    scenario : DipoleArrayScenario
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
        return ErrorCurve(grid, grid.copy())
    if not np.all(grid > 0.0):
        raise ValueError("sweep grid radii must be positive")
    if not np.all(grid[1:] > grid[:-1]):
        raise ValueError("sweep grid must be strictly increasing")
    geometry = scenario.geometry
    rhat = unit_vector(direction)
    fields = _line_fields(geometry, rhat)
    focus = scenario.excitation == EXCITATION_FOCUS
    weights = None if focus else scenario.weights(rhat)
    if focus:
        phases, f_elem = _element_terms(geometry, direction)
    else:  # the weights, and so f, are the same at every radius
        fixed = analytic_angular_distribution(geometry, weights, direction)

    def block(r):
        dist, e, h = fields(r, weights)
        if not focus:
            return e, h
        # f of the focusing weights exp(+jk dist) that nf_precoder gives these points
        return e, h, ((np.exp(1j * WAVENUMBER * dist) * phases)[:, None, :] @ f_elem)[:, 0, :]

    def chunk(r):
        # width 4N: 2048 pairs, each (radii, N) complex temporary 32 KiB, under glibc's 128 KiB
        # mmap threshold; 1024 or 4096 pairs swept perfbench's sweeps curves 26-35 % slower
        e, h, *f = _blockwise(block, 4 * geometry.n, r, dtypes=((complex, 3),) * (2 + focus))
        dist = AngularFieldDistribution(direction, f.pop()) if focus else fixed
        e_ff, h_ff = auxiliary_fields(dist, r)
        del dist  # so only the four (radii, 3) field arrays are held while scored
        return field_mismatch(e, h, e_ff, h_ff)

    # width 16: chunks of 512 radii, so the default 501-radius grid is one chunk and each
    # (radii, 3) complex temporary (24 KiB) stays under the mmap threshold too
    return ErrorCurve(grid, _blockwise(chunk, 16, grid))


def grid_on_element(geometry: ArrayGeometry, direction: Direction, grid: np.ndarray) -> np.ndarray:
    """Mask of the increasing radii ``grid`` on a test line that land on an element position.

    A radius ``r`` is within :data:`~nff.sources.SINGULARITY_RADIUS` of element ``n`` only
    if the element is that close to the line (``w_n`` below its square) and ``r`` is that
    close to ``t_n``.  So only the grid radii within twice that radius of each near element's
    ``t_n``, found by bisection, are tested, with the distance each would get in a full
    ``(grid, N)`` pass: O(N log grid) work and the same mask.
    """
    grid = np.asarray(grid, dtype=float)
    t, w = _line_constants(geometry.positions, unit_vector(direction))
    reach = 2.0 * SINGULARITY_RADIUS
    near = w < reach * reach
    t, w = t[near], w[near]
    start = np.searchsorted(grid, t - reach, "left")
    count = np.searchsorted(grid, t + reach, "right") - start
    elem = np.repeat(np.arange(t.size), count)  # one entry per candidate (element, radius)
    idx = start[elem] + np.arange(elem.size) - (np.cumsum(count) - count)[elem]
    mask = np.zeros(grid.shape, bool)
    mask[idx[on_element(_line_distance(grid[idx] - t[elem], w[elem]))]] = True
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
