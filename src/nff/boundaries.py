"""Near/far-field boundary evaluators and the threshold-crossing search.

Six boundary notions are implemented, each mapping an array geometry (and,
for most, a test-line direction) to a single radius in wavelengths:

``qr``
    Quasi-Rayleigh distance ``2 * D^2`` (in wavelengths) from the largest
    array dimension ``D``.
``ar``
    First radius where the worst-case element path-length excess ``Phi``
    (in radians of phase) drops to ``pi/8``.
``up``
    First radius where the element power-uniformity ratio ``Gamma``
    reaches a threshold in (0, 1).
``en``
    Last radius where the focusing-over-steering gain ratio ``Psi`` is at
    or above a threshold > 1.
``ep``
    Last radius where the normalized mean inverse-square power ``Upsilon``
    is at or below a threshold.
``wc``
    First radius beyond which the worst-case single-element mismatch
    ``Xi`` stays below a threshold everywhere (suffix supremum).

All searches share a log-grid bracketing pass plus geometric bisection,
refined to 1e-6 relative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    _SCAN_PAIRS,
    WAVENUMBER,
    Direction,
    _plane_dot,
    _plane_offsets,
    stable_excess_path,
    unit_vector,
)
from .metric import default_grid
from .sources import ArrayGeometry, ff_precoder, on_element

#: Default search bracket (wavelengths) and log-grid density.
DEFAULT_BRACKET = (1.0e-3, 1.0e6)
DEFAULT_POINTS_PER_DECADE = 400

#: Relative refinement tolerance of every bisected boundary value.
REFINE_REL_TOL = 1e-6

#: Fixed phase threshold of the ``ar`` boundary, radians.
AR_THRESHOLD = math.pi / 8.0

#: Conventional thresholds applied when a :class:`BoundarySpec` omits one.
DEFAULT_THRESHOLDS = {"up": 0.9, "en": 1.05, "ep": 0.99, "wc": 0.001}

#: Dimensionless ``wc`` thresholds are defined relative to a reference
#: mismatch amplitude of ``1 / 0.0304`` (about 32.9 per wavelength);
#: :func:`xi_worst_mismatch` itself returns a raw amplitude in units of
#: one over length, so thresholds are scaled by this factor before the
#: comparison.
WC_THRESHOLD_SCALE = 0.0304

_KINDS = ("qr", "ar", "up", "en", "ep", "wc")

STATUS_FOUND = "found"
STATUS_UNBOUNDED = "unbounded"
STATUS_NOT_FOUND = "not-found"


class UndefinedProjection(ValueError):
    """Raised when the uniform-power ratio mixes projection signs."""


class TailNotMonotone(ValueError):
    """Raised when the worst-case mismatch tail fails its decay check."""


@dataclass(frozen=True)
class BoundarySpec:
    """A boundary kind plus its threshold.

    ``threshold`` may be omitted: ``ar`` is fixed at pi/8, ``qr`` takes no
    threshold, and the remaining kinds fall back to the conventional
    values in :data:`DEFAULT_THRESHOLDS`.
    """

    kind: str
    threshold: float | None = None

    def __post_init__(self) -> None:
        kind = str(self.kind).lower()
        if kind not in _KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}; expected one of {_KINDS}")
        object.__setattr__(self, "kind", kind)
        th = self.threshold
        if kind == "qr":
            if th is not None:
                raise ValueError("the qr boundary takes no threshold")
            return
        if kind == "ar":
            if th is None:
                th = AR_THRESHOLD
            elif not math.isclose(th, AR_THRESHOLD, rel_tol=1e-12):
                raise ValueError("the ar boundary threshold is fixed at pi/8")
        elif th is None:
            th = DEFAULT_THRESHOLDS[kind]
        th = float(th)
        if kind == "up" and not (0.0 < th < 1.0):
            raise ValueError(f"up threshold must lie in (0, 1), got {th!r}")
        if kind == "en" and not th > 1.0:
            raise ValueError(f"en threshold must exceed 1, got {th!r}")
        if kind in ("ep", "wc") and not th > 0.0:
            raise ValueError(f"{kind} threshold must be positive, got {th!r}")
        object.__setattr__(self, "threshold", th)


@dataclass(frozen=True)
class BoundaryResult:
    """Outcome of one boundary search.

    ``status`` is ``"found"`` (with ``value`` in wavelengths),
    ``"unbounded"`` (the defining set extends past the bracket) or
    ``"not-found"`` (the defining set is empty within the bracket).
    ``crossings`` counts threshold transitions seen on the scan grid, and
    ``degenerate`` marks results pinned at the bracket edge (for example a
    single-element array, whose phase excess is identically zero).
    """

    status: str
    value: float | None
    bracket: tuple[float, float]
    crossings: int
    degenerate: bool = False


# ---------------------------------------------------------------------------
# criteria at a radius, or an array of radii, along a test line


def _in_blocks(criterion):
    """Evaluate ``criterion(geometry, r, ...)`` on blocks of ``_SCAN_PAIRS // N`` radii.

    Every value is elementwise in ``r``, so a block gives each radius the same
    bits as the radius alone, and the ``(radii, N)`` temporaries stay bounded
    whatever the size of ``r``.
    """

    @functools.wraps(criterion)
    def blocked(geometry: ArrayGeometry, r, *args, **kwargs):
        step = max(1, _SCAN_PAIRS // geometry.n)
        if np.size(r) <= step:
            return criterion(geometry, r, *args, **kwargs)
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        out = np.empty(flat.size)
        for i in range(0, flat.size, step):
            out[i : i + step] = criterion(geometry, flat[i : i + step], *args, **kwargs)
        return out.reshape(r.shape)

    return blocked


def _element_offsets(
    geometry: ArrayGeometry, r, direction: Direction, name: str
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Offsets ``r rhat - r_n`` as x, y, z planes ``(..., N)``, and their norms."""
    point = np.multiply.outer(r, unit_vector(direction))[..., None, :]
    planes, dist = _plane_offsets(point, geometry.positions)
    if np.any(on_element(dist)):
        raise ValueError(f"{name} is singular on an element position")
    return planes, dist


@_in_blocks
def phi_excess(
    geometry: ArrayGeometry,
    r: float | np.ndarray,
    direction: Direction,
) -> float | np.ndarray:
    """Worst-case element phase excess, radians.

    ``Phi = max_n k * (|r - r_n| - r + rhat . r_n)``, evaluated through
    :func:`nff.core.stable_excess_path` so large radii do not cancel.
    Nonnegative by the triangle inequality.
    """
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError("phase excess is undefined at r = 0")
    rhat = unit_vector(direction)
    excess = stable_excess_path(r, rhat, geometry.positions) + geometry.positions @ rhat
    return np.maximum(np.max(excess, axis=-1) * WAVENUMBER, 0.0)[()]


@_in_blocks
def gamma_uniform_power(
    geometry: ArrayGeometry,
    r: float | np.ndarray,
    direction: Direction,
) -> float | np.ndarray:
    """Uniformity ratio of per-element projected power factors.

    ``Gamma = min_n g_n / max_n g_n`` with
    ``g_n = (r - r_n) . nhat / |r - r_n|^3``.  When the projection onto
    the boresight vanishes identically (a test line inside the array
    plane), the common projection factor cancels and the ratio is
    evaluated with ``g_n = 1 / |r - r_n|^3``.

    Raises
    ------
    UndefinedProjection
        If the projections carry mixed signs, where the ratio loses
        meaning.
    """
    planes, dist = _element_offsets(geometry, r, direction, "gamma")
    proj = _plane_dot(planes, geometry.boresight)
    tol = 1e-9 * np.maximum(1.0, r)[..., None]
    if np.any(np.any(proj > tol, axis=-1) & np.any(proj < -tol, axis=-1)):
        raise UndefinedProjection(
            "boresight projections change sign along the element set; "
            "the uniform-power ratio is undefined here"
        )
    flat = np.all(np.abs(proj) <= tol, axis=-1, keepdims=True)
    g = np.where(flat, 1.0, np.abs(proj)) / dist**3
    top = np.max(g, axis=-1)
    return np.divide(np.min(g, axis=-1), top, out=np.zeros_like(top), where=top != 0.0)[()]


@_in_blocks
def psi_gain_ratio(
    geometry: ArrayGeometry,
    r: float | np.ndarray,
    direction: Direction,
    steering: Direction,
) -> float | np.ndarray:
    """Focusing-over-steering array gain ratio at radii along ``direction``.

    ``Psi = |h . w_focus| / |h . w_steer|`` with channel entries
    ``h_n = exp(-j k |r - r_n|) / |r - r_n|``, focusing weights matched to
    the point (so the numerator is ``sum_n 1 / |r - r_n|``) and steering
    weights matched to ``steering``.  At least 1 by the triangle
    inequality (the focusing weights align every term).
    """
    _, dist = _element_offsets(geometry, r, direction, "psi")
    h = np.exp(-1j * WAVENUMBER * dist) / dist
    den = np.abs(np.sum(h * ff_precoder(geometry, steering), axis=-1))
    with np.errstate(divide="ignore"):
        return (np.sum(1.0 / dist, axis=-1) / den)[()]


@_in_blocks
def upsilon_power(
    geometry: ArrayGeometry,
    r: float | np.ndarray,
    direction: Direction,
) -> float | np.ndarray:
    """Mean inverse-square element distance, normalized by ``1/r^2``.

    ``Upsilon = (r^2 / N) * sum_n 1 / |r - r_n|^2``; equals 1 when every
    element sits at the reference point.
    """
    planes, _ = _element_offsets(geometry, r, direction, "upsilon")
    return (np.square(r) / geometry.n * np.sum(1.0 / _plane_dot(planes, planes), axis=-1))[()]


# ---------------------------------------------------------------------------
# worst-case element mismatch


#: Direction projections ``s = a.r_n / |r_n|`` scanned per element.  These are the
#: values every ``Xi`` result is pinned to, so the grid keeps its construction from a
#: half grid and its negation (``s[::-1] == -s`` bit for bit); any other way to
#: make the same 2001 points rounds differently and moves results.
_XI_S_GRID = np.concatenate([-np.linspace(0.0, 1.0, 1001)[:0:-1], np.linspace(0.0, 1.0, 1001)])


def _xi_gap(
    r: float | np.ndarray, t: np.ndarray, n2: np.ndarray | float, k: float
) -> np.ndarray:
    """``|exp(-jkd)/d - exp(-jk(r-t))/r|``, ``t = a.r_n``, ``n2 = |r_n|^2``, ``d = |ra - r_n|``.

    Squared, it is ``((r-d)/(r d))^2 + 4 sin^2(k delta/2)/(r d)``, with ``r - d``
    and ``delta = d - (r - t)`` in ratio forms that do not cancel at large ``r``;
    their denominators stay positive because ``r > |r_n| >= |t|``.
    """
    w = n2 - t * t
    d = np.sqrt((r - t) ** 2 + w)
    delta = w / (d + r - t)
    rd = r * d
    amplitude = (2.0 * r * t - n2) / ((r + d) * rd)
    return np.sqrt(amplitude**2 + 4.0 * np.sin(0.5 * k * delta) ** 2 / rd)


def _xi_row_peaks(r: np.ndarray, a: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Maximum and its first index in each grid row ``gap(r_i, a_i s)`` over ``_XI_S_GRID``."""
    s = _XI_S_GRID
    step = _SCAN_PAIRS // s.size
    peak = np.empty(r.size)
    arg = np.empty(r.size, dtype=int)
    for i in range(0, r.size, step):
        rows = slice(i, i + step)
        ai = a[rows, None]
        g = _xi_gap(r[rows, None], ai * s, ai * ai, k)
        peak[rows] = np.max(g, axis=1)
        arg[rows] = np.argmax(g, axis=1)
    return peak, arg


def _xi_row_bound(r: np.ndarray, a: np.ndarray, k: float) -> np.ndarray:
    """Upper bound of ``gap(r, a s)`` over ``s`` in [-1, 1], for ``0 <= a < r``."""
    m = r - a
    rm = r * m
    return np.sqrt((a / rm) ** 2 + 4.0 * np.minimum(1.0, (k * a * a / (4.0 * m)) ** 2) / rm)


def _xi_offsets(a: np.ndarray, r: np.ndarray, k: float) -> np.ndarray:
    """Worst-case mismatch over the sphere at each radius of ``r``, from offsets ``a >= 0``.

    Element ``n`` at offset ``a = |r_n|`` sees a sphere direction only through
    ``t = s a`` with ``s`` in [-1, 1], so the inner maximization is a pass
    over the grid ``_XI_S_GRID``, then, for each leading element (grid peak
    at least 0.999 of the best), repeated 21-point re-gridding of the cell
    around its peak until the cell is narrower than 1e-9.  The result equals
    that full pass over every element bit for bit; two things make it
    cheaper.

    *Row bound.*  Let ``m = r - a > 0``.  Then ``d >= m``,
    ``|r - d| <= a`` and ``0 <= delta = (a^2 - t^2)/(d + r - t) <=
    a^2/(2m)``, so ``gap^2 <= a^2/(r m)^2 + 4 min(1, (k a^2/(4m))^2)/(r m)``
    (:func:`_xi_row_bound`).  The largest-``a`` row is evaluated at every
    radius; any other row whose bound, widened by 1e-9 for rounding, stays
    below 0.999 of that row's peak stays below 0.999 of the best, so it can
    neither hold the maximum nor enter the leading set, and is skipped.

    *Blocks.*  Radii are taken ``_SCAN_PAIRS // N`` at a time (``N`` counts
    every offset), so no temporary grows with ``r``.  Within a block, rows are
    evaluated ``_SCAN_PAIRS // 2001`` (4) at a time, so every grid temporary
    stays below glibc's 128 KiB mmap threshold, and the re-gridding steps of
    all leading ``(radius, element)`` pairs run together; a pair stops once
    its cell is narrower than 1e-9, so it sees the same cells as it would
    alone.
    """
    step = max(1, _SCAN_PAIRS // a.size)
    if r.size > step:
        return np.concatenate([_xi_offsets(a, r[i : i + step], k) for i in range(0, r.size, step)])
    s = _XI_S_GRID
    end = s.size - 1
    a = np.unique(a)  # equal offsets have equal rows and refinements
    top = a.size - 1
    peak = np.full((r.size, a.size), -np.inf)
    arg = np.zeros(peak.shape, dtype=int)
    # the widest row at every radius, then the rows whose bound can reach 0.999 of its peak
    peak[:, top], arg[:, top] = _xi_row_peaks(r, np.full(r.size, a[top]), k)
    keep = _xi_row_bound(r[:, None], a, k) * (1.0 + 1e-9) >= 0.999 * peak[:, top, None]
    keep[:, top] = False
    ib, ia = np.nonzero(keep)
    peak[ib, ia], arg[ib, ia] = _xi_row_peaks(r[ib], a[ia], k)
    best = np.max(peak, axis=1)

    # leading (radius, element) pairs
    ib, ia = np.nonzero((peak >= 0.999 * best[:, None]) & (best[:, None] > 0.0))
    j = arg[ib, ia]
    lo, hi = s[np.maximum(j - 1, 0)], s[np.minimum(j + 1, end)]
    rp, ap = r[ib, None], a[ia, None]
    live = np.nonzero(hi - lo >= 1e-9)[0]
    while live.size:
        cell = np.linspace(lo[live], hi[live], 21, axis=1)
        gc = _xi_gap(rp[live], ap[live] * cell, ap[live] * ap[live], k)
        i = np.argmax(gc, axis=1)
        at = np.arange(live.size)
        np.maximum.at(best, ib[live], gc[at, i])
        lo[live], hi[live] = cell[at, np.maximum(i - 1, 0)], cell[at, np.minimum(i + 1, 20)]
        live = live[hi[live] - lo[live] >= 1e-9]
    return best


def xi_worst_mismatch(geometry: ArrayGeometry, r: float | np.ndarray) -> float | np.ndarray:
    """Worst-case single-element spherical-wave mismatch at a radius, or an array of radii.

    ``Xi(r) = max_n max_{|a|=1} | exp(-jk|ra - r_n|)/|ra - r_n|
    - exp(-jk(r - a.r_n))/r |`` - the largest absolute error, over all
    observation directions and elements, of replacing an element's
    spherical wave by its far-field phase/amplitude approximation.
    Direction-independent by construction.  Units: one over length.  The
    result has the shape of ``r``; a block and its radii one at a time
    agree bit for bit.  Like the criteria, it evaluates ``r`` in blocks of
    ``_SCAN_PAIRS // N`` radii (:func:`_xi_offsets`), so its temporaries do
    not grow with ``r``.

    The maximum is exact for every geometry: ``|ra - r_n|^2 = r^2 - 2r a.r_n
    + |r_n|^2``, so element ``n``'s gap depends on ``a`` only through
    ``t = a.r_n``, which covers exactly ``[-|r_n|, |r_n|]`` over the unit
    sphere; ``Xi`` is a 1-D scan over the offsets ``|r_n|``.

    Raises
    ------
    ValueError
        If a radius is not finite or does not exceed the largest element
        offset (the exact wave would be singular on the sphere of that radius).
    """
    r = np.asarray(r, dtype=float)
    offsets = np.linalg.norm(geometry.positions, axis=1)
    max_offset = float(np.max(offsets))
    ok = (r > max_offset) & np.isfinite(r)
    if not np.all(ok):
        raise ValueError(
            f"xi needs finite r > max element offset ({max_offset:.6g}), "
            f"got r = {float(r[~ok][0])!r}"
        )
    return _xi_offsets(offsets, r.ravel(), WAVENUMBER).reshape(r.shape)[()]


# ---------------------------------------------------------------------------
# shared crossing search


def _log_grid(lo: float, hi: float, points_per_decade: int) -> np.ndarray:
    if points_per_decade < 100:
        raise ValueError(f"grid density must be >= 100 points/decade, got {points_per_decade}")
    try:
        return default_grid(lo, hi, points_per_decade)
    except ValueError as exc:
        raise ValueError(f"bad search bracket ({lo!r}, {hi!r}): {exc}") from exc


def _refine_crossing(
    scan: Callable[[float], float],
    lo: float,
    hi: float,
    threshold: float,
    mode: str,
) -> float:
    below = mode.endswith("below")
    ok_hi = mode.startswith("first")

    def ok(radius: float) -> bool:
        v = scan(radius)
        return v <= threshold if below else v >= threshold

    for _ in range(200):
        if hi / lo - 1.0 <= REFINE_REL_TOL:
            break
        mid = math.sqrt(lo * hi)
        if ok(mid) == ok_hi:
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


def _search_values(
    grid: np.ndarray,
    vals: np.ndarray,
    scan: Callable[[float], float],
    threshold: float,
    mode: str,
) -> BoundaryResult:
    if mode in ("first-below", "last-below"):
        ok = vals <= threshold
    elif mode in ("first-above", "last-above"):
        ok = vals >= threshold
    else:
        raise ValueError(f"unknown search mode {mode!r}")
    bracket = (float(grid[0]), float(grid[-1]))
    crossings = int(np.count_nonzero(ok[1:] != ok[:-1]))
    hits = np.nonzero(ok)[0]
    if hits.size == 0:
        return BoundaryResult(STATUS_NOT_FOUND, None, bracket, crossings)
    if mode.startswith("first"):
        i = int(hits[0])
        if i == 0:
            return BoundaryResult(STATUS_FOUND, bracket[0], bracket, crossings, degenerate=True)
        value = _refine_crossing(scan, float(grid[i - 1]), float(grid[i]), threshold, mode)
        return BoundaryResult(STATUS_FOUND, value, bracket, crossings)
    i = int(hits[-1])
    if i == grid.size - 1:
        return BoundaryResult(STATUS_UNBOUNDED, None, bracket, crossings)
    value = _refine_crossing(scan, float(grid[i]), float(grid[i + 1]), threshold, mode)
    return BoundaryResult(STATUS_FOUND, value, bracket, crossings)


def find_crossing(
    scan: Callable[[np.ndarray], np.ndarray],
    threshold: float,
    mode: str,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    points_per_decade: int = DEFAULT_POINTS_PER_DECADE,
) -> BoundaryResult:
    """Locate a threshold crossing of ``scan`` on a log grid.

    ``scan`` maps an array of radii to an array of values of the same
    shape; the grid pass calls it once on the whole grid and the bisection
    on single radii, so the two must agree.  The criteria bound their own
    memory by evaluating large arrays in blocks.  ``mode`` selects which crossing
    defines the boundary:
    ``"first-below"``/``"first-above"`` return the first grid entry into
    the target side (an infimum), ``"last-above"``/``"last-below"`` the
    last exit from it (a supremum).  A supremum still satisfied at the
    top of the bracket reports ``unbounded``; an empty target set reports
    ``not-found``.  Found values are bisection-refined to 1e-6 relative.
    """
    grid = _log_grid(bracket[0], bracket[1], points_per_decade)
    return _search_values(grid, scan(grid), scan, threshold, mode)


# ---------------------------------------------------------------------------
# boundary operations


def quasi_rayleigh(span: float) -> float:
    """Quasi-Rayleigh distance ``2 * span^2``, span and result in wavelengths."""
    if span < 0.0:
        raise ValueError(f"span must be nonnegative, got {span!r}")
    return 2.0 * span * span


def _xi_scan_samples(
    geometry: ArrayGeometry, bracket: tuple[float, float], points_per_decade: int
) -> tuple[np.ndarray, np.ndarray]:
    """Raw ``Xi`` samples on the search grid, read-only and cached per offset set."""
    offsets = np.sort(np.linalg.norm(geometry.positions, axis=1))
    lo = max(bracket[0], float(offsets[-1]) * (1.0 + 1e-6))
    return _xi_grid_samples(offsets.tobytes(), lo, bracket[1], points_per_decade)


#: fig4 needs one entry per geometry, shared by its six ``wc`` specs.  The key is
#: the sorted offsets ``|r_n|``, all that ``Xi`` depends on.
@functools.lru_cache(maxsize=4)
def _xi_grid_samples(
    offsets: bytes, lo: float, hi: float, points_per_decade: int
) -> tuple[np.ndarray, np.ndarray]:
    grid = _log_grid(lo, hi, points_per_decade)
    vals = _xi_offsets(np.frombuffer(offsets), grid, WAVENUMBER)
    grid.flags.writeable = vals.flags.writeable = False
    return grid, vals


def d_wc(
    geometry: ArrayGeometry,
    threshold: float = DEFAULT_THRESHOLDS["wc"],
    *,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    points_per_decade: int = DEFAULT_POINTS_PER_DECADE,
) -> BoundaryResult:
    """First radius past which the worst-case mismatch stays below threshold.

    The suffix supremum ``sup_{r' >= r} Xi(r')`` is formed over the
    search grid; truncating it at the top of the bracket is only valid
    when ``Xi`` is decaying there, so the final decade is checked for
    monotone decrease first.  Direction-independent.

    Raises
    ------
    TailNotMonotone
        If ``Xi`` is not decreasing over the final decade of the bracket.
    """
    if not threshold > 0.0:
        raise ValueError(f"wc threshold must be positive, got {threshold!r}")
    grid, vals = _xi_scan_samples(geometry, bracket, points_per_decade)

    tail = vals[grid >= grid[-1] / 10.0]
    slack = 1e-9 * np.maximum(tail[:-1], tail[1:])
    if np.any(np.diff(tail) > slack):
        raise TailNotMonotone(
            "the worst-case mismatch is not decreasing over the final decade; "
            "the suffix supremum cannot be truncated at this bracket"
        )

    envelope = np.maximum.accumulate(vals[::-1])[::-1]

    def env_scan(r: float) -> float:
        # bisection stays inside one grid cell, whose upper edge holds the
        # supremum of every sample beyond r
        return max(xi_worst_mismatch(geometry, r), float(envelope[np.searchsorted(grid, r)]))

    return _search_values(
        grid, envelope, env_scan, threshold * WC_THRESHOLD_SCALE, "first-below"
    )


#: Scanned criterion and crossing mode of each searched boundary kind; a
#: criterion takes ``(geometry, r, direction)``.
_SCANS = {
    "ar": (phi_excess, "first-below"),
    "up": (gamma_uniform_power, "first-above"),
    "en": (lambda geo, r, d: psi_gain_ratio(geo, r, d, d), "last-above"),
    "ep": (upsilon_power, "last-below"),
}


def evaluate_boundary(
    geometry: ArrayGeometry,
    spec: BoundarySpec,
    direction: Direction,
    *,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    points_per_decade: int = DEFAULT_POINTS_PER_DECADE,
) -> BoundaryResult:
    """Evaluate one :class:`BoundarySpec` for a geometry and direction."""
    if spec.kind == "qr":
        value = quasi_rayleigh(geometry.span)
        return BoundaryResult(
            STATUS_FOUND, value, (0.0, math.inf), 0, degenerate=geometry.span == 0.0
        )
    if spec.kind == "wc":
        return d_wc(
            geometry, spec.threshold, bracket=bracket, points_per_decade=points_per_decade
        )
    criterion, mode = _SCANS[spec.kind]

    def scan(r):
        return criterion(geometry, r, direction)

    return find_crossing(scan, spec.threshold, mode, bracket, points_per_decade)
