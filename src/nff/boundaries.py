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
    ``Xi`` stays below a threshold everywhere (suffix supremum).  ``Xi``
    depends only on the largest element offset and is one 1-D
    maximization per radius.

All searches share a log-grid pass over one fixed bracket plus geometric
bisection, refined to 1e-6 relative.  The bisection evaluates the midpoints of its
next few levels in one call, so the path it takes sees the bits a walk one radius at
a time would.  A table's grid pass is one walk over the line per direction for all of
``ar``, ``up``, ``en`` and ``ep``, and one ``Xi`` scan per call for ``wc``.  A search
reads nothing of a grid pass but the side of each of its thresholds at each radius, so
the line kinds' grid values are screened and exact on those sides only:

* each radius first gets, per kind, an interval that provably holds the walk's value,
  from the line's extreme elements at O(1) cost (:func:`_row_bounds`); where every
  threshold of a kind lies outside it, the radius takes its lower end.  This decides all
  but a few radii around each crossing for ``ar`` and ``up``, ``ep``'s far field and
  ``en``'s far zone;
* the radii left open are walked once, and there the ``en`` values are taken with
  float32 ``cos`` and ``sin`` of the exactly reduced phase, whose error is proven below
  ``E = 1e-5`` of ``sum_n 1/d_n``, and recomputed in float64 at every radius that could
  then lie on either side of one of the table's ``en`` thresholds.

So crossing counts, statuses, degenerate flags and the bisected values (the bisection
stays exact) are those of the float64 walk.  Errors are decided per radius before any walk
(:func:`_line_errors`), so a kind fails with its first failing radius's error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .core import (
    WAVENUMBER, Direction, _blockwise, _line_constants, _line_distance, _line_excess, unit_vector
)
from .metric import _ON_REACH, _on_element, default_grid
from .sources import ArrayGeometry, _singularity

#: Search bracket (wavelengths) and log-grid density of every search.
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
            if th is not None and not math.isclose(th, AR_THRESHOLD, rel_tol=1e-12):
                raise ValueError("the ar boundary threshold is fixed at pi/8")
            th = AR_THRESHOLD
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


#: Error bound of :func:`_screened_steering`, relative to ``sum_n 1/d_n``.
_PSI_SCREEN_ERROR = 1e-5


def _steering(inv: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """``Psi``'s denominator ``|sum_n exp(-j k delta_n) / d_n|`` per row of ``inv = 1/d`` and
    the excess paths ``delta``, in float64."""
    phase = WAVENUMBER * delta
    return np.hypot(np.sum(np.cos(phase) * inv, axis=-1), np.sum(np.sin(phase) * inv, axis=-1))


def _screened_steering(inv: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """:func:`_steering` within ``E S``, ``E = _PSI_SCREEN_ERROR`` and ``S = sum_n inv_n``, on a
    line whose largest element offset ``a`` is at most 1e6 wavelengths and whose ``N`` is at
    most 1e8.

    The phase is reduced exactly: ``m = delta - rint(delta)`` is exact, and ``k = 2 pi`` per
    wavelength, so ``k m`` in ``[-pi, pi]`` is ``k delta`` less whole turns.  Its ``cos`` and
    ``sin`` are taken in float32 and summed against ``inv`` in float64.  Per term and unit of
    ``inv``, the float32 rounding of ``k m`` costs at most ``2^-23`` (``|k m| < 4``), and
    float32 ``cos`` and ``sin`` within 4 ulp on ``[-pi, pi]`` (numpy's SIMD loops stay within
    1.5, glibc's within 1) at most ``2^-21``; over the modulus that is ``sqrt(2) (2^-23 +
    2^-21) S``, 8.5e-7 S.  On the float64 side, the rounding of ``k delta`` and the whole
    turns times the rounding of ``k`` cost at most ``2 pi 2^-52 (2 a + 1)``, as ``0 <= delta
    <= 2 a``, and the sums and ``hypot`` at most ``2 (N + 2) 2^-52``: 5e-8 together.  So
    ``E`` = 1e-5 bounds the error more than tenfold.
    """
    turns = np.rint(delta)
    x = np.multiply(np.subtract(delta, turns, out=turns), WAVENUMBER, out=turns)
    x = x.astype(np.float32)
    return np.hypot(np.einsum("...n,...n->...", np.cos(x), inv),
                    np.einsum("...n,...n->...", np.sin(x), inv))


class _Line(NamedTuple):
    """A geometry's test line along a direction, read once for every walk over it: ``t_n``
    and ``w_n`` (:func:`nff.core._line_constants`), the boresight projection ``along`` of
    ``rhat`` and ``offsets`` of the elements, ``up``'s, with their extremes; for the row
    bounds of a grid pass (:func:`_row_bounds`), the extents of ``t`` and ``w`` and the
    ``witnesses``, the elements where ``t`` or ``w`` is least or greatest; and ``on_lo`` and
    ``on_hi``, outside which no radius lies on an element (:func:`_line_errors`)."""

    geometry: ArrayGeometry
    t: np.ndarray
    w: np.ndarray
    along: float
    offsets: np.ndarray
    o_lo: float
    o_hi: float
    t_lo: float
    t_hi: float
    w_lo: float
    w_hi: float
    witnesses: list[int]
    on_lo: float
    on_hi: float


def _test_line(geometry: ArrayGeometry, direction: Direction) -> _Line:
    """The :class:`_Line` of ``geometry`` along ``direction``."""
    rhat = unit_vector(direction)
    t, w = _line_constants(geometry.positions, rhat)
    nhat = geometry.boresight  # (r rhat - r_n) . nhat, per radius and element
    offsets = geometry.positions @ nhat
    witnesses = sorted({int(i) for i in (np.argmin(t), np.argmax(t), np.argmin(w), np.argmax(w))})
    on = t[w < _ON_REACH * _ON_REACH]  # the elements a radius may lie on (metric._on_element)
    return _Line(geometry, t, w, rhat @ nhat, offsets, offsets.min(), offsets.max(),
                 t.min(), t.max(), w.min(), w.max(), witnesses,
                 on.min(initial=np.inf) - _ON_REACH, on.max(initial=-np.inf) + _ON_REACH)


def _line_errors(line: _Line, kinds: Sequence[str], r: np.ndarray) -> dict[str, ValueError]:
    """Of each of ``kinds`` that fails at a radius of ``r``, the error of its first failing
    radius in ``r``'s flat order.  Every kind but ``ar`` fails where a ``d_n`` that
    :func:`_line_walk` would form is below :data:`~nff.sources.SINGULARITY_RADIUS`
    (:func:`nff.metric._on_element`), ``up`` also where its boresight projections change sign,
    read at their extremes as the walk reads them; at one radius the element comes first."""
    flat = r.ravel()
    errors, first = {}, flat.size
    if (set(kinds) - {"ar"} and flat.size
            and not (flat.max() < line.on_lo or flat.min() > line.on_hi)):
        order = np.argsort(flat)
        if (on := order[_on_element(line.t, line.w, flat[order])]).size:
            first = int(on.min())
    if "up" in kinds and line.o_lo < line.o_hi:  # with one offset, no sign can change
        x, tol = flat * line.along, 1e-9 * np.maximum(1.0, flat)
        mixed = np.flatnonzero((x - line.o_lo > tol) & (x - line.o_hi < -tol))
        if mixed.size and mixed[0] < first:
            errors["up"] = UndefinedProjection("boresight projections change sign along the "
                                               "element set; the uniform-power ratio is "
                                               "undefined here")
    if first < flat.size:
        errors |= {kind: _singularity(flat[first]) for kind in kinds
                   if kind != "ar" and kind not in errors}
    return errors


def _line_walk(
    line: _Line, kinds: Sequence[str], r: np.ndarray, en_thresholds: Sequence[float] = ()
) -> dict[str, np.ndarray]:
    """The criteria ``kinds`` (of ``ar``, ``up``, ``en``, ``ep``) at radii ``r`` on ``line``,
    in one walk: element ``n`` enters only through ``t_n`` and ``w_n``.

    Each block of ``_SCAN_PAIRS // N`` radii (:func:`nff.core._blockwise`) forms ``d`` once,
    and ``delta`` only for ``ar`` or ``en``; ``up`` reads its projections ``x - o_n`` at their
    extremes only, and ``d`` too when every element has one offset ``o``.  Values are
    elementwise in ``r``, so a radius gets the bits it gets alone, whichever kinds share the
    walk.  The walk computes values only: a kind is walked where :func:`_line_errors` finds
    it defined.

    Given ``en_thresholds``, ``en``'s values are exact on the side of each of them only, and
    a search reads nothing else of a grid pass.  With ``Psi = S / den``, ``S = sum_n 1/d_n``,
    a row's ``den~`` (:func:`_screened_steering`) is within ``E S`` of ``den``, ``E`` being
    :data:`_PSI_SCREEN_ERROR`, so a row with ``|S - tau den~| > tau E S`` for every threshold
    ``tau`` lies on the side of each that ``S / den~`` does; any other row is recomputed in
    float64 (:func:`_steering`), as without thresholds.
    """
    geometry, t, w, along, offsets, o_lo, o_hi = line[:7]  # the fields the walk reads
    screen = np.asarray(en_thresholds, float)[:, None]
    excess = "ar" in kinds or "en" in kinds

    def block(r):
        radii = r[..., None]
        d, delta = _line_excess(radii, t, w) if excess else (_line_distance(radii - t, w), None)
        vals = []
        for kind in kinds:
            if kind == "ar":
                v = np.max(delta, axis=-1) * WAVENUMBER
            elif kind == "up":
                x = r * along
                top, low = x - o_lo, x - o_hi  # the extremes of x - offsets
                flat = np.maximum(top, -low) <= 1e-9 * np.maximum(1.0, r)
                if o_lo == o_hi:  # one numerator per radius, so g's extremes are at d's
                    # stacked, as a numpy scalar's ** is libm's pow, not the array's
                    ext = np.stack([np.min(d, axis=-1), np.max(d, axis=-1)]) ** 3
                    g_max, g_min = np.where(flat, 1.0, np.abs(top)) / ext
                else:
                    g = np.where(flat[..., None], 1.0,
                                 np.abs(np.subtract.outer(x, offsets))) / d**3
                    g_max, g_min = np.max(g, axis=-1), np.min(g, axis=-1)
                v = np.divide(g_min, g_max, out=np.zeros_like(g_max), where=g_max != 0.0)
            elif kind == "en":
                inv = 1.0 / d
                total = np.sum(inv, axis=-1)
                if screen.size:
                    den = _screened_steering(inv, delta)
                    near = np.abs(total - screen * den) <= screen * _PSI_SCREEN_ERROR * total
                    if (rows := np.any(near, axis=0)).any():
                        den[rows] = _steering(inv[rows], delta[rows])
                else:
                    den = _steering(inv, delta)
                with np.errstate(divide="ignore"):
                    v = np.maximum(total / den, 1.0)
            else:
                v = np.square(r) / geometry.n * np.sum(1.0 / (d * d), axis=-1)
            vals.append(v)
        return tuple(vals) if len(vals) > 1 else vals[0]

    vals = _blockwise(block, geometry.n, r, (float,) * len(kinds))
    return dict(zip(kinds, (vals,) if len(kinds) == 1 else vals))


#: Relative widening of every row bound (:func:`_row_bounds`), per element of the line plus 64.
_ROW_SLACK = 2.0**-50


def _row_bounds(line: _Line, kinds: Sequence[str], r: np.ndarray) -> dict[str, tuple]:
    """Of each of ``kinds``, an interval ``(lo, hi)`` per radius of ``r`` that holds the value
    :func:`_line_walk` gives there, from the line's extents and witnesses at O(1) per radius,
    where :func:`_line_errors` finds the kind defined.

    Let ``s_n = r - t_n``, the walk's float, and ``s_min = r - t_hi``, its least.  ``near``
    bounds every ``|s_n|`` from below (``s_min`` past ``t_hi``, ``t_lo - r`` short of
    ``t_lo``, else 0), ``far`` is the greatest, and ``D_lo^2 = near^2 + w_lo <= d_n^2 <=
    far^2 + w_hi = D_hi^2``.  Where ``s_min > 0``, ``d_n >= s_n`` gives ``0 <= delta_n = w_n /
    (d_n + s_n) <= w_hi / (2 s_min)``.  So:

    * ``ar``: ``Phi = k max_n delta_n`` is at least the witnesses' own ``k delta`` and, where
      ``s_min > 0``, at most ``k w_hi / (2 s_min)``.
    * ``up``: ``Gamma = min_n g_n / max_n g_n`` is at most the witnesses' own ratio.  The
      numerators ``|x - o_n|`` lie between the walk's projection extremes ``P_lo`` and
      ``P_hi`` (``P_lo`` is 0 where they straddle 0, and both are 1 on an in-plane row), so
      ``Gamma >= (P_lo / P_hi) (D_lo / D_hi)^3``.
    * ``ep``: ``Upsilon``, the mean of ``r^2 / d_n^2``, lies in ``[r^2 / D_hi^2, r^2 /
      D_lo^2]``.
    * ``en``: every phase ``k delta_n`` lies in ``[0, T]``, ``T = k w_hi / (2 s_min)``, so
      the steering sum, turned by ``T / 2``, has a real part of at least ``cos(T / 2) S``:
      ``1 <= Psi <= 1 / cos(T / 2)`` where ``T / 2 < pi / 2``.  The walk's ``S`` and
      denominator are within ``E S`` of these, ``E`` being :data:`_PSI_SCREEN_ERROR` (the
      float64 error is below 5e-8 S on a line that :func:`_kind_scans` screens), so ``hi =
      (1 + E) / (cos(T / 2) - E)``, and only where ``cos(T / 2) > 2 E``.

    These hold for the walk's float inputs ``r``, ``t_n`` and ``w_n``; the walk forms each
    value in a few roundings per element and a sum of ``N`` terms (``ep``, ``en``), at most
    ``(N + 16) 2^-52`` relative with numpy's ``pow`` within 4 ulp, and the bounds are formed
    in fewer.  Every interval is widened by ``(N + 64)`` :data:`_ROW_SLACK`, at least four
    times the two together.
    """
    s_min = r - line.t_hi
    ahead = s_min > 0.0
    if "up" in kinds or "ep" in kinds:
        d_lo2 = np.square(np.maximum(np.maximum(s_min, line.t_lo - r), 0.0)) + line.w_lo
        d_hi2 = np.square(np.maximum(np.abs(r - line.t_lo), np.abs(s_min))) + line.w_hi
    slack = (line.geometry.n + 64) * _ROW_SLACK
    bounds = {}
    for kind in kinds:  # the witnesses' planes are formed one at a time, to keep memory small
        if kind == "ar":
            deltas = (_line_excess(r, line.t[i], line.w[i])[1] for i in line.witnesses)
            lo = functools.reduce(np.maximum, deltas) * WAVENUMBER
            hi = np.divide(line.w_hi * WAVENUMBER, 2.0 * s_min, out=np.full(r.shape, np.inf),
                           where=ahead)
        elif kind == "up":
            dists = (_line_distance(r - line.t[i], line.w[i]) for i in line.witnesses)
            lo, hi = _gamma_bounds(line, r, dists, d_lo2 / d_hi2)
        elif kind == "en":
            half = np.divide(line.w_hi * WAVENUMBER, 4.0 * s_min, out=np.full(r.shape, np.inf),
                             where=ahead)
            cos = np.cos(np.minimum(half, 0.5 * math.pi, out=half), out=half)
            lo = np.ones(r.shape)
            hi = np.divide(1.0 + _PSI_SCREEN_ERROR, cos - _PSI_SCREEN_ERROR,
                           out=np.full(r.shape, np.inf), where=cos > 2.0 * _PSI_SCREEN_ERROR)
        else:
            r2 = r * r
            with np.errstate(divide="ignore"):
                lo, hi = r2 / d_hi2, r2 / d_lo2
        bounds[kind] = lo * (1.0 - slack), hi * (1.0 + slack)
    return bounds


def _gamma_bounds(line: _Line, r: np.ndarray, dists: Iterable, ratio: np.ndarray) -> tuple:
    """``up``'s interval of :func:`_row_bounds`, from the witnesses' distances ``dists`` and
    ``ratio = D_lo^2 / D_hi^2``."""
    x = r * line.along
    top, low = x - line.o_lo, x - line.o_hi
    flat = np.maximum(top, -low) <= 1e-9 * np.maximum(1.0, r)
    g = (np.where(flat, 1.0, np.abs(x - line.offsets[i])) / d**3
         for i, d in zip(line.witnesses, dists))
    g_lo = next(g)
    g_hi = g_lo.copy()
    for g_i in g:
        np.minimum(g_lo, g_i, out=g_lo)
        np.maximum(g_hi, g_i, out=g_hi)
    hi = np.divide(g_lo, g_hi, out=np.ones(r.shape), where=g_hi > 0.0)
    p_lo = np.where(flat, 1.0, np.where(low >= 0.0, low, np.maximum(-top, 0.0)))
    p_hi = np.where(flat, 1.0, np.maximum(top, -low))
    return p_lo / p_hi * (ratio * np.sqrt(ratio)), hi


def _grid_pass(line: _Line, kinds: Sequence[str], r: np.ndarray,
               thresholds: dict[str, Sequence[float]]) -> dict[str, np.ndarray | ValueError]:
    """Of each of ``kinds``, its :func:`_line_errors` error on the grid ``r``, or else its
    :func:`_line_walk` values there, exact on the side of each of its ``thresholds`` only,
    which is all a search reads of them.

    A radius where every threshold of a kind lies outside its :func:`_row_bounds` interval
    takes the interval's ``lo``, on the side of each threshold that the walk's value is on.
    The radii left open for any kind are walked once, in grid order, and ``en``'s values
    there screened in float32 as :func:`_line_walk` does.  With no thresholds (past the
    screens' proven range), the whole grid is walked in float64.
    """
    errors = _line_errors(line, kinds, r)
    kinds = [kind for kind in kinds if kind not in errors]
    if not thresholds:
        return (_line_walk(line, kinds, r) if kinds else {}) | errors

    vals, rows = {}, np.zeros(r.shape, bool)
    for kind, (lo, hi) in _row_bounds(line, kinds, r).items():
        taus = np.asarray(thresholds[kind])[:, None]
        rows |= np.any((lo <= taus) & (taus <= hi), axis=0)
        vals[kind] = lo
    if rows.any():
        for kind, walked in _line_walk(line, kinds, r[rows], thresholds.get("en", ())).items():
            vals[kind][rows] = walked
    return vals | errors


def _criterion(kind: str, geometry: ArrayGeometry, r, direction: Direction, line: _Line | None):
    """One criterion at ``r``, the one-kind :func:`_line_walk` on ``line``, or on the line of
    ``geometry`` along ``direction`` if it is ``None``, after raising its :func:`_line_errors`."""
    r = np.asarray(r, dtype=float)
    line = _test_line(geometry, direction) if line is None else line
    if errors := _line_errors(line, (kind,), r):
        raise errors[kind]
    return _line_walk(line, (kind,), r)[kind][()]


def phi_excess(
    geometry: ArrayGeometry, r: float | np.ndarray, direction: Direction, *, _line=None
) -> float | np.ndarray:
    """Worst-case element phase excess, radians.

    ``Phi = max_n k * (|r - r_n| - r + rhat . r_n)``, from the excess paths of
    :func:`nff.core._line_excess`, which do not cancel at large radii.  Nonnegative
    by the triangle inequality.  A radius on an element is allowed: its excess is 0
    there.
    """
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError("phase excess is undefined at r = 0")
    return _criterion("ar", geometry, r, direction, _line)


def gamma_uniform_power(
    geometry: ArrayGeometry, r: float | np.ndarray, direction: Direction, *, _line=None
) -> float | np.ndarray:
    """Uniformity ratio of per-element projected power factors.

    ``Gamma = min_n g_n / max_n g_n`` with
    ``g_n = (r - r_n) . nhat / |r - r_n|^3``.  When the projection onto
    the boresight vanishes identically (a test line inside the array
    plane), the common projection factor cancels and the ratio is
    evaluated with ``g_n = 1 / |r - r_n|^3``.  When every element has the
    same offset along ``nhat`` (a planar array whose boresight is its
    normal), ``g_n`` shares its numerator, so the ratio is taken from the
    nearest and farthest element alone, with the bits of the full form.

    Raises
    ------
    UndefinedProjection
        If the projections carry mixed signs, where the ratio loses
        meaning.
    """
    return _criterion("up", geometry, r, direction, _line)


def psi_gain_ratio(
    geometry: ArrayGeometry, r: float | np.ndarray, direction: Direction, *, _line=None
) -> float | np.ndarray:
    """Focusing-over-steering array gain ratio at radii along ``direction``.

    ``Psi = |h . w_focus| / |h . w_steer|`` with channel entries
    ``h_n = exp(-j k |r - r_n|) / |r - r_n|``, focusing weights matched to
    the point (so the numerator is ``sum_n 1 / |r - r_n|``) and steering
    weights ``exp(-j k rhat . r_n)`` toward the line's own direction.  With
    the common ``exp(-j k r)`` factored out, the denominator is
    ``|sum_n exp(-j k delta_n) / d_n|`` on the excess paths of
    :func:`nff.core._line_excess`, so no phase is formed from a whole
    distance.  At least 1 by the triangle inequality (the focusing weights
    align every term); a rounding below it reads 1.  Always float64: only a table's grid
    pass screens ``Psi`` in float32 (:func:`_line_walk`).
    """
    return _criterion("en", geometry, r, direction, _line)


def upsilon_power(
    geometry: ArrayGeometry, r: float | np.ndarray, direction: Direction, *, _line=None
) -> float | np.ndarray:
    """Mean inverse-square element distance, normalized by ``1/r^2``.

    ``Upsilon = (r^2 / N) * sum_n 1 / |r - r_n|^2``; equals 1 when every
    element sits at the reference point.
    """
    return _criterion("ep", geometry, r, direction, _line)


# ---------------------------------------------------------------------------
# worst-case element mismatch


def _xi(a: float, r: np.ndarray, k: float) -> np.ndarray:
    """Worst-case mismatch at radii ``r > a`` of an array whose largest element offset is ``a``.

    Element ``n`` sees a direction ``ahat`` only through ``t = ahat.r_n``, which covers
    ``[-|r_n|, |r_n|]``, and ``gap^2 = (1/d - 1/r)^2 + 4 sin^2(k delta/2)/(r d)`` with
    ``d = |r ahat - r_n|`` and the excess path ``delta = d - r + t``.  Along a row, ``t =
    delta +- q`` and ``d = r -+ q`` with ``q = sqrt(|r_n|^2 - 2 r delta)``.  Three
    comparisons, each at the same ``delta`` and so the same ``sin^2``, place the supremum:

    * the outer branch ``d = r - q`` has the smaller ``d``, and both terms grow as ``d``
      falls;
    * the widest row, ``|r_n| = a``, has the largest ``q``, so the smallest ``d``;
    * ``sin^2(k delta/2)`` has period ``2 pi/k`` and is symmetric about ``pi/k``, and ``d``
      grows with ``delta`` on the outer branch, so ``delta <= pi/k`` holds the supremum.

    So ``Xi(r)`` is the maximum over ``q`` in ``[sqrt(max(a^2 - 2 pi r/k, 0)), a]`` of the
    gap at ``d = r - q`` and ``delta = (a - q)(a + q)/(2r)``, where neither term cancels.
    It is the largest sample of a 21-point cell regridded around its peak ten times; each
    cell is at most a tenth of the last, so the final one is narrower than ``1e-9 a``.
    Radii are taken ``_SCAN_PAIRS // 21`` at a time (:func:`nff.core._blockwise`), and
    every radius takes the same steps, so a block and its radii one at a time agree bit
    for bit.
    """

    def lobe(r):
        lo = np.sqrt(np.maximum(a * a - 2.0 * math.pi * r / k, 0.0))
        hi = np.full(r.shape, a)
        best = np.zeros(r.shape)
        at = np.arange(r.size)
        r = r[:, None]
        for _ in range(10):
            q = np.linspace(lo, hi, 21, axis=1)
            rd = r * (r - q)
            g2 = (q / rd) ** 2 + 4.0 * np.sin(0.25 * k * (a - q) * (a + q) / r) ** 2 / rd
            i = np.argmax(g2, axis=1)
            best = np.maximum(best, g2[at, i])
            lo, hi = q[at, np.maximum(i - 1, 0)], q[at, np.minimum(i + 1, 20)]
        return np.sqrt(best)

    return _blockwise(lobe, 21, r)


def _max_offset(geometry: ArrayGeometry) -> float:
    """The largest element offset ``max_n |r_n|``, all that ``Xi`` reads of a geometry."""
    return float(np.max(np.linalg.norm(geometry.positions, axis=1)))


def xi_worst_mismatch(geometry: ArrayGeometry, r: float | np.ndarray) -> float | np.ndarray:
    """Worst-case single-element spherical-wave mismatch at a radius, or an array of radii.

    ``Xi(r) = max_n max_{|ahat|=1} | exp(-jk|r ahat - r_n|)/|r ahat - r_n|
    - exp(-jk(r - ahat.r_n))/r |`` - the largest absolute error, over all
    observation directions and elements, of replacing an element's
    spherical wave by its far-field phase/amplitude approximation.
    Direction-independent by construction.  Units: one over length.  The
    result has the shape of ``r``; a block and its radii one at a time
    agree bit for bit, and the temporaries do not grow with ``r``.

    The maximum is exact for every geometry and depends only on the
    largest element offset ``a = max_n |r_n|``: it lies on the widest
    row, on the near side of the sphere, within the first half period of
    the phase error, where it is a 1-D maximization (:func:`_xi`).

    Raises
    ------
    ValueError
        If a radius is not finite or does not exceed the largest element
        offset (the exact wave would be singular on the sphere of that radius).
    """
    r = np.asarray(r, dtype=float)
    max_offset = _max_offset(geometry)
    ok = (r > max_offset) & np.isfinite(r)
    if not np.all(ok):
        raise ValueError(
            f"xi needs finite r > max element offset ({max_offset:.6g}), "
            f"got r = {float(r[~ok][0])!r}"
        )
    return _xi(max_offset, r.ravel(), WAVENUMBER).reshape(r.shape)[()]


# ---------------------------------------------------------------------------
# shared crossing search


#: Radius-element pairs one bisection call may evaluate (an ``Xi`` radius counts 21), and
#: the most levels it may look ahead: per level, a call's cost at N = 1024 rises past two
#: levels, while at N = 64 it keeps falling up to four.
_REFINE_PAIRS = 2048
_REFINE_LEVELS = 4


def _levels(width: int) -> int:
    """Bisection levels per scan call: the most, up to :data:`_REFINE_LEVELS`, whose
    ``2^L - 1`` radii of ``width`` pairs each stay within :data:`_REFINE_PAIRS`; at least 1."""
    levels = _REFINE_LEVELS
    while levels > 1 and (2**levels - 1) * width > _REFINE_PAIRS:
        levels -= 1
    return levels


def _midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """The ``2^levels - 1`` midpoints the next ``levels`` steps of a geometric bisection of
    ``(lo, hi)`` can visit, in heap order: node ``i`` splits at ``sqrt(lo * hi)`` of its own
    endpoints, and its children ``2i + 1`` and ``2i + 2`` bisect its lower and upper half.
    """
    brackets, mids = [(lo, hi)], []
    for _ in range(levels):
        halves = []
        for a, b in brackets:
            mids.append(math.sqrt(a * b))
            halves += [(a, mids[-1]), (mids[-1], b)]
        brackets = halves
    return mids


def _bisect(side: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, first: bool,
            levels: int) -> float:
    steps, mids, i = 0, [], 0
    while steps < 200 and hi / lo - 1.0 > REFINE_REL_TOL:
        if i >= len(mids):
            left, ratio = 0, hi / lo  # the steps still to go: the last call looks no further
            while ratio - 1.0 > REFINE_REL_TOL:
                left, ratio = left + 1, math.sqrt(ratio)
            mids = _midpoints(lo, hi, min(levels, left))
            ok, i = side(np.array(mids)).tolist(), 0
        if ok[i] == first:
            hi, i = mids[i], 2 * i + 1
        else:
            lo, i = mids[i], 2 * i + 2
        steps += 1
    return math.sqrt(lo * hi)


def _refine_crossing(side: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                     first: bool, levels: int) -> float:
    """Geometric bisection of ``(lo, hi)`` to :data:`REFINE_REL_TOL`, ``levels`` steps per
    call of ``side``.

    Each step halves the bracket at ``sqrt(lo * hi)`` and keeps the lower half where
    ``side(mid) == first``.  A call evaluates every midpoint the next ``levels`` steps can
    visit (:func:`_midpoints`), each from the endpoints the step would hold, so the path
    taken sees the bits that one radius at a time would.  A speculative midpoint may raise
    where the path never goes (on an element, say); then the walk is rerun one radius at a
    time, so it returns, or raises, what that walk does.
    """
    try:
        return _bisect(side, lo, hi, first, levels)
    except ValueError:
        if levels == 1:
            raise
        return _bisect(side, lo, hi, first, 1)


def _search_values(grid: np.ndarray, vals: np.ndarray, scan: Callable[[np.ndarray], np.ndarray],
                   levels: int, threshold: float, first: bool, below: bool) -> BoundaryResult:
    """Where ``vals`` (``scan`` on ``grid``) first enters the side ``v <= threshold``
    (``>=`` unless ``below``), or with ``first`` false last leaves it, bisected with
    ``levels`` levels per call of ``scan`` (:func:`_refine_crossing`); ``unbounded`` if that
    side holds at the top of the grid.
    """

    def side(v):
        return v <= threshold if below else v >= threshold

    ok = side(vals)
    bracket = (float(grid[0]), float(grid[-1]))
    crossings = int(np.count_nonzero(ok[1:] != ok[:-1]))
    hits = np.nonzero(ok)[0]
    if hits.size == 0:
        return BoundaryResult(STATUS_NOT_FOUND, None, bracket, crossings)
    if first:
        i = int(hits[0])
        if i == 0:
            return BoundaryResult(STATUS_FOUND, bracket[0], bracket, crossings, degenerate=True)
        lo, hi = float(grid[i - 1]), float(grid[i])
    else:
        i = int(hits[-1])
        if i == grid.size - 1:
            return BoundaryResult(STATUS_UNBOUNDED, None, bracket, crossings)
        lo, hi = float(grid[i]), float(grid[i + 1])
    value = _refine_crossing(lambda r: side(scan(r)), lo, hi, first, levels)
    return BoundaryResult(STATUS_FOUND, value, bracket, crossings)


# ---------------------------------------------------------------------------
# boundary operations


def quasi_rayleigh(span: float) -> float:
    """Quasi-Rayleigh distance ``2 * span^2``, span and result in wavelengths."""
    if span < 0.0:
        raise ValueError(f"span must be nonnegative, got {span!r}")
    return 2.0 * span * span


#: The ``(first, below)`` crossing of each searched kind.
_MODES = {"ar": (True, True), "up": (True, False), "en": (False, False), "ep": (False, True),
          "wc": (True, True)}

#: The criterion of each kind on a test line, the scan its bisection calls; given ``_line``,
#: the :class:`_Line` of its geometry and direction, a criterion does not place it again.
_CRITERIA = {"ar": phi_excess, "up": gamma_uniform_power, "en": psi_gain_ratio,
             "ep": upsilon_power}


def _kind_scans(
    geometry: ArrayGeometry, kinds: Sequence[str], direction: Direction,
    thresholds: dict[str, Sequence[float]],
) -> dict[str, tuple | ValueError]:
    """Of each searched kind in ``kinds``, the search grid, the values there, the scan the
    bisection calls on arrays of radii and the levels it looks ahead per call
    (:func:`_levels`); or the error its grid pass holds.

    The line kinds share one :func:`_test_line` and one :func:`_grid_pass` over the grid,
    whose values are exact on the side of each of the kind's ``thresholds`` only, unless the
    line is past the bounds of :func:`_screened_steering`; their bisection scans are exact.
    ``wc``, scanned alone, reads only the largest element offset ``a``: its grid starts just
    past ``a``, and its values are the suffix supremum ``sup_{r' >= r} Xi(r')``.  Truncating
    that at the top of the bracket is only valid when ``Xi`` is decaying there, so the final
    decade is checked for monotone decrease first (:class:`TailNotMonotone`, raised).
    """
    if kinds != ("wc",):
        grid = default_grid(*DEFAULT_BRACKET, DEFAULT_POINTS_PER_DECADE)
        line = _test_line(geometry, direction)
        if geometry.n > 10**8 or _max_offset(geometry) > DEFAULT_BRACKET[1]:
            thresholds = {}  # past these, the screens' error bounds are not proven
        scans = _grid_pass(line, kinds, grid, thresholds)
        for kind, vals in scans.items():
            if not isinstance(vals, ValueError):
                scan = functools.partial(_CRITERIA[kind], geometry, direction=direction,
                                         _line=line)
                scans[kind] = grid, vals, scan, _levels(geometry.n)
        return scans
    a = _max_offset(geometry)
    lo, hi = max(DEFAULT_BRACKET[0], a * (1.0 + 1e-6)), DEFAULT_BRACKET[1]
    if not lo < hi:
        raise ValueError(
            f"the largest element offset, {a!r} wavelengths, reaches past the top of the "
            f"search bracket, {hi!r} wavelengths: wc has no radius to scan"
        )
    grid = default_grid(lo, hi, DEFAULT_POINTS_PER_DECADE)
    vals = _xi(a, grid, WAVENUMBER)
    tail = vals[grid >= grid[-1] / 10.0]
    slack = 1e-9 * np.maximum(tail[:-1], tail[1:])
    if np.any(np.diff(tail) > slack):
        raise TailNotMonotone(
            "the worst-case mismatch is not decreasing over the final decade; "
            "the suffix supremum cannot be truncated at this bracket"
        )
    envelope = np.maximum.accumulate(vals[::-1])[::-1]

    def env_scan(r: np.ndarray) -> np.ndarray:
        # bisection stays inside one grid cell, whose upper edge holds the
        # supremum of every sample beyond r
        return np.maximum(_xi(a, r, WAVENUMBER), envelope[np.searchsorted(grid, r)])

    return {"wc": (grid, envelope, env_scan, _levels(21))}


def evaluate_boundaries(
    geometry: ArrayGeometry, specs: Sequence[BoundarySpec], directions: Iterable[Direction]
) -> tuple[tuple[BoundaryResult, ...], ...]:
    """One table per direction: each :class:`BoundarySpec`'s result for the geometry and
    that direction, in order.

    The first spec of a line kind takes every line kind of the table over the grid, once per
    direction (:func:`_grid_pass`), and every threshold of a kind is searched on its scan.
    ``wc`` reads no direction, so it is scanned and each of its thresholds searched once per
    call.  A kind's scan error is raised at its first spec, so a spec gets the result (or the
    error) it gets alone; the first error ends the call.  ``wc`` thresholds are scaled by
    :data:`WC_THRESHOLD_SCALE`.
    """
    line_kinds = tuple(kind for kind in _CRITERIA if any(spec.kind == kind for spec in specs))
    thresholds = {kind: tuple(spec.threshold for spec in specs if spec.kind == kind)
                  for kind in line_kinds}
    shared: dict[BoundarySpec, BoundaryResult] = {}  # wc results, the same in every table
    tables = []
    for direction in directions:
        scans: dict[str, tuple | ValueError] = {}
        results = []
        for spec in specs:
            if spec.kind == "qr":
                span = geometry.span
                result = BoundaryResult(
                    STATUS_FOUND, quasi_rayleigh(span), (0.0, math.inf), 0, span == 0.0
                )
            elif spec in shared:
                result = shared[spec]
            else:
                wc = spec.kind == "wc"
                if spec.kind not in scans:
                    scans.update(_kind_scans(geometry, ("wc",) if wc else line_kinds, direction,
                                             thresholds))
                if isinstance(scans[spec.kind], ValueError):
                    raise scans[spec.kind]
                threshold = spec.threshold * WC_THRESHOLD_SCALE if wc else spec.threshold
                result = _search_values(*scans[spec.kind], threshold, *_MODES[spec.kind])
                if wc:
                    shared[spec] = result
            results.append(result)
        tables.append(tuple(results))
    return tuple(tables)


def evaluate_boundary(
    geometry: ArrayGeometry, spec: BoundarySpec, direction: Direction
) -> BoundaryResult:
    """Evaluate one :class:`BoundarySpec` for a geometry and direction."""
    return evaluate_boundaries(geometry, (spec,), (direction,))[0][0]
