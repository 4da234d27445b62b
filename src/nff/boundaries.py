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
a time would.  Each kind is scanned on its own: ``ar``, ``up``, ``en`` and ``ep`` on the one
test line a table places per direction, and ``wc`` by one ``Xi`` scan per call.  A search
reads nothing of a grid pass but the side of each of its thresholds at each radius, so a
line kind's grid rows are decided by one ladder of interval stages (:func:`_grid_pass`): a
row is decided when an interval that provably holds the float64 walk's value excludes every
threshold of the kind, and it takes a value from inside that interval.

* Stage 0 (:func:`_row_bounds`): O(1) per radius, from the line's extreme elements and
  means.  It decides all but a few radii around each crossing for ``ar`` and ``up``, ``ep``
  to second order (Jensen's inequality and a chord), and ``en``'s far zone.
* Stage 1, on the rows left open for ``en`` and ``ep``: float32 at O(N) per radius, within
  a per-row proven bound (:func:`_ep_rows`, :func:`_psi_rows`), and for ``en``
  continuation, which lets an evaluated row decide its neighbours (:func:`_en_stage`).
* Stage 2: the kind's rows still open are walked in float64 (:func:`_line_walk`).

So crossing counts, statuses, degenerate flags and the bisected values (the bisection
stays exact) are those of the float64 walk.  Errors are decided per radius before any walk
(:func:`_line_error`), so a kind fails with its first failing radius's error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .core import (
    _SCAN_PAIRS, WAVENUMBER, Direction, _blockwise, _line_constants, _line_distance, _line_excess,
    unit_vector,
)
from .metric import _ON_REACH, _on_element, default_grid
from .sources import ArrayGeometry, _singularity

#: Search bracket (wavelengths) and log-grid density of every search.
DEFAULT_BRACKET = (1.0e-3, 1.0e6)
DEFAULT_POINTS_PER_DECADE = 400

#: The search grid of every line kind, read-only (``wc``'s starts past the array).
_GRID = default_grid(*DEFAULT_BRACKET, DEFAULT_POINTS_PER_DECADE)
_GRID.flags.writeable = False

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
        if not math.isfinite(th):
            raise ValueError(f"{kind} threshold must be finite, got {th!r}")
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


def _steering(inv: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """``Psi``'s denominator ``|sum_n exp(-j k delta_n) / d_n|`` per row of ``inv = 1/d`` and
    the excess paths ``delta``, in float64."""
    phase = WAVENUMBER * delta
    return np.hypot(np.sum(np.cos(phase) * inv, axis=-1), np.sum(np.sin(phase) * inv, axis=-1))


class _Line(NamedTuple):
    """A geometry's test line along a direction, read once for every walk over it: ``t_n``
    and ``w_n`` (:func:`nff.core._line_constants`), the boresight projection ``along`` of
    ``rhat`` and ``offsets`` of the elements, ``up``'s, with their extremes; for the row
    bounds of a grid pass (:func:`_row_bounds`), the extents of ``t`` and ``w``, the
    ``witnesses``, the elements where ``t`` or ``w`` is least or greatest, and ``t_mean`` and
    ``spread``, the mean ``c`` of ``t`` and ``mean_n (t_n - c)^2 + w_n``; ``w32``, ``w`` in
    float32 for the float32 stages (:func:`_psi_rows`, :func:`_ep_rows`); and ``on_lo`` and
    ``on_hi``, outside which no radius lies on an element (:func:`_line_error`)."""

    geometry: ArrayGeometry
    direction: Direction
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
    t_mean: float
    spread: float
    w32: np.ndarray
    on_lo: float
    on_hi: float


def _test_line(geometry: ArrayGeometry, direction: Direction) -> _Line:
    """The :class:`_Line` of ``geometry`` along ``direction``."""
    rhat = unit_vector(direction)
    t, w = _line_constants(geometry.positions, rhat)
    nhat = geometry.boresight  # (r rhat - r_n) . nhat, per radius and element
    offsets = geometry.positions @ nhat
    witnesses = sorted({int(i) for i in (np.argmin(t), np.argmax(t), np.argmin(w), np.argmax(w))})
    t_mean = t.mean()
    on = t[w < _ON_REACH * _ON_REACH]  # the elements a radius may lie on (metric._on_element)
    return _Line(geometry, direction, t, w, rhat @ nhat, offsets, offsets.min(), offsets.max(),
                 t.min(), t.max(), w.min(), w.max(), witnesses,
                 t_mean, np.mean(np.square(t - t_mean)) + w.mean(), w.astype(np.float32),
                 on.min(initial=np.inf) - _ON_REACH, on.max(initial=-np.inf) + _ON_REACH)


def _projections(line: _Line, r: np.ndarray) -> tuple[np.ndarray, ...]:
    """``up``'s boresight projections ``x - o_n`` (``x = r rhat . nhat``) at radii ``r``, read at
    their extremes: ``x``, ``top = x - min o``, ``low = x - max o`` and the tolerance ``1e-9
    max(1, r)`` within which a projection counts as 0."""
    x = r * line.along
    return x, x - line.o_lo, x - line.o_hi, 1e-9 * np.maximum(1.0, r)


def _line_error(line: _Line, kind: str, r: np.ndarray) -> ValueError | None:
    """The error of ``kind``'s first failing radius in ``r``'s flat order, or ``None``.  Every
    kind fails at a radius that is not ``0 < r < inf``; every kind but ``ar`` where a ``d_n``
    that :func:`_line_walk` would form is below :data:`~nff.sources.SINGULARITY_RADIUS`
    (:func:`nff.metric._on_element`); ``up`` also where its boresight projections change
    sign, read at their extremes as the walk reads them.  At one radius the domain comes
    first, then the element."""
    flat = r.ravel()
    stop = flat.size
    if flat.size and not (flat.min() > 0.0 and flat.max() < math.inf):  # NaN fails both
        stop = int(np.argmax(~((flat > 0.0) & (flat < math.inf))))
    head = flat[:stop]  # every kind fails at flat[stop], so only the radii before it count
    first = stop
    if (kind != "ar" and head.size
            and not (head.max() < line.on_lo or head.min() > line.on_hi)):
        order = np.argsort(head)
        if (on := order[_on_element(line.t, line.w, head[order])]).size:
            first = int(on.min())
    if kind == "up" and line.o_lo < line.o_hi:  # with one offset, no sign can change
        _, top, low, tol = _projections(line, head)
        mixed = np.flatnonzero((top > tol) & (low < -tol))
        if mixed.size and mixed[0] < first:
            return UndefinedProjection("boresight projections change sign along the element "
                                       "set; the uniform-power ratio is undefined here")
    if first < stop:
        return _singularity(flat[first])
    if stop < flat.size:
        return ValueError(f"undefined at r = {float(flat[stop])!r}: a radius on a test line "
                          "must be positive and finite")
    return None


def _line_walk(line: _Line, kind: str, r: np.ndarray) -> np.ndarray:
    """The criterion ``kind`` (``ar``, ``up``, ``en`` or ``ep``) at radii ``r`` on ``line``, in
    one float64 walk: element ``n`` enters only through ``t_n`` and ``w_n``.

    Each block of ``_SCAN_PAIRS // N`` radii (:func:`nff.core._blockwise`) forms ``d``, and
    ``delta`` too for ``ar`` and ``en``; ``up`` reads its projections ``x - o_n`` at their
    extremes only, and ``d`` too when every element has one offset ``o``.  Values are
    elementwise in ``r``, so a radius gets the bits it gets alone.  The walk computes values
    only: a kind is walked where :func:`_line_error` finds it defined, and only a grid pass's
    stages screen (:func:`_grid_pass`).
    """
    geometry, t, w = line.geometry, line.t, line.w

    def block(r):
        radii = r[..., None]
        if kind == "ar":
            return np.max(_line_excess(radii, t, w)[1], axis=-1) * WAVENUMBER
        if kind == "en":
            d, delta = _line_excess(radii, t, w)
            inv = 1.0 / d
            with np.errstate(divide="ignore"):
                return np.maximum(np.sum(inv, axis=-1) / _steering(inv, delta), 1.0)
        d = _line_distance(radii - t, w)
        if kind == "ep":
            return np.square(r) / geometry.n * np.sum(1.0 / (d * d), axis=-1)
        x, top, low, tol = _projections(line, r)
        flat = np.maximum(top, -low) <= tol
        if line.o_lo == line.o_hi:  # one numerator per radius, so g's extremes are at d's
            # stacked, as a numpy scalar's ** is libm's pow, not the array's
            ext = np.stack([np.min(d, axis=-1), np.max(d, axis=-1)]) ** 3
            g_max, g_min = np.where(flat, 1.0, np.abs(top)) / ext
        else:
            g = np.where(flat[..., None], 1.0, np.abs(np.subtract.outer(x, line.offsets))) / d**3
            g_max, g_min = np.max(g, axis=-1), np.min(g, axis=-1)
        return np.divide(g_min, g_max, out=np.zeros_like(g_max), where=g_max != 0.0)

    return _blockwise(block, geometry.n, r)


#: Relative widening of every row bound (:func:`_row_bounds`), per element of the line plus 64.
_ROW_SLACK = 2.0**-50

#: The unit roundoff of a float64 walk, and the unit of a float32 stage's bound
#: (:func:`_psi_rows`): float32's, plus eight float64 walks' for the rows a stage decides.
_F64 = 2.0**-53
_F32 = 2.0**-24 + 2.0**-50


def _row_error(line: _Line, r: np.ndarray, unit: float, phases: bool) -> np.ndarray:
    """``(c + 2 N) unit`` per radius of ``r``: with ``phases`` (``en``) ``c = 64 dhat + 32``,
    ``dhat`` bounding every excess path ``delta_n``, else (``ep``) ``c = 8``; ``inf`` where that
    exceeds 1e-2, or an element term could leave float32's range, past which no stage's bound
    is proven (:func:`_psi_rows`, :func:`_ep_rows`).

    As ``d_n <= |s_n| + sqrt(w_n)``, ``delta_n = d_n - s_n <= sqrt(w_hi) + 2 max(t_hi - r, 0)``
    (the walk's ``s_n`` is at least its ``r - t_hi``), and where ``s_min = r - t_hi > 0``,
    ``delta_n = w_n / (d_n + s_n) <= w_hi / (2 s_min)``.
    """
    c = 8.0
    if phases:
        ahead = r - line.t_hi
        far = np.divide(line.w_hi, 2.0 * ahead, out=np.full(r.shape, np.inf), where=ahead > 0.0)
        c = 64.0 * np.minimum(math.sqrt(line.w_hi) + 2.0 * np.maximum(-ahead, 0.0), far) + 32.0
    eps = (c + 2.0 * line.geometry.n) * unit
    reach = np.maximum(r - line.t_lo, line.t_hi - r)  # the largest |s_n|
    fits = (eps <= 1e-2) & (reach < 2.0**50) & (line.w_hi < 2.0**100)
    return np.where(fits, eps, np.inf)


def _row_bounds(line: _Line, kind: str, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An interval ``(lo, hi)`` per radius of ``r`` that holds the value :func:`_line_walk`
    gives there for ``kind``, from the line's extents, means and witnesses at O(1) per radius,
    where :func:`_line_error` finds the kind defined: stage 0 of a grid pass.

    Let ``s_n = r - t_n``, the walk's float, and ``s_min = r - t_hi``, its least.  ``near``
    bounds every ``|s_n|`` from below (``s_min`` past ``t_hi``, ``t_lo - r`` short of
    ``t_lo``, else 0), ``far`` is the greatest, and ``a = D_lo^2 = near^2 + w_lo <= d_n^2 <=
    far^2 + w_hi = D_hi^2 = b``.  Where ``s_min > 0``, ``d_n >= s_n`` gives ``0 <= delta_n =
    w_n / (d_n + s_n) <= w_hi / (2 s_min)``.  So:

    * ``ar``: ``Phi = k max_n delta_n`` is at least the witnesses' own ``k delta`` and, where
      ``s_min > 0``, at most ``k w_hi / (2 s_min)``.
    * ``up``: ``Gamma = min_n g_n / max_n g_n`` is at most the witnesses' own ratio.  The
      numerators ``|x - o_n|`` lie between the walk's projection extremes ``P_lo`` and
      ``P_hi`` (``P_lo`` is 0 where they straddle 0, and both are 1 on an in-plane row), so
      ``Gamma >= (P_lo / P_hi) (D_lo / D_hi)^3``.
    * ``ep``: ``Upsilon = r^2 mean_n 1 / x_n`` with ``x_n = d_n^2 = (r - t_n)^2 + w_n``, whose
      mean is ``M = (r - tbar)^2 + mean_n (t_n - tbar)^2 + w_n``.  ``1 / x`` is convex, so
      Jensen's inequality gives ``Upsilon >= r^2 / M``, and it lies below its chord over
      ``[a, b]``, ``1 / x <= (a + b - x) / (a b)``, so ``Upsilon <= r^2 (a + b - M) / (a b)``.
      With ``c = t_mean`` (the float mean, within ``e = (N + 2) 2^-53 max |t|`` of ``tbar``)
      and ``V = spread`` (taken about ``c``), ``(max(|r - c| - e, 0))^2 + V - e^2 <= M <=
      (|r - c| + e)^2 + V``, up to ``V``'s relative rounding.  The numerator ``a + b - M``
      may cancel, so it takes ``(N + 64)`` :data:`_ROW_SLACK` times ``a + b + M`` more, which
      also covers ``e^2`` (below ``(N + 2)^2 2^-104 b``, as ``b >= max t^2 / 4`` on a centred
      array) and relative errors of that size in ``a``, ``b`` and ``M``: the chord's
      derivative in each is at most ``1 / (a b)`` times ``b``, ``a`` or ``M``.
    * ``en``: every phase ``k delta_n`` lies in ``[0, T]``, ``T = k w_hi / (2 s_min)``, so
      the steering sum, turned by ``T / 2``, has a real part of at least ``cos(T / 2) S``:
      ``1 <= Psi <= 1 / cos(T / 2)`` where ``T / 2 < pi / 2``.  The walk's ``S`` and
      denominator are within ``E S`` of these, ``E`` the row's float64 :func:`_row_error`,
      so ``hi = (1 + E) / (cos(T / 2) - E)``, and only where ``cos(T / 2) > 2 E``.

    These hold for the walk's float inputs ``r``, ``t_n`` and ``w_n``; the walk forms each
    value in a few roundings per element and a sum of ``N`` terms (``ep``, ``en``), at most
    ``(N + 16) 2^-52`` relative with numpy's ``pow`` within 4 ulp, and the bounds are formed
    in fewer, or (``M``) with a mean of ``N`` terms, ``(N + 20) 2^-53``.  Every interval is
    widened by ``(N + 64)`` :data:`_ROW_SLACK`, at least twice the two together.
    """
    s_min = r - line.t_hi
    n = line.geometry.n
    slack = (n + 64) * _ROW_SLACK
    if kind in ("ar", "en"):  # k w_hi / (2 s_min), which bounds every phase k delta_n
        phase = np.divide(line.w_hi * WAVENUMBER, 2.0 * s_min, out=np.full(r.shape, np.inf),
                          where=s_min > 0.0)
    if kind == "ar":  # the witnesses' planes are formed one at a time, to keep memory small
        deltas = (_line_excess(r, line.t[i], line.w[i])[1] for i in line.witnesses)
        lo, hi = functools.reduce(np.maximum, deltas) * WAVENUMBER, phase
    elif kind == "en":
        cos = np.cos(np.minimum(0.5 * phase, 0.5 * math.pi))
        err = _row_error(line, r, _F64, True)
        lo = np.ones(r.shape)
        hi = np.divide(1.0 + err, cos - err, out=np.full(r.shape, np.inf), where=cos > 2.0 * err)
    else:
        d_lo2 = np.square(np.maximum(np.maximum(s_min, line.t_lo - r), 0.0)) + line.w_lo
        d_hi2 = np.square(np.maximum(np.abs(r - line.t_lo), np.abs(s_min))) + line.w_hi
        if kind == "up":
            dists = (_line_distance(r - line.t[i], line.w[i]) for i in line.witnesses)
            lo, hi = _gamma_bounds(line, r, dists, d_lo2 / d_hi2)
        else:
            gap = np.abs(r - line.t_mean)
            e = (n + 2) * _F64 * max(-line.t_lo, line.t_hi)
            m_lo = np.square(np.maximum(gap - e, 0.0)) + line.spread
            r2 = r * r
            with np.errstate(divide="ignore", invalid="ignore"):
                lo = r2 / (np.square(gap + e) + line.spread)
                hi = r2 * (d_lo2 + d_hi2 - m_lo + slack * (d_lo2 + d_hi2 + m_lo)) / (d_lo2 * d_hi2)
    return lo * (1.0 - slack), hi * (1.0 + slack)


def _gamma_bounds(line: _Line, r: np.ndarray, dists: Iterable, ratio: np.ndarray) -> tuple:
    """``up``'s interval of :func:`_row_bounds`, from the witnesses' distances ``dists`` and
    ``ratio = D_lo^2 / D_hi^2``."""
    x, top, low, tol = _projections(line, r)
    flat = np.maximum(top, -low) <= tol
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


def _float32_offsets(line: _Line, r: np.ndarray) -> np.ndarray:
    """The walk's ``s_n = r - t_n`` per radius of ``r`` and element, formed in float64 and
    rounded to float32."""
    return (r[:, None] - line.t).astype(np.float32)


def _ep_rows(line: _Line, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``U~`` and ``E`` per radius of ``r``: ``Upsilon`` in float32, and a bound on its distance
    from the walk's value and the exact one.

    From the walk's ``s_n`` rounded to float32 (relative error ``u = 2^-24``) and ``w_n``'s,
    ``s^2 + w`` is a sum of nonnegative terms, within ``4 u``, its reciprocal within ``6 u``,
    their float32 sum within ``(N + 6) u`` and ``U~ = r^2 / N`` times it within ``(N + 7) u``
    of the exact value, and the walk's within ``(N + 16) 2^-52``.  So both lie within ``E =
    1.02 eps U~`` of ``U~``, ``eps`` being the row's :func:`_row_error` (``1.02`` covers the
    exact value's excess over ``U~``).
    """

    def block(r):
        x = _float32_offsets(line, r)
        x *= x
        x += line.w32
        return np.sum(np.reciprocal(x, out=x), axis=-1).astype(float)

    u = np.square(r) / line.geometry.n * _blockwise(block, line.t.size, r)
    return u, 1.02 * _row_error(line, r, _F32, False) * u


def _ep_stage(line: _Line, r: np.ndarray, rows: np.ndarray, taus: np.ndarray,
              vals: np.ndarray) -> None:
    """Stage 1 of ``ep`` on the ``rows`` of ``r`` still open: a row whose :func:`_ep_rows`
    interval ``[U~ - E, U~ + E]`` excludes every threshold takes ``U~`` in ``vals`` and leaves
    ``rows``; rows where the bound is not proven are not evaluated."""
    idx = np.flatnonzero(rows)
    idx = idx[np.isfinite(_row_error(line, r[idx], _F32, False))]  # the others stay open
    u, err = _ep_rows(line, r[idx])
    rows[idx] = np.any(np.abs(u - taus) <= err, axis=0)
    vals[idx] = u


def _psi_rows(line: _Line, r: np.ndarray) -> tuple[np.ndarray, ...]:
    """``S~``, ``den~``, ``eps`` and ``Q~`` per radius of ``r``: ``Psi``'s numerator ``S =
    sum_n 1/d_n`` and denominator ``den = |sum_n exp(-j k delta_n) / d_n|`` from one float32
    chain, and ``Q = sum_n 1/d_n^2``; ``S`` and ``den`` of the walk, and the exact ones, lie
    within ``E = 1.02 eps S~`` of them, ``eps`` the row's :func:`_row_error`.

    With ``u = 2^-24``, the walk's ``s_n`` and ``w_n`` are rounded to float32 (``u`` each), so
    every later term is a sum of nonnegative parts: ``d = sqrt(s^2 + w)`` is within ``3.1 u``,
    ``1/d`` within ``4.2 u``, and ``delta = w / (d + |s|) + (|s| - s)`` (``d - s``, with
    ``|s| - s`` exact) within ``8.2 u``.  ``m = delta - rint(delta)`` is exact, and ``k = 2 pi``,
    so ``k m`` is ``k delta`` less whole turns, and float32 ``k m`` is within ``2 pi u (1.01 +
    8.2 delta)`` of it: phase errors no float64 reduction would remove.  Float32 ``cos`` and
    ``sin`` within 4 ulp (numpy's SIMD loops stay within 1.5) add ``8 u`` each, the products
    ``u``, and the float32 sums ``1.01 N u`` of ``S`` each.  So ``|den~ - den| <= (51.6 dhat +
    26 + 1.5 N) u S``, ``dhat >= max_n delta_n``, and ``S~`` is closer.  The walk's float64
    chain has the same shape in ``2^-53`` (its ``k delta`` within ``10 2^-53 k delta``, ``cos``
    of any argument within 4 ulp, its sums within ``N 2^-53``), here and, with ``dhat`` grown
    at most ``e``-fold and ``S`` twofold, at every radius within reach of a row
    (:func:`_en_stage`): eight of them are at most ``(64 dhat + 32 + 2 N) 2^-50``.  ``Q~`` is
    within ``(N + 10) u``, below ``eps``.  The floats stay normal or exact: ``_line_error``
    keeps ``d_n >= 1e-9``, and ``_row_error`` the terms below ``2^100``.
    """

    def block(r):
        s = _float32_offsets(line, r)
        d = _line_distance(s, line.w32)
        inv = 1.0 / d
        if r.min() > line.t_hi:  # every s > 0
            delta = np.divide(line.w32, np.add(d, s, out=d), out=d)
        else:
            a = np.abs(s)
            delta = np.divide(line.w32, np.add(d, a, out=d), out=d)
            a -= s  # |s| - s, exact
            delta += a
        delta -= np.rint(delta)
        delta *= np.float32(WAVENUMBER)
        sums = (np.sum(inv, axis=-1), np.vecdot(np.cos(delta), inv),
                np.vecdot(np.sin(delta), inv), np.vecdot(inv, inv))
        return tuple(x.astype(float) for x in sums)

    total, re, im, q = _blockwise(block, line.t.size, r, (float,) * 4)
    return total, np.hypot(re, im), _row_error(line, r, _F32, True), q


#: Strides of the ``en`` stage's passes over a grid's open rows (:func:`_en_stage`), and the
#: open radius-element pairs from which it takes them; fewer go in one pass.
_LADDER = (256, 32, 4, 1)
_LADDER_PAIRS = 4 * _SCAN_PAIRS


def _en_stage(line: _Line, r: np.ndarray, rows: np.ndarray, taus: np.ndarray,
              vals: np.ndarray) -> None:
    """Stage 1 of ``en`` on the increasing radii of ``r``'s open ``rows``: :func:`_psi_rows` on
    every 256th, 32nd, 4th open row, then the rest (all at once below
    :data:`_LADDER_PAIRS`), each decided row covering its neighbours.  A row decided or
    covered takes a value in ``vals`` and leaves ``rows``; rows where the bound is not proven
    are not evaluated.

    A row's ``S`` and ``den``, of the walk or exact, lie within ``E = 1.02 eps S~`` of ``S~``
    and ``den~``; ``Psi >= tau`` is ``S >= tau den``, so the row is decided when every
    ``margin = |S~ - tau den~| - (1 + tau) E - 2^-40 S~ > 0``, and takes ``max(S~ / den~, 1)``,
    on the walk's side of each ``tau`` with ``2^-40`` to spare for the quotients' rounding.

    Continuation: ``d_n' = s_n / d_n`` and ``delta_n' = d_n' - 1``, so ``|d_n'| <= 1`` and
    ``|delta_n'| <= 2``.  Within ``rho <= min_n d_n / 2`` of the row, every ``d_n`` stays
    above half its value, so ``|S'| <= sum_n 1/d_n^2 <= 4 Q`` and ``|den'| <= sum_n 2 k/d_n +
    1/d_n^2 <= 4 k S + 4 Q``.  As ``Q >= 1 / min_n d_n^2``, ``rho = min(1 / (2 sqrt(Q)), margin /
    (4 Q + tau (4 k S + 4 Q)))`` (``S`` and ``Q`` taken ``1 + 2 eps`` times ``S~`` and ``Q~``,
    minimised over the thresholds) keeps every radius within ``rho`` on the row's side of each
    threshold, by ``E`` (which holds the walk's error there) and ``2^-40 S~``; such a radius
    takes the row's value.  Every rounding of these tests is below ``2^-50`` relative.
    """
    idx = np.flatnonzero(rows)
    x = r[idx]
    left = ~np.isfinite(_row_error(line, x, _F32, True))  # not proven: not evaluated
    todo = ~left
    for stride in _LADDER if idx.size * line.geometry.n > _LADDER_PAIRS else (1,):
        at = np.flatnonzero(todo)[::stride]
        if not at.size:
            break
        todo[at] = False
        total, den, eps, q = _psi_rows(line, x[at])
        margin = np.abs(total - taus * den) - (1.0 + taus) * 1.02 * eps * total
        margin -= 2.0**-40 * total
        ok = np.all(margin > 0.0, axis=0)
        with np.errstate(divide="ignore"):
            value = np.maximum(total / den, 1.0)
        vals[idx[at]] = value
        left[at[~ok]] = True
        if not (todo.any() and ok.any()):
            continue
        cap, grow_total, grow_den = _continuation(total[ok], eps[ok], q[ok])
        reach = np.minimum(cap, np.min(margin[:, ok] / (grow_total + taus * grow_den), axis=0))
        near = np.flatnonzero(todo)
        owner = _cover(x, at[ok], reach, near)
        got = owner >= 0
        vals[idx[near[got]]] = value[ok][owner[got]]
        todo[near[got]] = False
    rows[idx] = left


def _continuation(total: np.ndarray, eps: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """Of rows with :func:`_psi_rows`' ``S~``, ``eps`` and ``Q~``, the cap ``1 / (2 sqrt(Q))``
    of a reach (below ``min_n d_n / 2``) and the bounds ``4 Q`` and ``4 k S + 4 Q`` on how fast
    ``S`` and ``den`` move within it (:func:`_en_stage`)."""
    grow = 1.0 + 2.0 * eps
    q = 4.0 * q * grow
    return 1.0 / np.sqrt(q), q, 4.0 * WAVENUMBER * total * grow + q


def _cover(x: np.ndarray, at: np.ndarray, reach: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each position of ``rows`` in the increasing radii ``x`` (none of them in ``at``), the
    index ``i`` of the nearest centre ``x[at[i]]`` below it, or else above it, whose ``reach[i]``
    covers it; -1 where neither does.  A centre is taken only where it covers the row."""
    mark = np.zeros(x.size, int)
    mark[at] = 1
    k = np.cumsum(mark)[rows]  # the centres below each row
    lo, hi = np.maximum(k - 1, 0), np.minimum(k, at.size - 1)
    y, c = x[rows], x[at]
    return np.where(np.abs(y - c[lo]) <= reach[lo], lo,
                    np.where(np.abs(y - c[hi]) <= reach[hi], hi, -1))


#: The float32 stage of each kind that has one (:func:`_grid_pass`).
_STAGES = {"en": _en_stage, "ep": _ep_stage}


def _grid_pass(line: _Line, kind: str, r: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """Values of ``kind`` on the increasing grid ``r``, on the :func:`_line_walk`'s side of each
    of its ``thresholds``, which is all a search reads of them; its :func:`_line_error` error
    on the grid is raised.

    One ladder of interval stages decides the rows: a row is decided when its interval, which
    holds the walk's value, excludes every threshold, and it takes a value from inside that
    interval.  Stage 0 is :func:`_row_bounds`, at O(1) per row; stage 1, on the rows stage 0
    leaves open, is float32 at O(N) per row (:func:`_en_stage`, with continuation, and
    :func:`_ep_stage`); stage 2 walks the rows still open in float64 and grid order.
    """
    if (error := _line_error(line, kind, r)) is not None:
        raise error
    lo, hi = _row_bounds(line, kind, r)
    taus = np.asarray(thresholds, float)[:, None]
    rows = np.any((lo <= taus) & (taus <= hi), axis=0)
    if kind in _STAGES and rows.any():
        _STAGES[kind](line, r, rows, taus, lo)
    if rows.any():
        lo[rows] = _line_walk(line, kind, r[rows])
    return lo


def _criterion(kind: str, geometry: ArrayGeometry, r, direction: Direction, line: _Line | None):
    """One criterion at ``r``, the :func:`_line_walk` of ``kind`` on ``line``, or on the line of
    ``geometry`` along ``direction`` if it is ``None``, after raising its :func:`_line_error`."""
    r = np.asarray(r, dtype=float)
    line = _test_line(geometry, direction) if line is None else line
    if (error := _line_error(line, kind, r)) is not None:
        raise error
    return _line_walk(line, kind, r)[()]


def phi_excess(
    geometry: ArrayGeometry, r: float | np.ndarray, direction: Direction, *, _line=None
) -> float | np.ndarray:
    """Worst-case element phase excess, radians.

    ``Phi = max_n k * (|r - r_n| - r + rhat . r_n)``, from the excess paths of
    :func:`nff.core._line_excess`, which do not cancel at large radii.  Nonnegative
    by the triangle inequality.  A radius on an element is allowed: its excess is 0
    there; a radius that is not ``0 < r < inf`` raises ``ValueError``, as it does for every
    criterion.
    """
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
    pass bounds ``Psi`` in float32, to decide rows (:func:`_psi_rows`).
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
    """Geometric bisection of ``(lo, hi)`` to :data:`REFINE_REL_TOL`, ``levels`` steps per
    call of ``side``.

    Each step halves the bracket at ``sqrt(lo * hi)`` and keeps the lower half where
    ``side(mid) == first``.  A call evaluates every midpoint the next ``levels`` steps can
    visit (:func:`_midpoints`), each from the endpoints the step would hold, so the path
    taken sees the bits that one radius at a time would.  A speculative midpoint may raise
    where the path never goes (on an element, say); then that step's own midpoint is
    evaluated alone, so the walk returns, or raises, what the one-radius walk does.
    """
    steps, mids, i = 0, [], 0
    while steps < 200 and hi / lo - 1.0 > REFINE_REL_TOL:
        if i >= len(mids):
            left, ratio = 0, hi / lo  # the steps still to go: the last call looks no further
            while ratio - 1.0 > REFINE_REL_TOL:
                left, ratio = left + 1, math.sqrt(ratio)
            mids, i = _midpoints(lo, hi, min(levels, left)), 0
            try:
                ok = side(np.array(mids)).tolist()
            except ValueError:
                if len(mids) == 1:
                    raise
                mids = mids[:1]
                ok = side(np.array(mids)).tolist()
        if ok[i] == first:
            hi, i = mids[i], 2 * i + 1
        else:
            lo, i = mids[i], 2 * i + 2
        steps += 1
    return math.sqrt(lo * hi)


def _search_values(grid: np.ndarray, vals: np.ndarray, scan: Callable[[np.ndarray], np.ndarray],
                   levels: int, threshold: float, first: bool, below: bool) -> BoundaryResult:
    """Where ``vals`` (``scan`` on ``grid``) first enters the side ``v <= threshold``
    (``>=`` unless ``below``), or with ``first`` false last leaves it, bisected with
    ``levels`` levels per call of ``scan`` (:func:`_bisect`); ``unbounded`` if that
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
    value = _bisect(lambda r: side(scan(r)), lo, hi, first, levels)
    return BoundaryResult(STATUS_FOUND, value, bracket, crossings)


# ---------------------------------------------------------------------------
# boundary operations


def quasi_rayleigh(span: float) -> float:
    """Quasi-Rayleigh distance ``2 * span^2``, span and result in wavelengths."""
    if not 0.0 <= span < math.inf:
        raise ValueError(f"span must be nonnegative and finite, got {span!r}")
    return 2.0 * span * span


#: The ``(first, below)`` crossing of each searched kind.
_MODES = {"ar": (True, True), "up": (True, False), "en": (False, False), "ep": (False, True),
          "wc": (True, True)}

#: The criterion of each kind on a test line, the scan its bisection calls; given ``_line``,
#: the :class:`_Line` of its geometry and direction, a criterion does not place it again.
_CRITERIA = {"ar": phi_excess, "up": gamma_uniform_power, "en": psi_gain_ratio,
             "ep": upsilon_power}


def _line_scan(line: _Line, kind: str, thresholds: Sequence[float]) -> tuple:
    """Of line kind ``kind`` on ``line``, the search grid, the values there (its
    :func:`_grid_pass`, on the walk's side of each of ``thresholds`` only), the exact scan the
    bisection calls on arrays of radii and the levels it looks ahead per call
    (:func:`_levels`)."""
    scan = functools.partial(_CRITERIA[kind], line.geometry, direction=line.direction,
                             _line=line)
    return _GRID, _grid_pass(line, kind, _GRID, thresholds), scan, _levels(line.geometry.n)


def _wc_scan(geometry: ArrayGeometry) -> tuple:
    """``wc``'s search grid, values, bisection scan and levels, as :func:`_line_scan`'s.

    ``wc`` reads only the largest element offset ``a``: its grid starts just past ``a``, and
    its values are the suffix supremum ``sup_{r' >= r} Xi(r')``.  Truncating that at the top
    of the bracket is only valid when ``Xi`` is decaying there, so the final decade is checked
    for monotone decrease first (:class:`TailNotMonotone`, raised).
    """
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

    return grid, envelope, env_scan, _levels(21)


def evaluate_boundaries(
    geometry: ArrayGeometry, specs: Sequence[BoundarySpec], directions: Iterable[Direction]
) -> tuple[tuple[BoundaryResult, ...], ...]:
    """One table per direction: each :class:`BoundarySpec`'s result for the geometry and
    that direction, in order.

    The first spec of a kind scans it, once per table (:func:`_line_scan`, on the one test
    line of that direction, placed at the table's first line kind), and every threshold of
    the kind is searched on that scan.  ``wc`` reads no direction, so it is scanned and each
    of its thresholds searched once per call (:func:`_wc_scan`).  A scan raises its error at
    the kind's first spec, so a spec gets the result (or the error) it gets alone; the first
    error ends the call.  ``wc`` thresholds are scaled by :data:`WC_THRESHOLD_SCALE`.
    """
    shared: dict[BoundarySpec, BoundaryResult] = {}  # wc results, the same in every table
    tables = []
    for direction in directions:
        line, scans, results = None, {}, []
        for spec in specs:
            kind = spec.kind
            if kind == "qr":
                span = geometry.span
                result = BoundaryResult(
                    STATUS_FOUND, quasi_rayleigh(span), (0.0, math.inf), 0, span == 0.0
                )
            elif spec in shared:
                result = shared[spec]
            else:
                wc = kind == "wc"
                if kind not in scans and wc:
                    scans[kind] = _wc_scan(geometry)
                elif kind not in scans:
                    line = _test_line(geometry, direction) if line is None else line
                    scans[kind] = _line_scan(line, kind, [s.threshold for s in specs
                                                          if s.kind == kind])
                threshold = spec.threshold * WC_THRESHOLD_SCALE if wc else spec.threshold
                result = _search_values(*scans[kind], threshold, *_MODES[kind])
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
