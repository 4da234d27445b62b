"""Scenario files, sweeps, trace import/export, and reference tables.

Scenario files are flat ``key = value`` text (``#`` starts a comment)::

    source = dipole-ula        # or imported-trace: reads only trace = <path> and direction
    n = 8
    spacing_lambda = 0.5
    direction = front          # preset name or "theta,phi" in degrees
    excitation = ff-bf         # ff-bf | nf-bf | none
    grid_lo = 0.1
    grid_hi = 1e4
    grid_ppd = 100
    boundaries = qr, ar, up:0.9, en:1.05, ep:0.99, wc:0.001

Field traces are CSV with ``#`` header lines carrying the format version,
one far-field record (either the angular distribution itself or a single
far-zone field sample) and an optional ``# direction = theta,phi`` record
in degrees, each at most once, followed by rows of radius and the six
complex field components.  A trace is self-contained: importing one re-runs the
far-field consistency and transversality checks.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .boundaries import BoundaryResult, BoundarySpec, evaluate_boundaries
from .core import DIRECTION_PRESETS, FRONT, Direction, _direction_of, unit_vector
from .farfield import (
    AngularFieldDistribution, TRANSVERSALITY_TOL, auxiliary_fields, far_field_from_sample
)
from .metric import (
    DEFAULT_GRID_HI, DEFAULT_GRID_LO, DEFAULT_GRID_PPD, EXCITATION_FOCUS, EXCITATION_NONE,
    EXCITATION_STEER, MAX_GRID_POINTS, _EXCITATIONS, DipoleArrayScenario, ErrorCurve,
    default_grid, error_sweep, field_mismatch, grid_on_element,
)
from .sources import uniform_linear_array

TRACE_VERSION = 1
TRACE_DATA_HEADER = (
    "r_lambda,ex_re,ex_im,ey_re,ey_im,ez_re,ez_im,"
    "hx_re,hx_im,hy_re,hy_im,hz_re,hz_im"
)
CURVE_HEADER = "r_lambda,epsilon"
BOUNDARY_HEADER = "kind,threshold,status,value_lambda,crossings"

#: Largest element count a scenario may ask for.
MAX_ELEMENTS = 4096


class ConfigError(ValueError):
    """A scenario file failed to parse or validate."""


class TraceFormatError(ValueError):
    """A trace file does not conform to the trace format."""


#: Full-precision decimal rendering (17 significant digits) of one number.
_FMT = "{:.17g}"
_fmt = _FMT.format

#: A trace data row: radius and the six complex field components, each rendered as ``_FMT``.
_TRACE_ROW = ",".join([_FMT] * 13)


# ---------------------------------------------------------------------------
# scenario configuration


@dataclass(frozen=True)
class UlaConfig:
    """A validated dipole-array sweep scenario: a uniform linear array on a test line."""

    n: int
    spacing: float | None = None
    direction: Direction = FRONT
    excitation: str = EXCITATION_STEER
    grid_lo: float = DEFAULT_GRID_LO
    grid_hi: float = DEFAULT_GRID_HI
    grid_ppd: int = DEFAULT_GRID_PPD
    boundaries: tuple[BoundarySpec, ...] = ()

    def __post_init__(self) -> None:
        if self.excitation not in _EXCITATIONS:
            raise ConfigError(
                f"unknown excitation {self.excitation!r}; expected one of {sorted(_EXCITATIONS)}"
            )
        if not 1 <= self.n <= MAX_ELEMENTS:
            raise ConfigError(f"n must lie in 1..{MAX_ELEMENTS}, got {self.n}")
        if self.spacing is not None and not math.isfinite(self.spacing):
            raise ConfigError(f"spacing_lambda must be finite, got {self.spacing!r}")
        if self.n > 1 and (self.spacing is None or self.spacing <= 0.0):
            raise ConfigError("dipole-ula scenarios with n > 1 need spacing_lambda > 0")
        if not (0.0 < self.grid_lo < self.grid_hi < math.inf):
            raise ConfigError(
                f"need 0 < grid_lo < grid_hi < inf, got {self.grid_lo!r}, {self.grid_hi!r}"
            )
        if self.grid_ppd < 1:
            raise ConfigError(f"grid_ppd must be >= 1, got {self.grid_ppd}")


@dataclass(frozen=True)
class TraceConfig:
    """An imported-trace sweep scenario: a captured trace, scored at its own radii.

    A trace is scored along its own direction, which a stated ``direction`` must
    equal; a trace without one takes the stated direction, or ``front``.
    """

    trace_path: str
    direction: Direction | None = None


def parse_direction(text: str) -> Direction:
    """Parse a preset name or a ``theta,phi`` degree pair."""
    name = text.strip().lower()
    if name in DIRECTION_PRESETS:
        return DIRECTION_PRESETS[name]
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(
            f"expected one of {sorted(DIRECTION_PRESETS)} or 'theta,phi' in degrees, "
            f"got {text!r}"
        )
    try:
        theta, phi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"angles must be numeric, got {text!r}") from exc
    try:
        return Direction(theta, phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_boundaries(text: str) -> tuple[BoundarySpec, ...]:
    """Parse a comma list of ``kind`` or ``kind:threshold`` entries."""
    specs: list[BoundarySpec] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        kind, _, th_text = token.partition(":")
        threshold = None
        if th_text:
            try:
                threshold = float(th_text)
            except ValueError as exc:
                raise ConfigError(f"bad boundary threshold in {token!r}") from exc
        try:
            specs.append(BoundarySpec(kind.strip(), threshold))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return tuple(specs)


#: Scenario-file keys other than ``source``, each with the config field it sets and its parser.
_SCENARIO_KEYS = {
    "n": ("n", int),
    "spacing_lambda": ("spacing", float),
    "direction": ("direction", parse_direction),
    "excitation": ("excitation", str.lower),
    "grid_lo": ("grid_lo", float),
    "grid_hi": ("grid_hi", float),
    "grid_ppd": ("grid_ppd", int),
    "boundaries": ("boundaries", parse_boundaries),
    "trace": ("trace_path", str),
}

#: Each scenario source and its config type; a file reads the keys of that type's fields.
_SOURCES = {"dipole-ula": UlaConfig, "imported-trace": TraceConfig}


def load_scenario(path: str | Path) -> UlaConfig | TraceConfig:
    """Read and validate a scenario file.

    Raises
    ------
    ConfigError
        Naming the file, and the line of a bad line, a key that the source never
        reads or a value that does not parse; a missing key, a config invariant
        or bytes that are not UTF-8 name the file only.
    """
    entries: dict[str, tuple[int, str]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip().lower()
        if key != "source" and key not in _SCENARIO_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value.strip())

    lineno, source = entries.pop("source", (None, "dipole-ula"))
    source = source.lower()
    if source not in _SOURCES:
        raise ConfigError(
            f"{path}:{lineno}: source: expected one of {sorted(_SOURCES)}, got {source!r}"
        )
    config_type = _SOURCES[source]
    defaults = {f.name: f.default for f in fields(config_type)}
    kwargs = {}
    for key, (lineno, value) in entries.items():
        name, parse = _SCENARIO_KEYS[key]
        if name not in defaults:
            raise ConfigError(f"{path}:{lineno}: {source} scenarios read no {key}")
        try:
            kwargs[name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc
    for key, (name, _) in _SCENARIO_KEYS.items():
        if defaults.get(name) is MISSING and name not in kwargs:
            raise ConfigError(f"{path}: {source} scenarios need {key}")
    try:
        return config_type(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# field traces


@dataclass(frozen=True, eq=False)
class FieldTrace:
    """Sampled fields along a test line plus one far-field record.

    Exactly one far-field description is present: ``f`` directly, or a
    far-zone ``(E, H)`` sample at ``sample_r`` from which ``f`` and the
    line direction are recovered (and cross-checked) on construction, with
    the E/H residual in ``eh_discrepancy``.  ``f`` must be transversal to
    the direction, stated or recovered, when the trace holds one.
    """

    r: np.ndarray
    e: np.ndarray
    h: np.ndarray
    f: np.ndarray | None = None
    sample_r: float | None = None
    sample_e: np.ndarray | None = None
    sample_h: np.ndarray | None = None
    direction: Direction | None = None
    eh_discrepancy: float | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float).reshape(-1)
        e = np.asarray(self.e, dtype=complex).reshape(-1, 3)
        h = np.asarray(self.h, dtype=complex).reshape(-1, 3)
        if not (r.size == len(e) == len(h)):
            raise TraceFormatError("trace row counts disagree between r, E, and H")
        if r.size == 0:
            raise TraceFormatError("trace has no data rows")
        if not np.all(np.isfinite(r)):
            raise TraceFormatError("trace radii must be finite")
        if not (np.all(np.isfinite(e.view(float))) and np.all(np.isfinite(h.view(float)))):
            raise TraceFormatError("trace field values must be finite")
        if not np.all(r > 0.0):
            raise TraceFormatError("trace radii must be positive")
        if not np.all(r[1:] > r[:-1]):
            raise TraceFormatError("trace radii must be strictly increasing")
        for name, arr in (("r", r), ("e", e), ("h", h)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

        if (self.f is None) == (self.sample_r is None):
            raise TraceFormatError(
                "a trace needs exactly one far-field record (f or a far-zone sample)"
            )
        if self.sample_r is not None:
            self._resolve_sample()
        else:
            f = np.array(self.f, dtype=complex).reshape(3)
            if not np.all(np.isfinite(f)):
                raise TraceFormatError("far-field record values must be finite")
            f.flags.writeable = False
            object.__setattr__(self, "f", f)
        if self.direction is not None:
            _check_transversal(self.f, self.direction)

    def _resolve_sample(self) -> None:
        """Recover f, direction, and the E/H residual from the sample."""
        r_ff = float(self.sample_r)
        e = np.array(self.sample_e, dtype=complex).reshape(3)
        h = np.array(self.sample_h, dtype=complex).reshape(3)
        for name, arr in (("sample_e", e), ("sample_h", h)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (math.isfinite(r_ff) and np.all(np.isfinite(e)) and np.all(np.isfinite(h))):
            raise TraceFormatError("far-field sample values must be finite")
        if r_ff <= 0.0:
            raise TraceFormatError("far-field sample radius must be positive")
        # values near the float limit overflow to inf and NaN here, which
        # far_field_from_sample rejects as an overflowing sample
        with np.errstate(over="ignore", invalid="ignore"):
            poynting = np.real(np.cross(e, np.conj(h)))
            norm = float(np.linalg.norm(poynting))
            if norm == 0.0:
                raise TraceFormatError("far-field sample carries no power flow")
            rhat = poynting / norm
            f_e, discrepancy = far_field_from_sample(e, h, rhat, r_ff)
        f_e.flags.writeable = False
        object.__setattr__(self, "f", f_e)
        object.__setattr__(self, "eh_discrepancy", discrepancy)
        if self.direction is None:
            object.__setattr__(self, "direction", _direction_of(rhat))


def _check_transversal(f: np.ndarray, direction: Direction) -> None:
    """Raise :class:`TraceFormatError` unless a far-field record is transversal to ``direction``.

    Checked on ``f`` scaled to a largest part of 1, so a record near the float limit
    cannot overflow the norm.
    """
    g = f / (float(np.max(np.abs(f.view(float)))) or 1.0)
    if abs(unit_vector(direction) @ g) > TRANSVERSALITY_TOL * np.linalg.norm(g):
        raise TraceFormatError(
            "far-field record is not transversal to the direction "
            f"theta={direction.theta_deg:g} deg, phi={direction.phi_deg:g} deg"
        )


def _parse_floats(text: str, count: int, path, lineno: int, what: str) -> list[float]:
    """The ``count`` comma-separated numbers of ``text``, the ``what`` of line ``lineno``."""
    parts = text.split(",")  # float() strips the whitespace around each value
    if len(parts) != count:
        raise TraceFormatError(f"{path}:{lineno}: {what}: expected {count} comma-separated values")
    try:
        return list(map(float, parts))
    except ValueError as exc:
        raise TraceFormatError(f"{path}:{lineno}: {what}: non-numeric value") from exc


def import_trace(path: str | Path) -> FieldTrace:
    """Read and validate a trace file.

    Raises
    ------
    TraceFormatError
        For schema violations (a line that is not UTF-8, missing headers, a
        repeated record, bad row shape, non-monotone radii, non-finite values).
    InconsistentFarField
        When the far-field record fails the E/H cross-check.
    """
    f_vec = None
    sample = None
    direction = None
    data_header = None
    seen: set[str] = set()
    rows: list[list[float]] = []
    # streamed, so the row cap bounds memory; a byte that is not UTF-8 reads as a surrogate
    with open(path, encoding="utf-8", errors="surrogateescape") as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise TraceFormatError(f"{path}:{lineno}: not UTF-8 text") from None
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                key, sep, value = body.partition("=")
                if not sep:
                    continue  # plain comment
                key = key.strip().lower()
                value = value.strip()
                if key in seen:
                    raise TraceFormatError(f"{path}:{lineno}: duplicate record {key!r}")
                if key in ("trace_version", "ff_f", "ff_sample", "direction"):
                    seen.add(key)
                if key == "trace_version":
                    (version,) = _parse_floats(value, 1, path, lineno, "trace_version")
                    if version != TRACE_VERSION:
                        raise TraceFormatError(
                            f"{path}:{lineno}: unsupported trace version {value!r}"
                        )
                elif key == "ff_f":
                    f_vec = _parse_floats(value, 6, path, lineno, "ff_f")
                elif key == "ff_sample":
                    sample = _parse_floats(value, 13, path, lineno, "ff_sample")
                elif key == "direction":
                    theta, phi = _parse_floats(value, 2, path, lineno, "direction")
                    try:
                        direction = Direction(theta, phi)
                    except ValueError as exc:
                        raise TraceFormatError(f"{path}:{lineno}: direction: {exc}") from exc
                # other commented records are ignored
                continue
            if data_header is None:
                if line.replace(" ", "") != TRACE_DATA_HEADER:
                    raise TraceFormatError(
                        f"{path}:{lineno}: expected data header {TRACE_DATA_HEADER!r}"
                    )
                data_header = line
                continue
            if len(rows) == MAX_GRID_POINTS:
                raise TraceFormatError(f"{path}:{lineno}: more than {MAX_GRID_POINTS} data rows")
            rows.append(_parse_floats(line, 13, path, lineno, "data row"))

    if data_header is None:
        raise TraceFormatError(f"{path}: missing data header")
    if not rows:
        raise TraceFormatError(f"{path}: no data rows")
    if (f_vec is None) == (sample is None):
        raise TraceFormatError(
            f"{path}: need exactly one far-field record (# ff_f or # ff_sample)"
        )

    data = np.array(rows, dtype=float)
    r = data[:, 0]
    # (re, im) pairs viewed as complex keep every bit; re + 1j * im loses a zero's sign
    e, h = data[:, 1:7].view(complex), data[:, 7:13].view(complex)
    kwargs: dict = {}
    if f_vec is not None:
        kwargs["f"] = np.array(f_vec).view(complex)
    else:
        kwargs["sample_r"] = sample[0]
        kwargs["sample_e"] = np.array(sample[1:7]).view(complex)
        kwargs["sample_h"] = np.array(sample[7:13]).view(complex)
    return FieldTrace(r=r, e=e, h=h, direction=direction, **kwargs)


def export_trace(trace: FieldTrace, path: str | Path) -> None:
    """Write a trace file that :func:`import_trace` reads back unchanged."""
    lines = [f"# trace_version = {TRACE_VERSION}"]
    if trace.sample_r is not None:
        parts = np.concatenate([trace.sample_e, trace.sample_h]).view(float)
        lines.append("# ff_sample = " + ",".join(map(_fmt, [trace.sample_r, *parts])))
    else:  # a complex array viewed as float is its (re, im) pairs
        lines.append("# ff_f = " + ",".join(map(_fmt, trace.f.view(float))))
    if trace.direction is not None:
        d = trace.direction
        lines.append(f"# direction = {_fmt(d.theta_deg)},{_fmt(d.phi_deg)}")
    lines.append(TRACE_DATA_HEADER)
    parts = np.column_stack([trace.e, trace.h]).view(float)
    lines.extend(_TRACE_ROW.format(*row) for row in np.column_stack([trace.r, parts]).tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def trace_error_curve(trace: FieldTrace, direction: Direction | None = None) -> ErrorCurve:
    """Approximation-error curve of a trace at its own radii.

    The captured fields are compared, row by row, with the spherical wave
    of the trace's own far-field record, fixed at capture time.

    Raises
    ------
    TraceFormatError
        When a field, the far-field record or a radius is so close to the
        float limit that the metric overflows float64, or when the record is
        not transversal to a ``direction`` other than the trace's own.
    """
    if direction is None:
        direction = trace.direction
    if direction is None:
        raise ValueError(
            "trace carries no direction (ff_f record without # direction): pass one explicitly"
        )
    if direction != trace.direction:
        _check_transversal(trace.f, direction)
    try:
        with np.errstate(over="raise"):
            dist = AngularFieldDistribution(direction, trace.f)
            e_ff, h_ff = auxiliary_fields(dist, trace.r)
            eps = field_mismatch(trace.e, trace.h, e_ff, h_ff)
    except FloatingPointError as exc:
        raise TraceFormatError(
            "the trace's error curve overflows float64: its fields, far-field "
            "record or radii lie too close to the float limit"
        ) from exc
    return ErrorCurve(trace.r, eps)


# ---------------------------------------------------------------------------
# sweeps and tables


def run_sweep(config: UlaConfig | TraceConfig) -> ErrorCurve:
    """The error curve described by a config; no boundary is searched.

    Grid radii that land on an element (a test line through the array) are
    singular and are dropped from the curve.  A trace is scored along its own
    direction; a config that states another one is a :class:`ConfigError`.
    """
    if isinstance(config, TraceConfig):
        trace = import_trace(config.trace_path)
        stated, own = config.direction, trace.direction
        if None not in (stated, own) and stated != own:
            raise ConfigError(
                f"the scenario states direction = {_fmt(stated.theta_deg)},"
                f"{_fmt(stated.phi_deg)}, but the trace {config.trace_path} records "
                f"direction = {_fmt(own.theta_deg)},{_fmt(own.phi_deg)}"
            )
        return trace_error_curve(trace, own or stated or FRONT)
    geometry = uniform_linear_array(config.n, config.spacing or 0.0)
    grid = default_grid(config.grid_lo, config.grid_hi, config.grid_ppd)
    grid = grid[~grid_on_element(geometry, config.direction, grid)]
    scenario = DipoleArrayScenario(geometry, config.excitation, config.direction)
    return error_sweep(scenario, config.direction, grid)


def run_boundaries(
    config: UlaConfig | TraceConfig,
) -> tuple[tuple[BoundarySpec, BoundaryResult], ...]:
    """The ``(spec, result)`` pairs of a config's boundary searches; no curve is swept."""
    if isinstance(config, TraceConfig):
        raise ConfigError("imported-trace scenarios have no boundaries; a trace has no geometry")
    if not config.boundaries:
        raise ConfigError("the scenario lists no boundaries")
    geometry = uniform_linear_array(config.n, config.spacing or 0.0)
    (results,) = evaluate_boundaries(geometry, config.boundaries, (config.direction,))
    return tuple(zip(config.boundaries, results))


def _curve_lines(curve: ErrorCurve) -> list[str]:
    rows = np.column_stack([curve.r, curve.epsilon]).tolist()
    return [CURVE_HEADER] + [f"{_fmt(r)},{_fmt(eps)}" for r, eps in rows]


def _boundary_lines(pairs) -> list[str]:
    lines = [BOUNDARY_HEADER]
    for spec, result in pairs:
        threshold = "" if spec.threshold is None else _fmt(spec.threshold)
        value = "" if result.value is None else _fmt(result.value)
        lines.append(f"{spec.kind},{threshold},{result.status},{value},{result.crossings}")
    return lines


def export_table(result, path: str | Path) -> None:
    """Write an :class:`ErrorCurve` or a list of ``(spec, result)`` boundary pairs as CSV.

    Curves use the ``r_lambda,epsilon`` layout; boundary lists use
    ``kind,threshold,status,value_lambda,crossings``.  Numbers carry 17
    significant digits so re-imports are bit-faithful.
    """
    lines = _curve_lines(result) if isinstance(result, ErrorCurve) else _boundary_lines(result)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# reference-figure reproduction


_FIGURE_EXCITATIONS = (("ff", EXCITATION_STEER), ("nf", EXCITATION_FOCUS))
_FIG4_BOUNDARIES = (
    BoundarySpec("qr"),
    BoundarySpec("ar"),
    BoundarySpec("up", 0.9),
    BoundarySpec("up", 0.8),
    BoundarySpec("en", 1.01),
    BoundarySpec("en", 1.05),
    BoundarySpec("ep", 0.99),
    BoundarySpec("ep", 1.01),
    BoundarySpec("wc", 0.001),
    BoundarySpec("wc", 0.01),
)
_FIG4_ARRAYS = ((8, 0.5, "n8"), (64, 0.5, "n64"))
_FIG5_ARRAYS = ((8, 0.5, "n8"), (15, 0.25, "n15"))


def reproduce_reference(
    figure: str,
    out_dir: str | Path,
    traces_dir: str | Path | None = None,
    grid_ppd: int = DEFAULT_GRID_PPD,
) -> list[Path]:
    """Emit the reference data tables for ``fig4`` or ``fig5``.

    ``fig4`` produces every dipole-array error curve (single element,
    plus N = 8 and N = 64 half-wavelength arrays, three directions,
    steered and focused excitations) and one boundary table per
    array/direction panel.  ``fig5`` produces the equal-aperture
    comparison curves (N = 8, d = 0.5 against N = 15, d = 0.25).  Curves
    for externally simulated antennas are emitted only for trace files
    supplied via ``traces_dir``.  An argument error (a missing trace
    directory, a ``grid_ppd`` below 1 or past the grid's point limit) or a
    trace that cannot be imported or scored is raised before ``out_dir`` is
    created.  Each curve is
    :func:`run_sweep` of one panel's config, and each array's three boundary
    tables are one :func:`nff.boundaries.evaluate_boundaries` call, which
    searches the direction-free ``wc`` once for all three.  Output is a pure
    function of the inputs: rerunning yields byte-identical files.

    Returns
    -------
    list of pathlib.Path
        The files written, in a fixed order.
    """
    if figure not in ("fig4", "fig5"):
        raise ValueError(f"unknown figure {figure!r}; expected 'fig4' or 'fig5'")
    if traces_dir is not None and not Path(traces_dir).is_dir():
        raise FileNotFoundError(f"no trace directory at {traces_dir}")
    # every config is built, and so validated, before out_dir is created
    configs = []
    if figure == "fig4":
        single = UlaConfig(n=1, excitation=EXCITATION_NONE, grid_ppd=grid_ppd)
        configs.append(("fig4_eps_n1_front.csv", single))
    for n, spacing, label in _FIG4_ARRAYS if figure == "fig4" else _FIG5_ARRAYS:
        for dir_label, direction in DIRECTION_PRESETS.items():
            for exc_label, excitation in _FIGURE_EXCITATIONS:
                config = UlaConfig(
                    n=n, spacing=spacing, direction=direction,
                    excitation=excitation, grid_ppd=grid_ppd,
                )
                configs.append((f"{figure}_eps_{label}_{dir_label}_{exc_label}.csv", config))
    default_grid(points_per_decade=grid_ppd)  # and a grid past the point limit fails here too
    traces = sorted(Path(traces_dir).glob("*.csv")) if traces_dir is not None else []
    curves = [(f"{figure}_eps_trace_{p.stem}.csv", trace_error_curve(import_trace(p)))
              for p in traces]  # scored before out_dir exists: a bad trace writes nothing
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, payload) -> None:
        target = out / name
        export_table(payload, target)
        written.append(target)

    for name, config in configs:
        emit(name, run_sweep(config))
    if figure == "fig4":
        for n, spacing, label in _FIG4_ARRAYS:
            tables = evaluate_boundaries(
                uniform_linear_array(n, spacing), _FIG4_BOUNDARIES, DIRECTION_PRESETS.values()
            )
            for dir_label, results in zip(DIRECTION_PRESETS, tables):
                pairs = tuple(zip(_FIG4_BOUNDARIES, results))
                emit(f"fig4_boundaries_{label}_{dir_label}.csv", pairs)
    for name, curve in curves:
        emit(name, curve)
    return written
