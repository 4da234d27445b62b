"""Scenario files, sweeps, trace import/export, and reference tables.

Scenario files are flat ``key = value`` text (``#`` starts a comment)::

    source = dipole-ula        # or imported-trace (needs trace = <path>)
    n = 8
    spacing_lambda = 0.5
    direction = front          # preset name or "theta,phi" in degrees
    excitation = ff-bf         # ff-bf | nf-bf | none
    grid_lo = 0.1
    grid_hi = 1e4
    grid_ppd = 100
    boundaries = qr, ar, up:0.9, en:1.05, ep:0.99, wc:0.001

Field traces are CSV with ``#`` header lines carrying the format version
and one far-field record (either the angular distribution itself, with an
optional ``# direction = theta,phi`` record in degrees, or a single
far-zone field sample), followed by rows of radius and the six complex
field components.  A trace is self-contained: importing one re-runs the
far-field consistency cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boundaries import BoundaryResult, BoundarySpec, evaluate_boundary
from .core import DIRECTION_PRESETS, Direction, cartesian_to_spherical, unit_vector
from .farfield import (
    AngularFieldDistribution, TRANSVERSALITY_TOL, auxiliary_fields, far_field_from_sample
)
from .metric import (
    DEFAULT_GRID_HI,
    DEFAULT_GRID_LO,
    DEFAULT_GRID_PPD,
    EXCITATION_FOCUS,
    EXCITATION_NONE,
    EXCITATION_STEER,
    DipoleArrayScenario,
    ErrorCurve,
    default_grid,
    error_sweep,
    field_mismatch,
    grid_on_element,
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

_SOURCES = ("dipole-ula", "imported-trace")
_EXCITATION_ALIASES = {
    "ff-bf": EXCITATION_STEER,
    "nf-bf": EXCITATION_FOCUS,
    "none": EXCITATION_NONE,
}


class ConfigError(ValueError):
    """A scenario file failed to parse or validate."""


class TraceFormatError(ValueError):
    """A trace file does not conform to the trace format."""


def _fmt(x: float) -> str:
    """Full-precision decimal rendering (17 significant digits)."""
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# scenario configuration


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated sweep scenario."""

    source: str = "dipole-ula"
    n: int | None = None
    spacing: float | None = None
    direction: Direction = DIRECTION_PRESETS["front"]
    excitation: str = EXCITATION_STEER
    grid_lo: float = DEFAULT_GRID_LO
    grid_hi: float = DEFAULT_GRID_HI
    grid_ppd: int = DEFAULT_GRID_PPD
    boundaries: tuple[BoundarySpec, ...] = ()
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.source not in _SOURCES:
            raise ConfigError(f"unknown source {self.source!r}; expected one of {_SOURCES}")
        if self.excitation not in _EXCITATION_ALIASES.values():
            raise ConfigError(f"unknown excitation {self.excitation!r}")
        if self.source == "dipole-ula":
            if self.n is None:
                raise ConfigError("dipole-ula scenarios need n")
            if not 1 <= self.n <= MAX_ELEMENTS:
                raise ConfigError(f"n must lie in 1..{MAX_ELEMENTS}, got {self.n}")
            if self.spacing is not None and not math.isfinite(self.spacing):
                raise ConfigError(f"spacing_lambda must be finite, got {self.spacing!r}")
            if self.n > 1 and (self.spacing is None or self.spacing <= 0.0):
                raise ConfigError("dipole-ula scenarios with n > 1 need spacing_lambda > 0")
        else:
            if self.trace_path is None:
                raise ConfigError("imported-trace scenarios need trace = <path>")
            if self.excitation == EXCITATION_FOCUS:
                raise ConfigError(
                    "nf-bf is not valid for imported traces: their excitation "
                    "is fixed at capture time"
                )
            if self.boundaries:
                raise ConfigError(
                    "boundary evaluation needs element positions; imported "
                    "traces do not carry a geometry"
                )
        if not (0.0 < self.grid_lo < self.grid_hi < math.inf):
            raise ConfigError(
                f"need 0 < grid_lo < grid_hi < inf, got {self.grid_lo!r}, {self.grid_hi!r}"
            )
        if self.grid_ppd < 1:
            raise ConfigError(f"grid_ppd must be >= 1, got {self.grid_ppd}")


def parse_direction(text: str) -> Direction:
    """Parse a preset name or a ``theta,phi`` degree pair."""
    name = text.strip().lower()
    if name in DIRECTION_PRESETS:
        return DIRECTION_PRESETS[name]
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(
            f"direction must be one of {sorted(DIRECTION_PRESETS)} or 'theta,phi' "
            f"in degrees, got {text!r}"
        )
    try:
        theta, phi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"direction angles must be numeric, got {text!r}") from exc
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


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file.

    Raises
    ------
    ConfigError
        With the offending line number for parse errors, or a semantic
        message for invalid combinations.
    """
    raw: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip().lower()
        value = value.strip()
        if key not in (
            "source",
            "n",
            "spacing_lambda",
            "direction",
            "excitation",
            "grid_lo",
            "grid_hi",
            "grid_ppd",
            "boundaries",
            "trace",
        ):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    kwargs: dict = {}
    try:
        if "source" in raw:
            kwargs["source"] = raw["source"].lower()
        if "n" in raw:
            kwargs["n"] = int(raw["n"])
        if "spacing_lambda" in raw:
            kwargs["spacing"] = float(raw["spacing_lambda"])
        if "direction" in raw:
            kwargs["direction"] = parse_direction(raw["direction"])
        if "excitation" in raw:
            exc_name = raw["excitation"].lower()
            if exc_name not in _EXCITATION_ALIASES:
                raise ConfigError(
                    f"unknown excitation {raw['excitation']!r}; expected one of "
                    f"{sorted(_EXCITATION_ALIASES)}"
                )
            kwargs["excitation"] = _EXCITATION_ALIASES[exc_name]
        if "grid_lo" in raw:
            kwargs["grid_lo"] = float(raw["grid_lo"])
        if "grid_hi" in raw:
            kwargs["grid_hi"] = float(raw["grid_hi"])
        if "grid_ppd" in raw:
            kwargs["grid_ppd"] = int(raw["grid_ppd"])
        if "boundaries" in raw:
            kwargs["boundaries"] = parse_boundaries(raw["boundaries"])
        if "trace" in raw:
            kwargs["trace_path"] = raw["trace"]
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return ScenarioConfig(**kwargs)


# ---------------------------------------------------------------------------
# field traces


@dataclass(frozen=True, eq=False)
class FieldTrace:
    """Sampled fields along a test line plus one far-field record.

    Exactly one far-field description is present: ``f`` directly, or a
    far-zone ``(E, H)`` sample at ``sample_r`` from which ``f`` and the
    line direction are recovered (and cross-checked) on construction.
    """

    r: np.ndarray
    e: np.ndarray
    h: np.ndarray
    f: np.ndarray | None = None
    sample_r: float | None = None
    sample_e: np.ndarray | None = None
    sample_h: np.ndarray | None = None
    direction: Direction | None = None
    eh_discrepancy: float | None = None

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
        if not np.all(np.diff(r) > 0.0):
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
            f = np.asarray(self.f, dtype=complex).reshape(3)
            if not np.all(np.isfinite(f)):
                raise TraceFormatError("far-field record values must be finite")
            f.flags.writeable = False
            object.__setattr__(self, "f", f)
            # checked on f scaled to a largest part of 1, so values near the float
            # limit cannot overflow the norm
            scale = float(np.max(np.abs(f.view(float))))
            if self.direction is not None and scale > 0.0:
                g = f / scale
                if abs(unit_vector(self.direction) @ g) > TRANSVERSALITY_TOL * np.linalg.norm(g):
                    raise TraceFormatError(
                        "far-field record is not transversal to the stated direction"
                    )

    def _resolve_sample(self) -> None:
        """Recover f, direction, and the E/H residual from the sample."""
        r_ff = float(self.sample_r)
        e = np.asarray(self.sample_e, dtype=complex).reshape(3)
        h = np.asarray(self.sample_h, dtype=complex).reshape(3)
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
            object.__setattr__(self, "direction", cartesian_to_spherical(rhat).direction)


def _parse_floats(text: str, expected: int, what: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise TraceFormatError(f"{what}: expected {expected} comma-separated values")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise TraceFormatError(f"{what}: non-numeric value") from exc
    return values


def import_trace(path: str | Path) -> FieldTrace:
    """Read and validate a trace file.

    Raises
    ------
    TraceFormatError
        For schema violations (missing headers, bad row shape,
        non-monotone radii, non-finite values).
    InconsistentFarField
        When the far-field record fails the E/H cross-check.
    """
    f_vec = None
    sample = None
    direction = None
    data_header = None
    rows: list[list[float]] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
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
            if key == "trace_version":
                (version,) = _parse_floats(value, 1, f"{path}:{lineno}: trace_version")
                if version != TRACE_VERSION:
                    raise TraceFormatError(
                        f"{path}:{lineno}: unsupported trace version {value!r}"
                    )
            elif key == "ff_f":
                vals = _parse_floats(value, 6, f"{path}:{lineno}: ff_f")
                f_vec = np.array(
                    [complex(vals[0], vals[1]), complex(vals[2], vals[3]), complex(vals[4], vals[5])]
                )
            elif key == "ff_sample":
                vals = _parse_floats(value, 13, f"{path}:{lineno}: ff_sample")
                sample = vals
            elif key == "direction":
                where = f"{path}:{lineno}: direction"
                theta, phi = _parse_floats(value, 2, where)
                try:
                    direction = Direction(theta, phi)
                except ValueError as exc:
                    raise TraceFormatError(f"{where}: {exc}") from exc
            # other commented records are ignored
            continue
        if data_header is None:
            if line.replace(" ", "") != TRACE_DATA_HEADER:
                raise TraceFormatError(
                    f"{path}:{lineno}: expected data header {TRACE_DATA_HEADER!r}"
                )
            data_header = line
            continue
        rows.append(_parse_floats(line, 13, f"{path}:{lineno}: data row"))

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
    e = data[:, 1:7:2] + 1j * data[:, 2:8:2]
    h = data[:, 7:13:2] + 1j * data[:, 8:14:2]
    kwargs: dict = {}
    if f_vec is not None:
        kwargs["f"] = f_vec
    else:
        kwargs["sample_r"] = sample[0]
        kwargs["sample_e"] = np.array(
            [complex(sample[1], sample[2]), complex(sample[3], sample[4]), complex(sample[5], sample[6])]
        )
        kwargs["sample_h"] = np.array(
            [complex(sample[7], sample[8]), complex(sample[9], sample[10]), complex(sample[11], sample[12])]
        )
    return FieldTrace(r=r, e=e, h=h, direction=direction, **kwargs)


def export_trace(trace: FieldTrace, path: str | Path) -> None:
    """Write a trace file that :func:`import_trace` reads back unchanged."""
    lines = [f"# trace_version = {TRACE_VERSION}"]
    if trace.sample_r is not None:
        parts = [_fmt(trace.sample_r)]
        for vec in (trace.sample_e, trace.sample_h):
            for comp in np.asarray(vec, dtype=complex).reshape(3):
                parts.extend([_fmt(comp.real), _fmt(comp.imag)])
        lines.append("# ff_sample = " + ",".join(parts))
    else:
        parts = []
        for comp in trace.f:
            parts.extend([_fmt(comp.real), _fmt(comp.imag)])
        lines.append("# ff_f = " + ",".join(parts))
        if trace.direction is not None:
            d = trace.direction
            lines.append(f"# direction = {_fmt(d.theta_deg)},{_fmt(d.phi_deg)}")
    lines.append(TRACE_DATA_HEADER)
    for i in range(trace.r.size):
        fields = [_fmt(float(trace.r[i]))]
        for vec in (trace.e[i], trace.h[i]):
            for comp in vec:
                fields.extend([_fmt(comp.real), _fmt(comp.imag)])
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def trace_error_curve(trace: FieldTrace, direction: Direction | None = None) -> ErrorCurve:
    """Approximation-error curve of a trace at its own radii.

    The captured fields are compared, row by row, with the spherical wave
    of the trace's own far-field record, fixed at capture time.
    """
    if direction is None:
        direction = trace.direction
    if direction is None:
        raise ValueError(
            "trace carries no direction (ff_f record without # direction): pass one explicitly"
        )
    dist = AngularFieldDistribution(direction, trace.f)
    e_ff, h_ff = auxiliary_fields(dist, trace.r)
    eps = field_mismatch(trace.e, trace.h, e_ff, h_ff)
    return ErrorCurve(trace.r, eps, direction)


# ---------------------------------------------------------------------------
# sweeps and tables


def run_sweep(config: ScenarioConfig) -> ErrorCurve:
    """The error curve described by a config; no boundary is searched.

    Grid radii that land on an element (a test line through the array) are
    singular and are dropped from the curve.
    """
    if config.source == "imported-trace":
        trace = import_trace(config.trace_path)
        return trace_error_curve(trace, trace.direction or config.direction)
    geometry = uniform_linear_array(config.n, config.spacing or 0.0)
    grid = default_grid(config.grid_lo, config.grid_hi, config.grid_ppd)
    grid = grid[~grid_on_element(geometry, config.direction, grid)]
    scenario = DipoleArrayScenario(geometry, config.excitation, config.direction)
    return error_sweep(scenario, config.direction, grid)


def run_boundaries(
    config: ScenarioConfig, *, search_points_per_decade: int | None = None
) -> tuple[tuple[BoundarySpec, BoundaryResult], ...]:
    """The ``(spec, result)`` pairs of a config's boundary searches; no curve is swept."""
    if not config.boundaries:
        raise ConfigError("the scenario lists no boundaries")
    geometry = uniform_linear_array(config.n, config.spacing or 0.0)
    kw = {}
    if search_points_per_decade is not None:
        kw["points_per_decade"] = search_points_per_decade
    return tuple(
        (spec, evaluate_boundary(geometry, spec, config.direction, **kw))
        for spec in config.boundaries
    )


def _curve_lines(curve: ErrorCurve) -> list[str]:
    lines = [CURVE_HEADER]
    for r, eps in zip(curve.r, curve.epsilon):
        lines.append(f"{_fmt(float(r))},{_fmt(float(eps))}")
    return lines


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
    supplied via ``traces_dir``.  Each curve is :func:`run_sweep` and each
    boundary table :func:`run_boundaries` of one panel's config.  Output is
    a pure function of the inputs: rerunning yields byte-identical files.

    Returns
    -------
    list of pathlib.Path
        The files written, in a fixed order.
    """
    if figure not in ("fig4", "fig5"):
        raise ValueError(f"unknown figure {figure!r}; expected 'fig4' or 'fig5'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, payload) -> None:
        target = out / name
        export_table(payload, target)
        written.append(target)

    def curves(arrays) -> None:
        for n, spacing, label in arrays:
            for dir_label, direction in DIRECTION_PRESETS.items():
                for exc_label, excitation in _FIGURE_EXCITATIONS:
                    config = ScenarioConfig(
                        n=n, spacing=spacing, direction=direction,
                        excitation=excitation, grid_ppd=grid_ppd,
                    )
                    emit(f"{figure}_eps_{label}_{dir_label}_{exc_label}.csv", run_sweep(config))

    if figure == "fig4":
        single = ScenarioConfig(n=1, excitation=EXCITATION_NONE, grid_ppd=grid_ppd)
        emit("fig4_eps_n1_front.csv", run_sweep(single))
        curves(_FIG4_ARRAYS)
        for n, spacing, label in _FIG4_ARRAYS:
            for dir_label, direction in DIRECTION_PRESETS.items():
                config = ScenarioConfig(
                    n=n, spacing=spacing, direction=direction, boundaries=_FIG4_BOUNDARIES
                )
                emit(f"fig4_boundaries_{label}_{dir_label}.csv", run_boundaries(config))
    else:
        curves(_FIG5_ARRAYS)

    if traces_dir is not None:
        for trace_file in sorted(Path(traces_dir).glob("*.csv")):
            trace = import_trace(trace_file)
            curve = trace_error_curve(trace)
            emit(f"{figure}_eps_trace_{trace_file.stem}.csv", curve)
    return written
