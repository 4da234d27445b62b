"""Correctness checks for every workload's outputs.

Outputs are compared against values recorded at the commit that
introduced the benchmark (``reference/*.json``: fig4's 19 tables and
the default seed of each generated workload) and, on every seed,
against oracles written here from the textbook formulas, independently
of nff's code.  Values agree within a stated tolerance, never byte for
byte; statuses, crossing counts and degeneracy flags must match
exactly.  Each check returns a list of problems, empty when the output
is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0

#: Against recorded values: wide enough for a reordered sum or the
#: ~6e-7 relative residual of a rewritten ``Xi`` kernel, far below what
#: a wrong formula moves.
EPS_RTOL = 1e-5
EPS_ATOL = 1e-14
VALUE_RTOL = 1e-5
#: Against the oracle: near the far field epsilon is the square of a
#: ~1e-5 difference, so ~1e-11 rad of phase rounding at r = 1e4
#: wavelengths moves it by up to a few 1e-6 relative.
ORACLE_RTOL = 1e-4
ORACLE_ATOL = 1e-15
#: A trace round trip writes 17 significant digits and must reproduce
#: the curve it was captured from.
TRACE_ATOL = 1e-12
#: Relative step either side of a bisected boundary at which the
#: criterion must lie on opposite sides of its threshold (the search
#: refines to 1e-6).
CROSSING_STEP = 1e-5
#: Sampled grid indices of each sweep curve checked against the oracle
#: and the recorded reference.
SAMPLE_STRIDE = 25

K = 2.0 * math.pi  # wavenumber at unit wavelength
Z0 = 376.730313668
AR_THRESHOLD = math.pi / 8.0
SEARCH_BRACKET = (1.0e-3, 1.0e6)
SEARCH_GRID = np.geomspace(SEARCH_BRACKET[0], SEARCH_BRACKET[1], 3601)
#: How each kind turns its criterion into a radius (README's table).
SEARCH_MODES = {"ar": "first-below", "up": "first-above", "en": "last-above", "ep": "last-below"}


def load_reference(name: str):
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def sweep_grid() -> np.ndarray:
    """The default sweep grid: 0.1 .. 1e4 wavelengths, 100 per decade."""
    return np.geomspace(0.1, 1.0e4, 501)


def _offsets(n: int, spacing: float) -> np.ndarray:
    """Signed y offsets of a centered uniform linear array."""
    return (np.arange(1, n + 1) - (n + 1) / 2.0) * (spacing if n > 1 else 0.0)


def _rhat(theta_deg: float, phi_deg: float) -> np.ndarray:
    t, p = math.radians(theta_deg), math.radians(phi_deg)
    return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])


def _path_excess(r: np.ndarray, t: np.ndarray, n2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance ``d = |r rhat - r_n|`` and ``d - r + t`` without cancellation."""
    d = np.sqrt((r - t) ** 2 + (n2 - t * t))
    return d, (n2 - t * t) / (d + r - t)


def _spherical_basis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin(theta), theta-hat and phi-hat of unit vectors ``v`` (..., 3)."""
    sin_t = np.hypot(v[..., 0], v[..., 1])
    phi = np.arctan2(v[..., 1], v[..., 0])
    cos_t = v[..., 2]
    theta_hat = np.stack(
        [cos_t * np.cos(phi), cos_t * np.sin(phi), -sin_t], axis=-1
    )
    phi_hat = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
    return sin_t, theta_hat, phi_hat


def oracle_epsilon(op: dict, radii: np.ndarray) -> np.ndarray:
    """Field mismatch of a z-dipole ULA from the spherical-component forms.

    Every element field and the far-field reference carry a common
    ``exp(-jkr)`` that the normalized mismatch ignores, so phases are
    taken relative to it through the cancellation-free path excess.
    """
    y = _offsets(op["n"], op["spacing"])
    rhat = _rhat(op["theta"], op["phi"])
    r = np.asarray(radii, dtype=float)[:, None]
    t = y[None, :] * rhat[1]
    d, excess = _path_excess(r, t, (y * y)[None, :])
    rel = excess - t  # d - r
    if op["excitation"] == "ff-bf":
        w = np.exp(-1j * K * t) * np.ones_like(r)
    elif op["excitation"] == "nf-bf":
        w = np.exp(1j * K * rel)  # exp(+jk d), less the common exp(+jkr)
    else:
        w = np.ones_like(d, dtype=complex)
    # element-local unit vectors and spherical components
    vec = r[..., None] * rhat - np.stack([np.zeros_like(y), y, np.zeros_like(y)], -1)
    vhat = vec / d[..., None]
    sin_t, th_hat, ph_hat = _spherical_basis(vhat)
    kd = K * d
    phase = w * np.exp(-1j * K * rel)
    e_r = Z0 / (2 * math.pi * d**2) * (1 + 1 / (1j * kd)) * vhat[..., 2]
    e_t = 1j * Z0 * K / (4 * math.pi * d) * (1 + 1 / (1j * kd) - 1 / kd**2) * sin_t
    h_p = 1j * K / (4 * math.pi * d) * (1 + 1 / (1j * kd)) * sin_t
    e = np.sum(phase[..., None] * (e_r[..., None] * vhat + e_t[..., None] * th_hat), axis=1)
    h = np.sum((phase * h_p)[..., None] * ph_hat, axis=1)
    # far field: E_theta = j Z0 k sin(theta) / (4 pi r) per element, phase exp(+jk rhat.r_n)
    s0, th0, ph0 = _spherical_basis(rhat)
    e_ff_t = np.sum(w * np.exp(1j * K * t), axis=1) * (1j * Z0 * K * s0 / (4 * math.pi * r[:, 0]))
    e_ff = e_ff_t[:, None] * th0
    h_ff = (e_ff_t / Z0)[:, None] * ph0

    def norm(ev, hv):
        return np.sqrt(np.sum(np.abs(ev) ** 2, -1) / Z0 + Z0 * np.sum(np.abs(hv) ** 2, -1))

    num = norm(e - e_ff, h - h_ff)
    den = norm(e, h) + norm(e_ff, h_ff)
    return np.where(den == 0, 0.0, np.minimum((num / np.where(den == 0, 1, den)) ** 2, 1.0))


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rtol * np.abs(want) + atol)
    )


def check_curve(op: dict, r, eps, trace_eps=None, reference=None) -> list[str]:
    """Problems with one sweep curve (empty list when it is correct)."""
    r = np.asarray(r, dtype=float)
    eps = np.asarray(eps, dtype=float)
    grid = sweep_grid()
    if r.shape != grid.shape or not _close(r, grid, 1e-12):
        return ["radii differ from the default 501-point grid"]
    problems = []
    if not (np.all(np.isfinite(eps)) and np.all((eps >= 0) & (eps <= 1))):
        problems.append("epsilon outside [0, 1]")
        return problems
    idx = np.arange(0, grid.size) if op["n"] == 1 else np.arange(0, grid.size, SAMPLE_STRIDE)
    want = oracle_epsilon(op, grid[idx])
    if not _close(eps[idx], want, ORACLE_RTOL, ORACLE_ATOL):
        worst = float(np.max(np.abs(eps[idx] - want) / np.maximum(want, ORACLE_ATOL)))
        problems.append(f"epsilon disagrees with the oracle (worst relative {worst:.3e})")
    if op.get("trace"):
        if trace_eps is None or not _close(trace_eps, eps, 0.0, TRACE_ATOL):
            problems.append("trace round trip changed the curve")
    if reference is not None:
        ref_idx = np.arange(0, grid.size, SAMPLE_STRIDE)
        if not _close(eps[ref_idx], reference, EPS_RTOL, EPS_ATOL):
            problems.append("epsilon disagrees with the recorded reference")
    return problems


def oracle_criterion(op: dict, radii) -> np.ndarray:
    """The boundary criterion of ``op['kind']`` at each radius."""
    y = _offsets(op["n"], op["spacing"])
    rhat = _rhat(op["theta"], op["phi"])
    r = np.atleast_1d(np.asarray(radii, dtype=float))[:, None]
    t = y[None, :] * rhat[1]
    d, excess = _path_excess(r, t, (y * y)[None, :])
    kind = op["kind"]
    if kind == "ar":
        return np.maximum(K * np.max(excess, axis=1), 0.0)
    if kind == "up":
        proj = r[:, 0] * rhat[0]  # boresight +x; elements sit on the y axis
        flat = np.abs(proj) <= 1e-9 * np.maximum(1.0, r[:, 0])
        g = np.where(flat[:, None], 1.0, np.abs(proj)[:, None]) / d**3
        return np.min(g, axis=1) / np.max(g, axis=1)
    if kind == "en":
        focus = np.abs(np.sum(1.0 / d, axis=1))
        steer = np.abs(np.sum(np.exp(-1j * K * excess) / d, axis=1))
        return focus / steer
    if kind == "ep":
        return r[:, 0] ** 2 / op["n"] * np.sum(1.0 / d**2, axis=1)
    raise ValueError(f"no criterion for kind {kind!r}")


def _satisfied(mode: str, values, threshold: float) -> np.ndarray:
    values = np.asarray(values)
    return values <= threshold if mode.endswith("below") else values >= threshold


def check_search(op: dict, result: dict, reference=None) -> list[str]:
    """Problems with one boundary result ``{status, value, crossings, degenerate}``."""
    problems = []
    if reference is not None:
        for key in ("status", "crossings", "degenerate"):
            if result[key] != reference[key]:
                problems.append(f"{key} {result[key]!r} != recorded {reference[key]!r}")
        if (result["value"] is None) != (reference["value"] is None) or (
            result["value"] is not None
            and not _close(result["value"], reference["value"], VALUE_RTOL)
        ):
            problems.append(f"value {result['value']!r} != recorded {reference['value']!r}")
    status, value = result["status"], result["value"]
    kind = op["kind"]
    span = (op["n"] - 1) * op["spacing"]
    if kind == "qr":
        if status != "found" or value is None or not _close(value, 2 * span * span, 1e-12):
            problems.append(f"qr {value!r} != 2 D^2 = {2 * span * span!r}")
        return problems
    mode = SEARCH_MODES[kind]
    threshold = AR_THRESHOLD if op["threshold"] is None else op["threshold"]
    lo, hi = SEARCH_BRACKET
    if status == "found" and value is not None and result["degenerate"]:
        if not (mode.startswith("first") and value == lo):
            problems.append("degenerate result away from the bracket start")
        elif not _satisfied(mode, oracle_criterion(op, lo), threshold)[0]:
            problems.append("criterion not met at the bracket start")
    elif status == "found" and value is not None:
        if not (lo < value < hi) or result["crossings"] < 1:
            problems.append(f"found value {value!r} with {result['crossings']} crossings")
        else:
            inside, outside = (
                (value * (1 + CROSSING_STEP), value * (1 - CROSSING_STEP))
                if mode.startswith("first")
                else (value * (1 - CROSSING_STEP), value * (1 + CROSSING_STEP))
            )
            ok = _satisfied(mode, oracle_criterion(op, [inside, outside]), threshold)
            if not (ok[0] and not ok[1]):
                problems.append(f"criterion does not cross {threshold!r} at {value!r}")
    elif status == "unbounded":
        if not mode.startswith("last") or not _satisfied(
            mode, oracle_criterion(op, hi), threshold
        )[0]:
            problems.append("unbounded, but the criterion is not met at the bracket end")
    elif status == "not-found":
        if np.any(_satisfied(mode, oracle_criterion(op, SEARCH_GRID[::40]), threshold)):
            problems.append("not-found, but the criterion is met on the search grid")
    else:
        problems.append(f"unknown status {status!r}")
    return problems


# ---------------------------------------------------------------------------
# fig4 tables


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_fig4_table(path: Path, reference: dict) -> list[str]:
    """Problems with one fig4 CSV against its recorded reference."""
    if not path.is_file():
        return ["missing"]
    try:
        header, rows = read_table(path)
    except (OSError, UnicodeDecodeError, csv.Error, IndexError) as exc:
        return [f"unreadable: {exc}"]
    try:
        if "epsilon" in reference:
            if header != ["r_lambda", "epsilon"]:
                return [f"unexpected header {header!r}"]
            r = [float(row[0]) for row in rows]
            eps = [float(row[1]) for row in rows]
            problems = []
            want_r = np.delete(sweep_grid(), reference["dropped"])
            if not _close(r, want_r, 1e-12):
                problems.append("radii differ from the reference grid")
            elif not _close(eps, reference["epsilon"], EPS_RTOL, EPS_ATOL):
                problems.append("epsilon disagrees with the recorded reference")
            return problems
        if header != ["kind", "threshold", "status", "value_lambda", "crossings"]:
            return [f"unexpected header {header!r}"]
        if len(rows) != len(reference["rows"]):
            return [f"{len(rows)} rows, recorded {len(reference['rows'])}"]
        problems = []
        for got, want in zip(rows, reference["rows"]):
            kind, threshold, status, value, crossings = got
            if [kind, threshold, status, int(crossings)] != [want[0], want[1], want[2], want[4]]:
                problems.append(f"row {got!r} != recorded {want!r}")
            elif (value == "") != (want[3] is None) or (
                value != "" and not _close(float(value), want[3], VALUE_RTOL)
            ):
                problems.append(f"{kind}:{threshold} value {value!r} != recorded {want[3]!r}")
        return problems
    except (ValueError, IndexError) as exc:
        return [f"malformed table: {exc}"]


def check_fig4(out_dir: Path, reference: dict) -> dict[str, list[str]]:
    """Problems per expected fig4 table; unexpected extra files also count."""
    result = {name: check_fig4_table(out_dir / name, ref) for name, ref in reference.items()}
    for extra in sorted(p.name for p in out_dir.glob("*.csv") if p.name not in reference):
        result[extra] = ["not in the recorded figure"]
    return result
