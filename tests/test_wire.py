"""The trace path on a field from outside the package: the thin-wire dipole (``wire.py``).

Every other trace is captured from the package's own ``array_field``; these take the wire's
closed form, check it against Maxwell's equations and its Hertzian limit, and carry it
through ``export_trace`` → ``import_trace`` → ``trace_error_curve`` and ``nff reproduce
--traces``, as a solver's export would arrive.
"""

import math

import numpy as np
import pytest
from test_sources import _curl, _jacobians
from wire import wire_far_field, wire_fields

from nff import (
    FREE_SPACE_IMPEDANCE,
    WAVENUMBER,
    DipoleArrayScenario,
    Direction,
    FieldTrace,
    default_grid,
    error_sweep,
    export_table,
    export_trace,
    import_trace,
    trace_error_curve,
    uniform_linear_array,
    unit_vector,
)
from nff.cli import main

K = WAVENUMBER
Z0 = FREE_SPACE_IMPEDANCE
#: An oblique line, off the wire's axis and its broadside plane.
LINE = Direction(60.0, 30.0)
#: The half-wave and full-wave wires.
HALF_LENGTHS = {"half_wave": 0.25, "full_wave": 0.5}


def _wire_trace(h: float, sample_r: float | None = None) -> FieldTrace:
    """The wire's fields on the default grid along :data:`LINE`, with its closed-form ``f``
    and the line's direction, or with one far-zone sample at ``sample_r`` and no direction."""
    grid = default_grid()
    rhat = unit_vector(LINE)
    e, hf = wire_fields(grid[:, None] * rhat, h)
    if sample_r is None:
        return FieldTrace(r=grid, e=e, h=hf, f=wire_far_field(LINE, h), direction=LINE)
    se, sh = wire_fields(sample_r * rhat, h)
    return FieldTrace(r=grid, e=e, h=hf, sample_r=sample_r, sample_e=se, sample_h=sh)


@pytest.mark.parametrize("h", HALF_LENGTHS.values())
def test_wire_fields_satisfy_maxwell(h):
    # central differences of step 1e-4 wavelengths leave a residual of about (k step)^2 / 6,
    # 7e-8; a wrong sign or factor in any term leaves one of order 1
    rng = np.random.default_rng(21)
    points = []
    while len(points) < 12:
        u = rng.normal(size=3)
        p = u / np.linalg.norm(u) * rng.uniform(0.5, 50.0)
        if math.hypot(p[0], p[1]) > 0.3:  # off the wire's axis
            points.append(p)
    for p in points:
        je, jh = _jacobians(lambda q: wire_fields(q, h), p)
        e, hf = wire_fields(p, h)
        faraday = np.linalg.norm(_curl(je) + 1j * K * Z0 * hf) / (K * Z0 * np.linalg.norm(hf))
        ampere = np.linalg.norm(_curl(jh) - 1j * (K / Z0) * e) / ((K / Z0) * np.linalg.norm(e))
        assert faraday < 1e-6 and ampere < 1e-6, p


def test_a_short_wire_scores_as_a_hertzian_dipole():
    # as h -> 0 the wire is a z-directed Hertzian dipole, the N = 1 "none" scenario, up to
    # O((kh)^2); past about 1e3 wavelengths the wire's three terms cancel to rounding
    h = 3e-3
    trace = _wire_trace(h)
    keep = trace.r <= 1e3
    got = trace_error_curve(trace).epsilon[keep]
    scenario = DipoleArrayScenario(uniform_linear_array(1, 0.5), "none", LINE)
    want = error_sweep(scenario, LINE, trace.r[keep]).epsilon
    np.testing.assert_allclose(got, want, rtol=(K * h) ** 2)


@pytest.mark.parametrize("h", HALF_LENGTHS.values())
def test_wire_traces_round_trip_both_far_field_records(tmp_path, h):
    stated = _wire_trace(h)
    path = tmp_path / "ff_f.csv"
    export_trace(stated, path)
    back = import_trace(path)
    for name in ("r", "e", "h", "f"):
        assert getattr(back, name).tobytes() == getattr(stated, name).tobytes()
    assert back.direction == LINE
    curve = trace_error_curve(back)
    assert curve.epsilon.tobytes() == trace_error_curve(stated).epsilon.tobytes()
    # far from the wire, epsilon falls as 1 / r^2; the next term is O(1 / (kr)^2) relative,
    # 2.5e-6 at 1e2 wavelengths
    far = curve.r >= 1e2
    tail = curve.r[far] ** 2 * curve.epsilon[far]
    assert np.ptp(tail) <= 1e-4 * tail.min()

    # a far-zone sample recovers f to the far-zone tolerance and the direction from its
    # power flow; f off by delta moves each sqrt(epsilon) by at most 2 delta
    sample_r = 1e6
    path = tmp_path / "ff_sample.csv"
    export_trace(_wire_trace(h, sample_r), path)
    sampled = import_trace(path)
    assert sampled.sample_r == sample_r
    delta = np.linalg.norm(sampled.f - stated.f) / np.linalg.norm(sampled.f)
    assert delta <= 10.0 / (K * sample_r)
    assert sampled.direction.theta_deg == pytest.approx(LINE.theta_deg, abs=1e-9)
    assert sampled.direction.phi_deg == pytest.approx(LINE.phi_deg, abs=1e-9)
    got = np.sqrt(trace_error_curve(sampled).epsilon)
    assert np.max(np.abs(got - np.sqrt(curve.epsilon))) <= 2.0 * delta


def test_reproduce_scores_wire_traces_beside_the_arrays(tmp_path):
    traces = tmp_path / "traces"
    traces.mkdir()
    export_trace(_wire_trace(HALF_LENGTHS["half_wave"]), traces / "half_wave.csv")
    export_trace(_wire_trace(HALF_LENGTHS["full_wave"], 1e6), traces / "full_wave.csv")
    plain, with_traces = tmp_path / "plain", tmp_path / "with_traces"
    assert main(["reproduce", "--figure", "fig5", "--out", str(plain)]) == 0
    argv = ["reproduce", "--figure", "fig5", "--out", str(with_traces), "--traces", str(traces)]
    assert main(argv) == 0
    arrays = sorted(p.name for p in plain.iterdir())
    assert len(arrays) == 12
    names = sorted(p.name for p in with_traces.iterdir())
    assert names == sorted(arrays + ["fig5_eps_trace_full_wave.csv",
                                     "fig5_eps_trace_half_wave.csv"])
    for name in arrays:
        assert (with_traces / name).read_bytes() == (plain / name).read_bytes(), name
    for stem in HALF_LENGTHS:
        want = tmp_path / f"{stem}.csv"
        export_table(trace_error_curve(import_trace(traces / f"{stem}.csv")), want)
        assert (with_traces / f"fig5_eps_trace_{stem}.csv").read_bytes() == want.read_bytes()
