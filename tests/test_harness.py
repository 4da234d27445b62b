"""Scenario files, traces, export tables, reproduction, and the CLI."""

import subprocess
import sys

import numpy as np
import pytest

import nff
import nff.boundaries as boundaries
import nff.harness as harness
from nff import (
    DIAGONAL,
    FRONT,
    SIDE,
    WAVENUMBER,
    ArrayGeometry,
    BoundarySpec,
    ConfigError,
    DipoleArrayScenario,
    Direction,
    ErrorCurve,
    FieldTrace,
    InconsistentFarField,
    TraceConfig,
    TraceFormatError,
    UlaConfig,
    analytic_angular_distribution,
    array_field,
    default_grid,
    error_sweep,
    evaluate_boundary,
    export_table,
    export_trace,
    ff_precoder,
    import_trace,
    load_scenario,
    parse_boundaries,
    parse_direction,
    reproduce_reference,
    run_boundaries,
    run_sweep,
    trace_error_curve,
    uniform_linear_array,
    unit_vector,
)
from nff.cli import main
from nff.harness import MAX_ELEMENTS, TRACE_DATA_HEADER

K = WAVENUMBER


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# scenario files


def test_load_scenario_minimal_defaults(tmp_path):
    path = _write(tmp_path, "s.cfg", "source = dipole-ula\nn = 8\nspacing_lambda = 0.5\n")
    cfg = load_scenario(path)
    assert cfg.n == 8 and cfg.spacing == 0.5
    assert cfg.direction == FRONT
    assert cfg.excitation == "ff-bf"
    assert (cfg.grid_lo, cfg.grid_hi, cfg.grid_ppd) == (0.1, 1e4, 100)
    assert cfg.boundaries == ()


def test_load_scenario_full(tmp_path):
    path = _write(
        tmp_path,
        "s.cfg",
        "# comment line\n"
        "source = dipole-ula\n"
        "n = 4\n"
        "spacing_lambda = 0.25   # trailing comment\n"
        "direction = 45, 120\n"
        "excitation = nf-bf\n"
        "grid_lo = 0.5\n"
        "grid_hi = 100\n"
        "grid_ppd = 20\n"
        "boundaries = qr, ar, up:0.8, wc:0.01\n",
    )
    cfg = load_scenario(path)
    assert cfg.direction == Direction(45.0, 120.0)
    assert cfg.excitation == "nf-bf"
    assert [s.kind for s in cfg.boundaries] == ["qr", "ar", "up", "wc"]
    assert cfg.boundaries[2].threshold == 0.8


def test_load_scenario_reports_offending_line(tmp_path):
    path = _write(tmp_path, "s.cfg", "source = dipole-ula\nn = 8\nwavelength = 2\n")
    with pytest.raises(ConfigError, match=r"s\.cfg:3.*unknown key 'wavelength'"):
        load_scenario(path)
    path = _write(tmp_path, "d.cfg", "n = 8\nn = 9\nspacing_lambda = 0.5\n")
    with pytest.raises(ConfigError, match=r"d\.cfg:2.*duplicate"):
        load_scenario(path)
    path = _write(tmp_path, "e.cfg", "just words\n")
    with pytest.raises(ConfigError, match=r"e\.cfg:1.*key = value"):
        load_scenario(path)


def test_scenario_semantic_validation(tmp_path):
    with pytest.raises(ConfigError, match="spacing_lambda"):
        UlaConfig(n=8)
    with pytest.raises(ConfigError, match="grid_lo"):
        UlaConfig(n=1, grid_lo=5.0, grid_hi=1.0)
    with pytest.raises(ConfigError, match="unknown excitation 'zf'"):
        UlaConfig(n=1, excitation="zf")
    assert UlaConfig(n=1).direction == FRONT
    assert TraceConfig("t.csv").direction is None
    # a file that lacks the key its source needs names the file and the key
    for text, message in [
        ("spacing_lambda = 0.5\n", "dipole-ula scenarios need n"),
        ("source = imported-trace\n", "imported-trace scenarios need trace"),
    ]:
        path = _write(tmp_path, "s.cfg", text)
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == f"{path}: {message}"


def test_scenario_size_limits(tmp_path):
    ok = load_scenario(_write(tmp_path, "max.cfg", f"n = {MAX_ELEMENTS}\nspacing_lambda = 0.5\n"))
    assert ok.n == MAX_ELEMENTS
    big = _write(tmp_path, "big.cfg", f"n = {MAX_ELEMENTS + 1}\nspacing_lambda = 0.5\n")
    with pytest.raises(ConfigError, match="n must lie"):
        load_scenario(big)
    for spacing in ("inf", "nan"):
        cfg = _write(tmp_path, "s.cfg", f"n = 8\nspacing_lambda = {spacing}\n")
        with pytest.raises(ConfigError, match="finite"):
            load_scenario(cfg)


def test_parse_direction():
    assert parse_direction("front") == FRONT
    assert parse_direction("SIDE") == Direction(90.0, 90.0)
    assert parse_direction(" 30 , 200 ") == Direction(30.0, 200.0)
    with pytest.raises(ConfigError):
        parse_direction("up-and-left")
    with pytest.raises(ConfigError):
        parse_direction("190, 0")


def test_parse_boundaries():
    specs = parse_boundaries("qr, en:1.01, ep")
    assert [s.kind for s in specs] == ["qr", "en", "ep"]
    assert specs[1].threshold == 1.01
    assert specs[2].threshold == 0.99
    with pytest.raises(ConfigError):
        parse_boundaries("up:high")
    with pytest.raises(ConfigError):
        parse_boundaries("zz")


# ---------------------------------------------------------------------------
# sweeps from configs


def test_run_sweep_single_element_matches_direct_engine(tmp_path):
    cfg = UlaConfig(n=1, grid_lo=0.5, grid_hi=50.0, grid_ppd=10)
    curve = run_sweep(cfg)
    # steering a single element is the uniform excitation: its one weight is 1
    scenario = DipoleArrayScenario(uniform_linear_array(1, 0.0))
    want = error_sweep(scenario, FRONT, curve.r)
    np.testing.assert_array_equal(curve.epsilon, want.epsilon)


def test_run_sweep_is_deterministic(tmp_path):
    cfg = UlaConfig(
        n=8, spacing=0.5, grid_lo=0.5, grid_hi=100.0, grid_ppd=10,
        boundaries=(BoundarySpec("qr"), BoundarySpec("ar")),
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_table(run_sweep(cfg), a)
    export_table(run_sweep(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_run_boundaries_evaluates_the_specs():
    cfg = UlaConfig(
        n=8, spacing=0.5, grid_lo=1.0, grid_hi=10.0, grid_ppd=5,
        boundaries=(BoundarySpec("qr"), BoundarySpec("ar")),
    )
    pairs = dict((spec.kind, res) for spec, res in run_boundaries(cfg))
    assert pairs["qr"].value == 24.5
    assert pairs["ar"].status == "found"


def _spy_walks(monkeypatch):
    """Radii per call of the line walk, keyed by the kinds it reads, and of ``Xi``, as the
    searches make them: a grid pass walks every line kind of a table, and a bisection call
    walks its own kind through its criterion."""
    sizes = {}
    walk, xi = boundaries._line_walk, boundaries._xi

    def line_walk(geometry, direction, kinds, r):
        sizes.setdefault(tuple(kinds), []).append(np.size(r))
        return walk(geometry, direction, kinds, r)

    def counted_xi(a, r, k):
        sizes.setdefault("_xi", []).append(np.size(r))
        return xi(a, r, k)

    monkeypatch.setattr(boundaries, "_line_walk", line_walk)
    monkeypatch.setattr(boundaries, "_xi", counted_xi)
    return sizes


def test_run_boundaries_scans_each_kind_once(monkeypatch):
    # a fig4 panel scores qr, ar, and up, en, ep and wc at two thresholds each: one line
    # walk reads ar, up, en and ep on the search grid and Xi is read there once, then the
    # bisection reads the 2^L - 1 midpoints of its next L levels per call (L = 4 at N = 8),
    # the last call of a crossing fewer
    sizes = _spy_walks(monkeypatch)
    cfg = UlaConfig(n=8, spacing=0.5, boundaries=harness._FIG4_BOUNDARIES)
    assert [spec for spec, _ in run_boundaries(cfg)] == list(harness._FIG4_BOUNDARIES)
    wc_grid = default_grid(1.75 * (1.0 + 1e-6), 1e6, boundaries.DEFAULT_POINTS_PER_DECADE)
    assert sizes.pop(("ar", "up", "en", "ep")) == [3601]
    assert sizes["_xi"].pop(0) == wc_grid.size
    assert set(sizes) == {("ar",), ("up",), ("en",), ("ep",), "_xi"}
    for got in sizes.values():
        assert got.count(15) > len(got) // 2 and set(got) <= {1, 3, 7, 15}


def test_fig4_bisects_in_batches_and_scans_xi_once_per_array(monkeypatch, tmp_path):
    # one radius per bisection step made 624 refinement calls (468 criterion, 156 Xi), one
    # Xi grid pass per table made 6, and one grid pass per line kind made 24 where one line
    # walk per table makes 6
    sizes = _spy_walks(monkeypatch)
    reproduce_reference("fig4", tmp_path)
    grid_passes = {key: sum(n > 15 for n in got) for key, got in sizes.items()}
    refinement = sum(n <= 15 for got in sizes.values() for n in got)
    assert {key: n for key, n in grid_passes.items() if n} == {
        ("ar", "up", "en", "ep"): 6, "_xi": 2
    }
    assert 3 * refinement <= 624


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


_TABLE_SPECS = harness._FIG4_BOUNDARIES + (BoundarySpec("wc", 1e9), BoundarySpec("up", 0.99999))


@pytest.mark.parametrize(
    "n, spacing, direction",
    [
        (1, 0.5, FRONT),
        (8, 0.5, DIAGONAL),
        (15, 0.5, SIDE),  # up, en and ep meet an element
        (2, 2.5e6, FRONT),  # wc has no radius to scan
    ],
)
def test_run_boundaries_equals_one_spec_at_a_time(n, spacing, direction):
    cfg = UlaConfig(n=n, spacing=spacing, direction=direction, boundaries=_TABLE_SPECS)
    table = _outcome(lambda: [res for _, res in run_boundaries(cfg)])
    geometry = uniform_linear_array(n, spacing)
    alone = [_outcome(lambda: evaluate_boundary(geometry, s, direction)) for s in _TABLE_SPECS]
    # a table stops at its first error, the one its spec raises alone
    assert table == next((o for o in alone if isinstance(o, tuple)), alone)


def _x_axis_array(n):
    """``n`` elements 2 wavelengths apart on the x axis, boresight x: the front line runs
    through them, and their projections on it change sign short of the outermost one."""
    x = (np.arange(n) - (n - 1) / 2.0) * 2.0
    return ArrayGeometry(np.column_stack([x, np.zeros(n), np.zeros(n)]), boresight=[1, 0, 0])


_EN_UP = (BoundarySpec("en"), BoundarySpec("up"))


@pytest.mark.parametrize(
    "geometry, specs, error",
    [
        pytest.param(uniform_linear_array(8, 0.5), _TABLE_SPECS, None, id="8-0.5"),
        # the side line meets an element; wc has no radius to scan
        pytest.param(uniform_linear_array(15, 0.5), _TABLE_SPECS, "FieldSingularity", id="15-0.5"),
        pytest.param(uniform_linear_array(2, 2.5e6), _TABLE_SPECS, "ValueError", id="2-2500000.0"),
        # en meets the element at r = 1 in the second block of the front line's grid, after
        # up meets mixed projections in the first, so the spec order picks the error; at
        # N = 4 the first block holds r = 1, where up too meets the element first
        pytest.param(_x_axis_array(8), _EN_UP, "FieldSingularity", id="x8-en-up"),
        pytest.param(_x_axis_array(8), _EN_UP[::-1], "UndefinedProjection", id="x8-up-en"),
        pytest.param(_x_axis_array(4), _EN_UP, "FieldSingularity", id="x4-en-up"),
        pytest.param(_x_axis_array(4), _EN_UP[::-1], "FieldSingularity", id="x4-up-en"),
    ],
)
def test_one_table_per_direction_equals_one_call_per_direction(geometry, specs, error):
    # wc is searched once for all directions; each table is the one-direction table, and
    # an error is the first one the directions meet in order.  A one-direction table is
    # each spec alone, up to the first error: the line walk it shares holds an error until
    # the spec of that kind is reached
    directions = (FRONT, DIAGONAL, SIDE, Direction(73.3, 211.7))
    tables = _outcome(lambda: boundaries.evaluate_boundaries(geometry, specs, directions))
    alone = []
    for d in directions:
        table = _outcome(lambda: boundaries.evaluate_boundaries(geometry, specs, (d,))[0])
        each = [_outcome(lambda: evaluate_boundary(geometry, spec, d)) for spec in specs]
        assert table == next((o for o in each if isinstance(o, tuple)), tuple(each))
        alone.append(table)
    errors = [o for o in alone if isinstance(o[0], type)]
    assert tables == (errors[0] if errors else tuple(alone))
    assert (errors[0][0].__name__ if errors else None) == error


# ---------------------------------------------------------------------------
# traces


def _make_trace(grid, with_sample=False):
    geo = uniform_linear_array(8, 0.5)
    w = ff_precoder(geo, FRONT)
    rhat = unit_vector(FRONT)
    e = np.empty((grid.size, 3), complex)
    h = np.empty((grid.size, 3), complex)
    for i, r in enumerate(grid):
        e[i], h[i] = array_field(geo, w, r * rhat)
    if with_sample:
        se, sh = array_field(geo, w, 1e6 * rhat)
        return FieldTrace(r=grid, e=e, h=h, sample_r=1e6, sample_e=se, sample_h=sh)
    f = analytic_angular_distribution(geo, w, FRONT).f
    return FieldTrace(r=grid, e=e, h=h, f=f, direction=FRONT)


def test_trace_round_trip_ff_f(tmp_path):
    grid = np.geomspace(0.5, 200.0, 50)
    trace = _make_trace(grid)
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    back = import_trace(path)
    np.testing.assert_array_equal(back.r, trace.r)
    np.testing.assert_array_equal(back.e, trace.e)
    np.testing.assert_array_equal(back.h, trace.h)
    np.testing.assert_array_equal(back.f, trace.f)
    assert back.direction == trace.direction

    # epsilon from the imported trace equals the in-process sweep
    scenario = DipoleArrayScenario(uniform_linear_array(8, 0.5), "ff-bf", FRONT)
    want = error_sweep(scenario, FRONT, grid)
    got = trace_error_curve(back, FRONT)
    assert np.max(np.abs(got.epsilon - want.epsilon)) < 1e-9


def test_trace_round_trip_keeps_signed_zeros(tmp_path):
    # every complex value is read as a (re, im) pair, so -0 parts come back as written
    text = (
        "# trace_version = 1\n# ff_f = 0,-0,-0,1,1,-0\n# direction = 90,0\n"
        f"{TRACE_DATA_HEADER}\n1,-0,1,0,-0,1,0,0,0,-0,-0,0,0\n"
    )
    export_trace(import_trace(_write(tmp_path, "zeros.csv", text)), tmp_path / "back.csv")
    assert (tmp_path / "back.csv").read_text() == text


def test_trace_ff_f_needs_direction():
    grid = np.geomspace(1.0, 10.0, 5)
    trace = _make_trace(grid)
    imported = FieldTrace(r=trace.r, e=trace.e, h=trace.h, f=trace.f)
    with pytest.raises(ValueError, match="direction"):
        trace_error_curve(imported)
    # a direction passed in meets the record here, so it is checked here
    with pytest.raises(TraceFormatError, match="not transversal"):
        trace_error_curve(imported, Direction(0.0, 0.0))
    assert trace_error_curve(imported, FRONT).epsilon.size == grid.size


def test_trace_eh_discrepancy_is_an_output():
    trace = _make_trace(np.geomspace(1.0, 10.0, 5))
    assert trace.eh_discrepancy is None  # an ff_f record has no E/H check
    with pytest.raises(TypeError, match="eh_discrepancy"):
        FieldTrace(r=trace.r, e=trace.e, h=trace.h, f=trace.f, eh_discrepancy=0.5)


def test_trace_sample_is_checked_against_a_stated_direction(tmp_path, capsys):
    # a lone z-dipole sampled along +x: its power flow and f = z do not fit a stated +z
    geo = uniform_linear_array(1, 0.5)
    se, sh = array_field(geo, np.ones(1), np.array([1e6, 0.0, 0.0]))
    sample = ",".join(f"{v:.17g}" for c in (*se, *sh) for v in (c.real, c.imag))
    head = f"# trace_version = 1\n# ff_sample = 1000000,{sample}\n"
    rows = f"{TRACE_DATA_HEADER}\n1" + ",0" * 12 + "\n"
    assert import_trace(_write(tmp_path, "own.csv", head + rows)).direction == FRONT
    path = _write(tmp_path, "z.csv", head + "# direction = 0,0\n" + rows)
    with pytest.raises(TraceFormatError, match="not transversal"):
        import_trace(path)
    assert main(["validate-trace", str(path)]) == 1
    assert "not transversal" in capsys.readouterr().err


def test_trace_round_trip_ff_sample(tmp_path):
    grid = np.geomspace(0.5, 200.0, 40)
    trace = _make_trace(grid, with_sample=True)
    # direction was recovered from the power flow of the far-zone sample
    assert trace.direction.theta_deg == pytest.approx(90.0, abs=1e-4)
    assert trace.eh_discrepancy is not None and trace.eh_discrepancy < 1e-5
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    back = import_trace(path)

    scenario = DipoleArrayScenario(uniform_linear_array(8, 0.5), "ff-bf", FRONT)
    want = error_sweep(scenario, FRONT, grid)
    got = trace_error_curve(back)
    assert np.max(np.abs(got.epsilon - want.epsilon)) < 1e-5

    # a stated direction travels with the sample instead of being recovered again
    stated = Direction(90.0000001, 0.0)
    trace = FieldTrace(
        r=trace.r, e=trace.e, h=trace.h, sample_r=trace.sample_r,
        sample_e=trace.sample_e, sample_h=trace.sample_h, direction=stated,
    )
    export_trace(trace, path)
    assert import_trace(path).direction == stated


def test_trace_sample_is_stored_as_read_only_vectors(tmp_path):
    # a list and a (1, 3) array are kept as complex (3,) arrays, as r, e, h and f are,
    # and the export reads them as they are, with the bytes of one value at a time
    trace = _make_trace(np.geomspace(1.0, 10.0, 5), with_sample=True)
    sample_e, sample_h = list(trace.sample_e), np.array(trace.sample_h)[None, :]
    got = FieldTrace(r=trace.r, e=trace.e, h=trace.h, sample_r=trace.sample_r,
                     sample_e=sample_e, sample_h=sample_h)
    for vec, given in ((got.sample_e, trace.sample_e), (got.sample_h, trace.sample_h)):
        assert type(vec) is np.ndarray and vec.dtype == complex and vec.shape == (3,)
        assert not vec.flags.writeable and vec.tobytes() == given.tobytes()
    assert sample_h.flags.writeable  # the caller's array is copied, not frozen
    path = tmp_path / "t.csv"
    export_trace(got, path)
    parts = [trace.sample_r]
    for comp in (*sample_e, *sample_h[0]):
        parts += [comp.real, comp.imag]
    want_line = "# ff_sample = " + ",".join(f"{x:.17g}" for x in parts)
    assert path.read_text().splitlines()[1] == want_line
    want = tmp_path / "want.csv"
    export_trace(trace, want)
    assert path.read_bytes() == want.read_bytes()


def test_trace_sample_cross_check_rejects_corruption(tmp_path):
    grid = np.geomspace(0.5, 10.0, 5)
    geo = uniform_linear_array(8, 0.5)
    w = ff_precoder(geo, FRONT)
    rhat = unit_vector(FRONT)
    e = np.empty((grid.size, 3), complex)
    h = np.empty((grid.size, 3), complex)
    for i, r in enumerate(grid):
        e[i], h[i] = array_field(geo, w, r * rhat)
    se, sh = array_field(geo, w, 1e6 * rhat)
    with pytest.raises(InconsistentFarField):
        FieldTrace(r=grid, e=e, h=h, sample_r=1e6, sample_e=se, sample_h=2.0 * sh)


def test_trace_schema_violations(tmp_path):
    grid = np.geomspace(1.0, 10.0, 6)
    trace = _make_trace(grid)
    path = tmp_path / "t.csv"
    export_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[2] == "# direction = 90,0" and lines[3].startswith("r_lambda")

    # shuffled data rows break monotonicity
    bad = lines[:4] + [lines[6], lines[5]] + lines[7:]
    p = _write(tmp_path, "bad1.csv", "\n".join(bad) + "\n")
    with pytest.raises(TraceFormatError, match="increasing"):
        import_trace(p)

    # non-finite field value
    bad = list(lines)
    bad[4] = bad[4].replace(bad[4].split(",")[1], "nan", 1)
    p = _write(tmp_path, "bad2.csv", "\n".join(bad) + "\n")
    with pytest.raises(TraceFormatError, match="finite"):
        import_trace(p)

    # wrong column count
    bad = list(lines)
    bad[4] = bad[4] + ",0"
    p = _write(tmp_path, "bad3.csv", "\n".join(bad) + "\n")
    with pytest.raises(TraceFormatError, match="13"):
        import_trace(p)

    # missing the far-field record entirely
    bad = [l for l in lines if not l.startswith("# ff_f")]
    p = _write(tmp_path, "bad4.csv", "\n".join(bad) + "\n")
    with pytest.raises(TraceFormatError, match="far-field record"):
        import_trace(p)

    # two far-field records
    bad = list(lines)
    bad.insert(2, "# ff_sample = " + ",".join(["1"] * 13))
    p = _write(tmp_path, "bad5.csv", "\n".join(bad) + "\n")
    with pytest.raises(TraceFormatError, match="exactly one"):
        import_trace(p)

    # non-finite far-field records
    for name, record in (
        ("bad8.csv", "# ff_f = nan,0,0,0,0,0"),
        ("bad9.csv", "# ff_sample = inf,0,0,0,0,1,0,0,0,1,0,0,0"),
    ):
        bad = [record if l.startswith("# ff_f") else l for l in lines]
        p = _write(tmp_path, name, "\n".join(bad) + "\n")
        with pytest.raises(TraceFormatError, match="finite"):
            import_trace(p)

    # malformed direction records name their line; a direction the record's f
    # is not transversal to is rejected too
    for name, record, match in (
        ("bad10.csv", "# direction = 90", r"bad10\.csv:3: direction: expected 2"),
        ("bad11.csv", "# direction = 90,east", r"bad11\.csv:3: direction: non-numeric"),
        ("bad12.csv", "# direction = 200,0", r"bad12\.csv:3: direction: theta"),
        ("bad13.csv", "# direction = nan,0", r"bad13\.csv:3: direction: theta"),
        ("bad14.csv", "# direction = 0,0", "not transversal"),
    ):
        bad = [record if l.startswith("# direction") else l for l in lines]
        p = _write(tmp_path, name, "\n".join(bad) + "\n")
        with pytest.raises(TraceFormatError, match=match):
            import_trace(p)

    # unsupported version
    bad = ["# trace_version = 99"] + lines[1:]
    p = _write(tmp_path, "bad6.csv", "\n".join(bad) + "\n")
    with pytest.raises(TraceFormatError, match="version"):
        import_trace(p)

    # missing data header
    bad = [l for l in lines if not l.startswith("r_lambda")]
    p = _write(tmp_path, "bad7.csv", "\n".join(bad) + "\n")
    with pytest.raises(TraceFormatError, match="header"):
        import_trace(p)


def test_trace_data_rows_parse_and_fail_by_line(tmp_path):
    # float() strips the whitespace around each value, so padded values read as they are;
    # a row with an empty or non-numeric value, or 12 or 14 values, names its file and line
    path = tmp_path / "t.csv"
    export_trace(_make_trace(np.geomspace(1.0, 10.0, 6)), path)
    lines = path.read_text().splitlines()
    values = lines[4].split(",")
    padded = lines[:4] + [" " + " ,".join(values) + "\t"] + lines[5:]
    trace = import_trace(_write(tmp_path, "padded.csv", "\n".join(padded) + "\n"))
    want = import_trace(path)
    for name in ("r", "e", "h", "f"):
        assert getattr(trace, name).tobytes() == getattr(want, name).tobytes()
    for name, row, message in (
        ("empty.csv", ",".join(values[:3] + [""] + values[4:]), "non-numeric value"),
        ("blank.csv", ",".join(values[:3] + ["  "] + values[4:]), "non-numeric value"),
        ("twelve.csv", ",".join(values[:12]), "expected 13 comma-separated values"),
        ("fourteen.csv", ",".join(values + ["0"]), "expected 13 comma-separated values"),
        ("abc.csv", ",".join(values[:5] + ["abc"] + values[6:]), "non-numeric value"),
    ):
        bad = _write(tmp_path, name, "\n".join(lines[:4] + [row] + lines[5:]) + "\n")
        with pytest.raises(TraceFormatError) as info:
            import_trace(bad)
        assert str(info.value) == f"{bad}:5: data row: {message}"


def test_trace_repeated_records_are_rejected(tmp_path, capsys):
    # a second record would silently override the first; name its line instead
    ff_f = "# ff_f = 0,0,0,0,1,0"
    for name, record in (
        ("f.csv", ff_f),
        ("v.csv", "# trace_version = 1"),
        ("d.csv", "# direction = 90,0"),
    ):
        head = f"# trace_version = 1\n{ff_f}\n# direction = 90,0\n{record}\n"
        path = _write(tmp_path, name, head + f"{TRACE_DATA_HEADER}\n1" + ",0" * 12)
        key = record[2:].split(" =")[0]
        with pytest.raises(TraceFormatError, match=rf"{name}:4: duplicate record '{key}'"):
            import_trace(path)
        assert main(["validate-trace", str(path)]) == 1
        assert "duplicate record" in capsys.readouterr().err
    sample = "# ff_sample = 1000000" + ",0" * 8 + ",1,0,0,0"
    path = _write(tmp_path, "s.csv", f"{sample}\n{sample}\n{TRACE_DATA_HEADER}\n1" + ",0" * 12)
    with pytest.raises(TraceFormatError, match=r"s\.csv:2: duplicate record 'ff_sample'"):
        import_trace(path)



def test_trace_rows_are_capped_while_streamed(tmp_path, monkeypatch, capsys):
    # a trace holds at most the grid limit of rows; the file is read line by line, so a
    # longer one stops at its first row past the cap, before bytes that do not even decode
    monkeypatch.setattr(harness, "MAX_GRID_POINTS", 3)
    head = f"# trace_version = 1\n# ff_f = 0,0,0,0,1,0\n# direction = 90,0\n{TRACE_DATA_HEADER}\n"
    rows = "".join(f"{r}" + ",0" * 12 + "\n" for r in range(1, 1000))
    ok = _write(tmp_path, "ok.csv", head + rows[: rows.index("4,")])
    assert len(import_trace(ok).r) == 3
    path = tmp_path / "long.csv"
    path.write_bytes((head + rows).encode() + b"\xff\xfe")
    with pytest.raises(TraceFormatError, match=r"long\.csv:8: more than 3 data rows"):
        import_trace(path)
    assert main(["validate-trace", str(path)]) == 1
    assert "more than 3 data rows" in capsys.readouterr().err

# ---------------------------------------------------------------------------
# export tables


def test_export_table_curve(tmp_path):
    curve = ErrorCurve(np.array([1.0, 2.0, 4.0]), np.array([0.25, 0.0625, 0.015625]))
    path = tmp_path / "c.csv"
    export_table(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r_lambda,epsilon"
    assert len(lines) == 4
    assert lines[1] == "1,0.25"

    empty = ErrorCurve(np.array([]), np.array([]))
    export_table(empty, path)
    assert path.read_text() == "r_lambda,epsilon\n"


def test_export_table_boundaries(tmp_path):
    from nff import BoundaryResult

    pairs = (
        (BoundarySpec("qr"), BoundaryResult("found", 24.5, (0.0, float("inf")), 0)),
        (BoundarySpec("ep", 1.01), BoundaryResult("unbounded", None, (1e-3, 1e6), 0)),
        (BoundarySpec("en", 1.05), BoundaryResult("not-found", None, (1e-3, 1e6), 0)),
    )
    path = tmp_path / "b.csv"
    export_table(pairs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,threshold,status,value_lambda,crossings"
    assert lines[1] == "qr,,found,24.5,0"
    assert lines[2] == "ep,1.01,unbounded,,0"
    assert lines[3] == "en,1.05,not-found,,0"


def test_exports_match_a_per_element_formatter(tmp_path):
    # the rows are formatted from Python floats; the text is what a loop over numpy
    # scalars wrote, including negative zeros, subnormals and values near the float limit
    rng = np.random.default_rng(15)
    r = np.geomspace(0.1, 1e4, 64)
    e = rng.normal(size=(64, 3)) * 10.0 ** rng.uniform(-300, 300, (64, 3)) + 1j * rng.normal(
        size=(64, 3)
    )
    h = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3)) * 1e-310
    e[0, 0], h[1, 2] = -0.0, 1.7976931348623157e308
    trace = FieldTrace(r=r, e=e, h=h, f=np.array([0.0, 1.0 + 2.0j, 3.0j]), direction=FRONT)
    curve = ErrorCurve(r, np.concatenate([[0.0, 5e-324, 1.0], rng.uniform(size=61)]))

    want_trace = []
    for i in range(trace.r.size):
        parts = [f"{x:.17g}" for v in (trace.e[i], trace.h[i]) for c in v for x in (c.real, c.imag)]
        want_trace.append(",".join([f"{float(trace.r[i]):.17g}"] + parts))
    want_curve = [f"{float(a):.17g},{float(b):.17g}" for a, b in zip(curve.r, curve.epsilon)]
    export_trace(trace, tmp_path / "t.csv")
    export_table(curve, tmp_path / "c.csv")
    assert (tmp_path / "t.csv").read_text().splitlines()[4:] == want_trace
    assert (tmp_path / "c.csv").read_text() == "\n".join(["r_lambda,epsilon"] + want_curve) + "\n"


# ---------------------------------------------------------------------------
# figure reproduction


def test_reproduce_fig4_file_set(tmp_path):
    files = reproduce_reference("fig4", tmp_path, grid_ppd=5)
    names = [p.name for p in files]
    assert len(names) == 19
    assert "fig4_eps_n1_front.csv" in names
    for label in ("n8", "n64"):
        for direction in ("front", "diagonal", "side"):
            for exc in ("ff", "nf"):
                assert f"fig4_eps_{label}_{direction}_{exc}.csv" in names
            assert f"fig4_boundaries_{label}_{direction}.csv" in names
    # boundary tables hold one row per configured spec
    table = (tmp_path / "fig4_boundaries_n8_front.csv").read_text().splitlines()
    assert len(table) == 11


def test_reproduce_fig5_file_set_and_traces(tmp_path):
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    # external traces carry a far-zone sample, so the direction travels with them
    export_trace(
        _make_trace(np.geomspace(1.0, 10.0, 5), with_sample=True),
        trace_dir / "sim_patch.csv",
    )

    out = tmp_path / "out"
    files = reproduce_reference("fig5", out, traces_dir=trace_dir, grid_ppd=5)
    names = [p.name for p in files]
    assert len(names) == 13
    for label in ("n8", "n15"):
        for direction in ("front", "diagonal", "side"):
            for exc in ("ff", "nf"):
                assert f"fig5_eps_{label}_{direction}_{exc}.csv" in names
    assert "fig5_eps_trace_sim_patch.csv" in names

    with pytest.raises(ValueError, match="fig4"):
        reproduce_reference("fig7", tmp_path)


# ---------------------------------------------------------------------------
# command-line interface


@pytest.mark.parametrize(
    "n, direction", [(64, "60,300"), (8, "15,75")], ids=["n64_60_300", "n8_15_75"]
)
def test_cli_sweeps_an_exact_array_factor_null(tmp_path, capsys, n, direction):
    # N pi sin(theta) sin(phi) is a multiple of 2 pi: f is the rounding noise of a vanishing
    # sum, transversal to within that rounding, not to within 1e-8 of its own norm
    text = f"n = {n}\nspacing_lambda = 0.5\ndirection = {direction}\nexcitation = none\n"
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(_write(tmp_path, "c.cfg", text)), "--out", str(out)]) == 0
    eps = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
    assert eps.size == 501 and np.all((eps >= 0.0) & (eps <= 1.0))


def test_cli_sweep_checks_a_config_direction_against_the_trace(tmp_path, capsys):
    # an ff_f record without # direction takes the config's: f = x is not transversal to front
    text = f"# trace_version = 1\n# ff_f = 1,0,0,0,0,0\n{TRACE_DATA_HEADER}\n1" + ",0" * 12 + "\n"
    argv = _cli_argv(tmp_path, "x_pol.csv", text, "trace-sweep")
    assert main(argv) == 1
    assert "error: far-field record is not transversal" in capsys.readouterr().err


def test_cli_sweep_and_override(tmp_path, capsys):
    # the file's grid_ppd sets the sweep density; sweep has no option to override it
    out = tmp_path / "curve.csv"
    lines = []
    for ppd in (5, 10):
        text = f"n = 1\ngrid_lo = 1\ngrid_hi = 10\ngrid_ppd = {ppd}\nexcitation = none\n"
        cfg = _write(tmp_path, "s.cfg", text)
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines.append(out.read_text().splitlines())
    assert lines[0][0] == lines[1][0] == "r_lambda,epsilon"
    assert (len(lines[0]), len(lines[1])) == (7, 12)
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--grid-ppd", "5"]) == 1
    assert "unrecognized arguments: --grid-ppd" in capsys.readouterr().err


def test_cli_error_paths(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "mystery = 1\n")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 1
    assert "unknown key" in capsys.readouterr().err
    assert main(["sweep", "--config", str(tmp_path / "absent.cfg"), "--out", str(out)]) == 2

    stray = _write(tmp_path, "st.cfg", "n = 8\nspacing_lambda = 0.5\ntrace = t.csv\n")
    assert main(["sweep", "--config", str(stray), "--out", str(out)]) == 1
    assert "read no trace" in capsys.readouterr().err
    assert not out.exists()


def _sample_trace_text(sample: str) -> str:
    return f"# trace_version = 1\n# ff_sample = {sample}\n{TRACE_DATA_HEADER}\n1" + ",0" * 12 + "\n"


def _ff_f_trace_text(f: str, row: str) -> str:
    return f"# trace_version = 1\n# ff_f = {f}\n# direction = 90,0\n{TRACE_DATA_HEADER}\n{row}\n"


def _cli_argv(tmp_path, name, text, command):
    """``main`` arguments that run ``command`` on a file ``name`` holding ``text``."""
    path = str(_write(tmp_path, name, text))
    if command == "trace-sweep":
        cfg = f"source = imported-trace\ntrace = {path}\n"
        command, path = "sweep", str(_write(tmp_path, "t.cfg", cfg))
    if command == "sweep":
        return ["sweep", "--config", path, "--out", str(tmp_path / "x.csv")]
    return ["validate-trace", path]


@pytest.mark.parametrize("command", ["sweep", "trace-sweep", "validate-trace", "reproduce"])
def test_cli_names_a_file_that_is_not_utf8(tmp_path, capsys, command):
    # bytes that do not decode end in a ConfigError naming the scenario file, or a
    # TraceFormatError naming the trace file and line, not in the codec's own message
    trace = tmp_path / "traces" / "t.csv"
    trace.parent.mkdir()
    text = _ff_f_trace_text("0,0,0,0,1,0", "1" + ",0" * 12)
    trace.write_bytes(text.replace("\n", "\n# note \xff\xfe\n", 1).encode("latin-1"))
    cfg = tmp_path / "s.cfg"
    if command == "sweep":
        cfg.write_bytes(b"n = 8\nspacing_lambda\xff = 0.5\n")
    else:
        cfg.write_text(f"source = imported-trace\ntrace = {trace}\n", encoding="utf-8")
    sweep = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
    argv = {
        "sweep": sweep,
        "trace-sweep": sweep,
        "validate-trace": ["validate-trace", str(trace)],
        "reproduce": ["reproduce", "--figure", "fig5", "--out", str(tmp_path / "out"),
                      "--traces", str(trace.parent)],
    }[command]
    assert main(argv) == 1
    if command == "sweep":
        assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text (byte 20)\n"
        with pytest.raises(ConfigError):
            load_scenario(cfg)
    else:
        assert capsys.readouterr().err == f"error: {trace}:2: not UTF-8 text\n"
        with pytest.raises(TraceFormatError):
            import_trace(trace)


@pytest.mark.parametrize("line, code", [("", 0), ("direction = front", 0),
                                        ("direction = 90,0", 0), ("direction = 30,200", 1)])
def test_cli_trace_sweep_rejects_a_direction_the_trace_does_not_record(
    tmp_path, capsys, line, code
):
    # the trace records # direction = 90,0; a file may state that direction or none
    trace = _write(tmp_path, "t.csv", _ff_f_trace_text("0,0,0,0,1,0", "1" + ",0" * 12))
    cfg = _write(tmp_path, "t.cfg", f"source = imported-trace\ntrace = {trace}\n{line}\n")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == code
    if code == 0:
        assert out.read_text() == "r_lambda,epsilon\n1,1\n"
    else:
        assert capsys.readouterr().err == (
            f"error: the scenario states direction = 30,200, but the trace {trace} "
            "records direction = 90,0\n"
        )
        assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "grid_lo = 100", "grid_hi = 200", "grid_ppd = 1", "excitation = none",
        "n = 8", "spacing_lambda = 0.5", "boundaries = qr", "excitation = nf-bf",
        # a value the trace never reads is not parsed, nor checked against the others
        "excitation = zf", "grid_lo = 5\ngrid_hi = 1",
    ],
)
def test_cli_trace_sweep_rejects_a_key_the_trace_never_reads(tmp_path, capsys, line):
    # a trace has no geometry, and is scored at its own radii with the excitation it
    # was captured with
    trace = _write(tmp_path, "t.csv", _ff_f_trace_text("0,0,0,0,1,0", "1" + ",0" * 12))
    cfg = _write(tmp_path, "t.cfg", f"source = imported-trace\ntrace = {trace}\n{line}\n")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    key = line.partition(" = ")[0]
    assert capsys.readouterr().err == f"error: {cfg}:3: imported-trace scenarios read no {key}\n"
    assert not out.exists()


def test_cli_boundaries_needs_an_array(tmp_path, capsys):
    trace = _write(tmp_path, "t.csv", _ff_f_trace_text("0,0,0,0,1,0", "1" + ",0" * 12))
    out = tmp_path / "b.csv"
    for name, text, message in [
        (
            "t.cfg", f"source = imported-trace\ntrace = {trace}\n",
            "imported-trace scenarios have no boundaries; a trace has no geometry",
        ),
        ("u.cfg", "n = 8\nspacing_lambda = 0.5\n", "the scenario lists no boundaries"),
    ]:
        cfg = _write(tmp_path, name, text)
        assert main(["boundaries", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {cfg}: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize(
    "name, text, command",
    [
        ("hi.cfg", "n = 8\nspacing_lambda = 0.5\ngrid_hi = inf\n", "sweep"),
        (
            "wide.cfg",
            "n = 8\nspacing_lambda = 0.5\ngrid_lo = 1e-300\ngrid_hi = 1e300\n",
            "sweep",
        ),
        ("v.csv", "# trace_version = inf\n", "validate-trace"),
        (
            "ff.csv",
            "# trace_version = 1\n# ff_f = nan,0,0,0,0,0\n"
            "r_lambda,ex_re,ex_im,ey_re,ey_im,ez_re,ez_im,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im\n"
            "1,0,0,0,0,1,0,0,0,1,0,0,0\n",
            "validate-trace",
        ),
        ("ppd.cfg", f"n = 8\nspacing_lambda = 0.5\ngrid_ppd = {'1' * 400}\n", "sweep"),
        # k r_ff overflows
        ("kr.csv", _sample_trace_text("1e308,1,0,0,0,0,0,0,0,1,0,0,0"), "validate-trace"),
        # E x conj(H) overflows
        ("eh.csv", _sample_trace_text("1,0,0,0,0,0,1e300,0,1e300,0,0,0,0"), "validate-trace"),
    ],
    ids=[
        "grid_hi_inf",
        "grid_span_overflows",
        "trace_version_inf",
        "ff_f_nan",
        "grid_ppd_huge",
        "ff_sample_kr_overflows",
        "ff_sample_power_overflows",
    ],
)
def test_cli_rejects_overflowing_input(tmp_path, capsys, name, text, command):
    assert main(_cli_argv(tmp_path, name, text, command)) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors
    if name in ("kr.csv", "eh.csv"):
        # the far-field check names the overflow, not a NaN
        assert "overflow" in errors[0] and "nan" not in errors[0]


@pytest.mark.parametrize(
    "f, row, command",
    [
        ("0,0,0,0,1,0", "1,0,0,0,0,1e300" + ",0" * 7, "trace-sweep"),
        ("0,0,0,0,1,0", "1,0,0,0,0,1e300" + ",0" * 7, "validate-trace"),
        ("0,0,0,0,1e300,0", "1,0,0,0,0,1" + ",0" * 7, "trace-sweep"),
        ("0,0,0,0,1e300,0", "1,0,0,0,0,1" + ",0" * 7, "validate-trace"),
    ],
    ids=[
        "data_row_near_float_limit",
        "data_row_near_float_limit_on_validate",
        "ff_f_near_float_limit",
        "ff_f_near_float_limit_on_validate",
    ],
)
def test_cli_scores_a_field_row_near_the_float_limit(tmp_path, capsys, f, row, command):
    # squared, a 1e300 field row or far-field record overflowed the metric or the
    # record's norm; each row is scaled by a power of two first, and the transversality
    # check scales the record, so the row scores as a total mismatch
    text = _ff_f_trace_text(f, row)
    assert main(_cli_argv(tmp_path, "row.csv", text, command)) == 0
    assert "error:" not in capsys.readouterr().err
    if command == "trace-sweep":
        assert (tmp_path / "x.csv").read_text().splitlines()[1:] == ["1,1"]


@pytest.mark.parametrize(
    "argv",
    [
        # 5 decades x 200000 + 1 = MAX_GRID_POINTS + 1 sweep radii
        ["reproduce", "--figure", "fig4", "--grid-ppd", "200000"],
        ["sweep"],
    ],
    ids=["reproduce", "sweep"],
)
def test_cli_rejects_grids_past_the_limit(tmp_path, capsys, argv):
    cfg = _write(tmp_path, "c.cfg", "n = 8\nspacing_lambda = 0.5\ngrid_ppd = 200000\n")
    where = ["--out", str(tmp_path / "out")]
    if argv[0] != "reproduce":
        where += ["--config", str(cfg)]
    assert main(argv + where) == 1
    assert "more than the limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "--figure", "fig4", "--out", "out", "--grid-ppd", "abc"],
        ["bogus"],
        ["reproduce", "--figure", "fig6", "--out", "out"],
        # the search grid is fixed: --grid-ppd sets the sweep grid only
        ["boundaries", "--config", "c.cfg", "--out", "x.csv", "--grid-ppd", "5"],
    ],
    ids=["grid_ppd_not_int", "unknown_command", "unknown_figure", "boundaries_grid_ppd"],
)
def test_cli_usage_errors_are_validation_errors(capsys, argv):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["boundaries", "--help"]) == 0


def test_cli_boundaries(tmp_path, capsys):
    cfg = _write(
        tmp_path, "b.cfg",
        "n = 8\nspacing_lambda = 0.5\nboundaries = qr, ar\n",
    )
    out = tmp_path / "bounds.csv"
    assert main(["boundaries", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,threshold,status,value_lambda,crossings"
    assert len(lines) == 3
    assert lines[1].startswith("qr,,found,24.5,")


def test_cli_boundaries_fixes_the_ar_threshold(tmp_path, capsys):
    # a stated ar threshold within 1e-12 of pi/8 is pi/8 itself
    cfg = _write(
        tmp_path, "ar.cfg", "n = 8\nspacing_lambda = 0.5\nboundaries = ar, ar:0.392699081698724\n"
    )
    out = tmp_path / "b.csv"
    assert main(["boundaries", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3 and lines[1] == lines[2]
    assert lines[1].startswith(f"ar,{np.pi / 8!r},found,")


def test_cli_boundaries_reports_a_non_decaying_wc_tail(tmp_path, capsys, monkeypatch):
    # Xi of a 1e5-wavelength pair decays over the final decade of the bracket
    cfg = _write(tmp_path, "wc.cfg", "n = 2\nspacing_lambda = 1e5\nboundaries = wc\n")
    out = tmp_path / "b.csv"
    assert main(["boundaries", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "wc,0.001,found,99210.599744878302,1"
    # a tail with a bump inside the final decade fails the decay check
    monkeypatch.setattr(
        boundaries, "_xi", lambda a, r, k: np.where((r > 4e5) & (r < 4.1e5), 10.0, 1.0) / r
    )
    assert main(["boundaries", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: the worst-case mismatch is not decreasing"
    )


def test_cli_boundaries_rejects_an_array_wider_than_the_bracket(tmp_path, capsys):
    # Xi needs radii past the largest element offset, here 1.25e6 > 1e6 wavelengths
    cfg = _write(tmp_path, "wide.cfg", "n = 2\nspacing_lambda = 2.5e6\nboundaries = wc\n")
    assert main(["boundaries", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 1
    err = capsys.readouterr().err
    assert "largest element offset, 1250000.0 wavelengths" in err
    assert "search bracket, 1000000.0 wavelengths" in err


def test_cli_sweep_and_boundaries_each_do_one_job(tmp_path, capsys):
    # sweep runs no boundary search, so its configured wc is never evaluated
    far = _write(tmp_path, "far.cfg", "n = 2\nspacing_lambda = 1e5\nboundaries = qr, wc\n")
    assert main(["sweep", "--config", str(far), "--out", str(tmp_path / "c.csv")]) == 0
    # the default sweep grid meets an element at r = 0.1: boundaries sweeps no curve,
    # and sweep drops that one radius
    side = _write(
        tmp_path, "side.cfg",
        "n = 2\nspacing_lambda = 0.2\ndirection = side\nboundaries = qr, ar\n",
    )
    out = tmp_path / "b.csv"
    assert main(["boundaries", "--config", str(side), "--out", str(out)]) == 0
    assert [line.split(",")[:3] for line in out.read_text().splitlines()[1:]] == [
        ["qr", "", "found"], ["ar", str(np.pi / 8).rstrip("0"), "found"]
    ]
    curve = tmp_path / "c.csv"
    assert main(["sweep", "--config", str(side), "--out", str(curve)]) == 0
    rows = [float(line.split(",")[0]) for line in curve.read_text().splitlines()[1:]]
    grid = default_grid()
    assert len(rows) == grid.size - 1 == 500
    assert rows == [r for r in grid.tolist() if r != 0.1]


def test_cli_validate_trace(tmp_path, capsys):
    path = tmp_path / "t.csv"
    export_trace(_make_trace(np.geomspace(1.0, 10.0, 5)), path)
    assert main(["validate-trace", str(path)]) == 0
    assert "5 rows" in capsys.readouterr().out

    bad = path.read_text().replace("trace_version = 1", "trace_version = 9")
    corrupt = _write(tmp_path, "c.csv", bad)
    assert main(["validate-trace", str(corrupt)]) == 1
    assert main(["validate-trace", str(tmp_path / "ghost.csv")]) == 2


def test_cli_reproduce(tmp_path, capsys):
    out = tmp_path / "repro"
    assert main(["reproduce", "--figure", "fig5", "--out", str(out), "--grid-ppd", "5"]) == 0
    assert len(list(out.glob("*.csv"))) == 12


def test_cli_reproduce_reads_an_exported_ff_f_trace(tmp_path, capsys):
    # an ff_f trace carries its direction in a # direction record
    trace = _make_trace(np.geomspace(1.0, 10.0, 5))
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    export_trace(trace, trace_dir / "sim_dipole.csv")
    assert "# direction = 90,0" in (trace_dir / "sim_dipole.csv").read_text()
    out = tmp_path / "repro"
    argv = ["reproduce", "--figure", "fig5", "--out", str(out), "--grid-ppd", "5"]
    assert main(argv + ["--traces", str(trace_dir)]) == 0
    assert len(list(out.glob("*.csv"))) == 13
    want = tmp_path / "want.csv"
    export_table(trace_error_curve(trace, FRONT), want)
    assert (out / "fig5_eps_trace_sim_dipole.csv").read_bytes() == want.read_bytes()


def test_cli_reproduce_rejects_a_grid_without_points(tmp_path, capsys):
    out = tmp_path / "repro"
    assert main(["reproduce", "--figure", "fig4", "--out", str(out), "--grid-ppd", "0"]) == 1
    assert capsys.readouterr().err == "error: grid_ppd must be >= 1, got 0\n"
    assert list(out.glob("*.csv")) == []


@pytest.mark.parametrize(
    "ppd, message",
    [
        ("0", "grid_ppd must be >= 1, got 0"),
        ("200000", "the grid would have 1000001 points, more than the limit 1000000"),
    ],
    ids=["no_points", "past_the_limit"],
)
def test_cli_reproduce_argument_errors_create_no_directory(tmp_path, capsys, ppd, message):
    # the figure's configs and grid are checked before --out is created
    out = tmp_path / "new" / "dir"
    assert main(["reproduce", "--figure", "fig4", "--out", str(out), "--grid-ppd", ppd]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "new").exists()


def test_cli_reproduce_rejects_a_missing_trace_directory(tmp_path, capsys):
    out = tmp_path / "repro"
    argv = ["reproduce", "--figure", "fig5", "--out", str(out), "--grid-ppd", "5"]
    assert main(argv + ["--traces", str(tmp_path / "absent")]) == 2
    assert "no trace directory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["not_utf8", "data_row", "no_direction"])
@pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
def test_cli_reproduce_with_a_bad_trace_writes_nothing(tmp_path, capsys, bad, existing):
    # every trace is imported and scored before --out is created, so a trace that fails
    # either step leaves --out absent, or as it was
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    export_trace(_make_trace(np.geomspace(1.0, 10.0, 5)), trace_dir / "a_good.csv")
    path = trace_dir / "b_bad.csv"
    text = _ff_f_trace_text("0,0,0,0,1,0", "1" + ",0" * 12)
    if bad == "not_utf8":
        path.write_bytes(text.replace("\n", "\n# note \xff\xfe\n", 1).encode("latin-1"))
        message = f"{path}:2: not UTF-8 text"
    elif bad == "data_row":
        path.write_text(_ff_f_trace_text("0,0,0,0,1,0", "1" + ",0" * 11), encoding="utf-8")
        message = f"{path}:5: data row: expected 13 comma-separated values"
    else:
        path.write_text(text.replace("# direction = 90,0\n", ""), encoding="utf-8")
        message = ("trace carries no direction (ff_f record without # direction): "
                   "pass one explicitly")
    out = tmp_path / "repro"
    if existing:
        out.mkdir()
        (out / "fig5_eps_n8_front_ff.csv").write_bytes(b"kept\n")
    argv = ["reproduce", "--figure", "fig5", "--out", str(out), "--grid-ppd", "5"]
    assert main(argv + ["--traces", str(trace_dir)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    if existing:
        assert [p.name for p in out.iterdir()] == ["fig5_eps_n8_front_ff.csv"]
        assert (out / "fig5_eps_n8_front_ff.csv").read_bytes() == b"kept\n"
    else:
        assert not out.exists()


def test_module_entry_point(tmp_path):
    path = tmp_path / "t.csv"
    export_trace(_make_trace(np.geomspace(1.0, 10.0, 5)), path)
    proc = subprocess.run(
        [sys.executable, "-m", "nff", "validate-trace", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "5 rows" in proc.stdout


def test_reproduction_matches_a_fresh_process(tmp_path):
    """fig4 from a fresh interpreter equals an in-process run."""
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    proc = subprocess.Popen(
        [sys.executable, "-m", "nff", "reproduce", "--figure", "fig4", "--out", str(fresh)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert main(["reproduce", "--figure", "fig4", "--out", str(here)]) == 0
        _, err = proc.communicate(timeout=600)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err
    names = sorted(p.name for p in here.glob("*.csv"))
    assert len(names) == 19 and names == sorted(p.name for p in fresh.glob("*.csv"))
    for name in names:
        assert (fresh / name).read_bytes() == (here / name).read_bytes(), name


def test_package_version():
    assert nff.__version__ == "0.1.0"
