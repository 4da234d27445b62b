"""Scenario files, traces, export tables, reproduction, and the CLI."""

import subprocess
import sys

import numpy as np
import pytest

import nff
import nff.boundaries as boundaries
from nff import (
    FRONT,
    WAVENUMBER,
    BoundarySpec,
    ConfigError,
    DipoleArrayScenario,
    Direction,
    ErrorCurve,
    FieldTrace,
    InconsistentFarField,
    ScenarioConfig,
    TraceFormatError,
    analytic_angular_distribution,
    array_field,
    default_grid,
    error_sweep,
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
    with pytest.raises(ConfigError, match="need n"):
        ScenarioConfig(source="dipole-ula")
    with pytest.raises(ConfigError, match="spacing_lambda"):
        ScenarioConfig(n=8)
    with pytest.raises(ConfigError, match="trace"):
        ScenarioConfig(source="imported-trace")
    with pytest.raises(ConfigError, match="nf-bf"):
        ScenarioConfig(source="imported-trace", trace_path="t.csv", excitation="nf-bf")
    with pytest.raises(ConfigError, match="geometry"):
        ScenarioConfig(
            source="imported-trace",
            trace_path="t.csv",
            excitation="none",
            boundaries=(BoundarySpec("qr"),),
        )
    with pytest.raises(ConfigError, match="grid_lo"):
        ScenarioConfig(n=1, grid_lo=5.0, grid_hi=1.0)


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
    cfg = ScenarioConfig(n=1, grid_lo=0.5, grid_hi=50.0, grid_ppd=10)
    curve = run_sweep(cfg)
    # steering a single element is the uniform excitation: its one weight is 1
    scenario = DipoleArrayScenario(uniform_linear_array(1, 0.0))
    want = error_sweep(scenario, FRONT, curve.r)
    np.testing.assert_array_equal(curve.epsilon, want.epsilon)


def test_run_sweep_is_deterministic(tmp_path):
    cfg = ScenarioConfig(
        n=8, spacing=0.5, grid_lo=0.5, grid_hi=100.0, grid_ppd=10,
        boundaries=(BoundarySpec("qr"), BoundarySpec("ar")),
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_table(run_sweep(cfg), a)
    export_table(run_sweep(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_run_boundaries_evaluates_the_specs():
    cfg = ScenarioConfig(
        n=8, spacing=0.5, grid_lo=1.0, grid_hi=10.0, grid_ppd=5,
        boundaries=(BoundarySpec("qr"), BoundarySpec("ar")),
    )
    pairs = dict((spec.kind, res) for spec, res in run_boundaries(cfg))
    assert pairs["qr"].value == 24.5
    assert pairs["ar"].status == "found"


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


def test_trace_ff_f_needs_direction():
    grid = np.geomspace(1.0, 10.0, 5)
    trace = _make_trace(grid)
    imported = FieldTrace(r=trace.r, e=trace.e, h=trace.h, f=trace.f)
    with pytest.raises(ValueError, match="direction"):
        trace_error_curve(imported)


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


# ---------------------------------------------------------------------------
# export tables


def test_export_table_curve(tmp_path):
    curve = ErrorCurve(np.array([1.0, 2.0, 4.0]), np.array([0.25, 0.0625, 0.015625]), FRONT)
    path = tmp_path / "c.csv"
    export_table(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r_lambda,epsilon"
    assert len(lines) == 4
    assert lines[1] == "1,0.25"

    empty = ErrorCurve(np.array([]), np.array([]), FRONT)
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


def test_cli_sweep_and_override(tmp_path, capsys):
    cfg = _write(
        tmp_path, "s.cfg",
        "n = 1\ngrid_lo = 1\ngrid_hi = 10\ngrid_ppd = 5\nexcitation = none\n",
    )
    out = tmp_path / "curve.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "r_lambda,epsilon"
    n_default = len(out.read_text().splitlines())
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--grid-ppd", "10"]) == 0
    assert len(out.read_text().splitlines()) > n_default


def test_cli_error_paths(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "mystery = 1\n")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 1
    assert "unknown key" in capsys.readouterr().err
    assert main(["sweep", "--config", str(tmp_path / "absent.cfg"), "--out", str(out)]) == 2

    no_bounds = _write(tmp_path, "nb.cfg", "n = 1\n")
    assert main(["boundaries", "--config", str(no_bounds), "--out", str(out)]) == 1
    assert "no boundaries" in capsys.readouterr().err


def _sample_trace_text(sample: str) -> str:
    return f"# trace_version = 1\n# ff_sample = {sample}\n{TRACE_DATA_HEADER}\n1" + ",0" * 12 + "\n"


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
    path = str(_write(tmp_path, name, text))
    if command == "sweep":
        argv = ["sweep", "--config", path, "--out", str(tmp_path / "x.csv")]
    else:
        argv = ["validate-trace", path]
    assert main(argv) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors
    if name in ("kr.csv", "eh.csv"):
        # the far-field check names the overflow instead of a NaN discrepancy
        assert "overflow" in errors[0] and "nan" not in errors[0]


@pytest.mark.parametrize(
    "argv",
    [
        # 5 decades x 200000 + 1 = MAX_GRID_POINTS + 1 sweep radii
        ["reproduce", "--figure", "fig4", "--grid-ppd", "200000"],
        ["sweep", "--grid-ppd", "200000"],
        # 9 decades x 111112 + 1 search radii, just past the limit
        ["boundaries", "--grid-ppd", "111112"],
    ],
    ids=["reproduce", "sweep", "boundaries"],
)
def test_cli_rejects_grids_past_the_limit(tmp_path, capsys, argv):
    cfg = _write(tmp_path, "c.cfg", "n = 8\nspacing_lambda = 0.5\nboundaries = ar\n")
    where = ["--out", str(tmp_path / "out")]
    if argv[0] != "reproduce":
        where += ["--config", str(cfg)]
    assert main(argv + where) == 1
    assert "more than the limit" in capsys.readouterr().err


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


def test_cli_boundaries_reports_a_non_decaying_wc_tail(tmp_path, capsys):
    # Xi of a 1e5-wavelength pair still oscillates over the final decade of the bracket
    cfg = _write(tmp_path, "wc.cfg", "n = 2\nspacing_lambda = 1e5\nboundaries = wc\n")
    assert main(["boundaries", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: the worst-case mismatch is not decreasing"
    )


def test_cli_sweep_and_boundaries_each_do_one_job(tmp_path, capsys):
    # wc of a 1e5-wavelength pair fails its tail check, but sweep runs no search
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
    """fig4 from a fresh interpreter equals an in-process run with an empty Xi cache."""
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    proc = subprocess.Popen(
        [sys.executable, "-m", "nff", "reproduce", "--figure", "fig4", "--out", str(fresh)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        boundaries._xi_grid_samples.cache_clear()
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
