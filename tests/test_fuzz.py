"""Property tests of the text parsers: any input gives a valid object or the parser's own error.

Each strategy mixes free text with near-valid structure (known keys, numbers
at the edges of the float range, record lines of the right and wrong
length), so the examples reach validation code and not only the tokenizer.
Examples are derandomized, so every run checks the same inputs.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nff import (
    BoundarySpec,
    ConfigError,
    Direction,
    FieldTrace,
    InconsistentFarField,
    ScenarioConfig,
    TraceFormatError,
    import_trace,
    load_scenario,
    parse_boundaries,
    parse_direction,
    trace_error_curve,
)
from nff.harness import TRACE_DATA_HEADER

FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Text that can be stored in a UTF-8 file (no lone surrogates).
TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=40)

FINITE = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "1e-300", "1e300", "-1e300", "1e308"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)

NUMBER = st.one_of(
    FINITE,
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.integers(10**300, 10**400).map(str),
    st.sampled_from(["", "nan", "-inf", "1e999", "-0.0", "5e-324", "0x10", "1_0", " 7 "]),
    st.text("0123456789.-+e", max_size=8),
)

DIRECTION_TEXT = st.one_of(
    st.sampled_from(["front", "SIDE", " diagonal ", "back"]),
    st.tuples(NUMBER, NUMBER).map(",".join),
    st.lists(NUMBER, max_size=4).map(",".join),
    TEXT,
)

BOUNDARY_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["qr", "ar", "up", "en", "ep", "wc", "WC", "xx", ""]),
        st.tuples(st.sampled_from(["qr", "ar", "up", "en", "ep", "wc"]), NUMBER).map(":".join),
        TEXT,
    ),
    max_size=5,
).map(",".join)

SCENARIO_KEYS = [
    "source", "n", "spacing_lambda", "direction", "excitation",
    "grid_lo", "grid_hi", "grid_ppd", "boundaries", "trace",
]

SCENARIO_LINE = st.one_of(
    st.tuples(
        st.sampled_from(SCENARIO_KEYS) | TEXT,
        st.sampled_from([" = ", "=", " "]),
        st.one_of(
            NUMBER,
            DIRECTION_TEXT,
            BOUNDARY_TEXT,
            st.sampled_from(["dipole-ula", "imported-trace", "ff-bf", "nf-bf", "none", "t.csv"]),
        ),
    ).map("".join),
    st.just("# comment"),
    TEXT,
)


def _csv(sizes, number=NUMBER):
    """Comma-separated numbers, as many as one of ``sizes``."""
    return st.sampled_from(sizes).flatmap(
        lambda n: st.lists(number, min_size=n, max_size=n)
    ).map(",".join)


def _far_field_line(number, sizes=(0,)):
    ff_f = _csv([6 + d for d in sizes], number).map("# ff_f = ".__add__)
    direction = _csv([2 + d for d in sizes], number).map("# direction = ".__add__)
    return st.one_of(
        ff_f,
        st.tuples(ff_f, direction).map("\n".join),
        _csv([13 + d for d in sizes], number).map("# ff_sample = ".__add__),
    )


VERSION_LINE = st.sampled_from(["1", "1.0"]).map("# trace_version = ".__add__)

TRACE_TEXT = st.one_of(
    # a complete trace layout with arbitrary finite values
    st.tuples(
        VERSION_LINE, _far_field_line(FINITE), st.lists(_csv([13], FINITE), min_size=1, max_size=3)
    ).map(lambda t: "\n".join([t[0], t[1], TRACE_DATA_HEADER, *t[2]])),
    # any mix of record lines, with wrong counts and non-numeric values
    st.lists(
        st.one_of(
            VERSION_LINE,
            NUMBER.map("# trace_version = ".__add__),
            _far_field_line(NUMBER, (0, 0, -1, 1)),
            st.just(TRACE_DATA_HEADER),
            _csv([13, 13, 12, 14]),
            TEXT,
        ),
        max_size=10,
    ).map("\n".join),
    TEXT,
)


def _write(directory, name: str, text: str):
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return path


@FUZZ
@given(text=DIRECTION_TEXT)
def test_parse_direction_fuzz(text):
    try:
        direction = parse_direction(text)
    except ConfigError:
        return
    assert isinstance(direction, Direction)


@FUZZ
@given(text=BOUNDARY_TEXT)
def test_parse_boundaries_fuzz(text):
    try:
        specs = parse_boundaries(text)
    except ConfigError:
        return
    assert all(isinstance(spec, BoundarySpec) for spec in specs)


@FUZZ
@given(text=st.lists(SCENARIO_LINE, max_size=10).map("\n".join) | TEXT)
def test_load_scenario_fuzz(tmp_path_factory, text):
    path = _write(tmp_path_factory.getbasetemp(), "fuzz.cfg", text)
    try:
        config = load_scenario(path)
    except ConfigError:
        return
    assert isinstance(config, ScenarioConfig)


def _sample_trace(sample: str) -> str:
    return f"# trace_version = 1\n# ff_sample = {sample}\n{TRACE_DATA_HEADER}\n1" + ",0" * 12


def _ff_f_trace(f: str, direction: str, row: str = "1" + ",0" * 12) -> str:
    return (
        f"# trace_version = 1\n# ff_f = {f}\n# direction = {direction}\n"
        f"{TRACE_DATA_HEADER}\n{row}"
    )


@FUZZ
@given(text=TRACE_TEXT)
# far-field samples whose E/H check met a NaN (E x H, |f_H| or k r overflows); they
# used to import with a NaN f or discrepancy, or end in a plain ValueError
@example(text=_sample_trace("1,0,0,0,0,0,1e300,0,1e300,0,0,0,0"))
@example(text=_sample_trace("1,0,0,0,0,0,1e-300,0,1e300,0,0,0,0"))
@example(text=_sample_trace("1e308,1,0,0,0,0,0,0,0,1,0,0,0"))
# a stated direction's transversality check overflowed the norm of a huge f
@example(text=_ff_f_trace("0,0,0,0,0,1e300", "0,0"))
@example(text=_ff_f_trace("0,0,0,0,1e308,1e308", "90,0"))
# the power flow of this lone z-dipole's sample points a hair below +x: its azimuth
# rounds up to 360 degrees, which is the direction phi = 0
@example(
    text=_sample_trace(
        "1000000,0,0,0,0,-2.9895162918794866e-11,-0.00018836515683399522,5e-25,0,"
        "7.9354280327811575e-14,4.9999999999999998e-07,0,0"
    )
)
# the error metric overflowed on a huge far-field record or field row, and ended in
# RuntimeWarnings and an unrelated "epsilon values must lie in [0, 1]"
@example(text=_ff_f_trace("0,0,0,0,1e300,0", "90,0"))
@example(text=_ff_f_trace("0,0,0,0,1,0", "90,0", "1,0,0,0,0,1e300,0,0,0,0,0,0,0"))
def test_import_trace_fuzz(tmp_path_factory, text):
    path = _write(tmp_path_factory.getbasetemp(), "fuzz.csv", text)
    try:
        trace = import_trace(path)
    except (TraceFormatError, InconsistentFarField):
        return
    assert isinstance(trace, FieldTrace)
    assert np.all(np.isfinite(trace.f)) and math.isfinite(trace.eh_discrepancy or 0.0)
    assert trace.direction is None or isinstance(trace.direction, Direction)
    if trace.direction is not None:
        try:
            curve = trace_error_curve(trace)
        except TraceFormatError as exc:
            assert "overflow" in str(exc)
        else:
            assert curve.r.size == trace.r.size
