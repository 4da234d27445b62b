"""Field-mismatch metric and radial error sweeps."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from nff import (
    FREE_SPACE_IMPEDANCE,
    FRONT,
    SIDE,
    WAVENUMBER,
    AngularFieldDistribution,
    ArrayGeometry,
    DipoleArrayScenario,
    Direction,
    ErrorCurve,
    FieldTrace,
    analytic_angular_distribution,
    array_field,
    auxiliary_fields,
    default_grid,
    error_sweep,
    export_trace,
    field_mismatch,
    import_trace,
    trace_error_curve,
    uniform_linear_array,
    unit_vector,
)
from nff import metric, sources
from nff.core import _SCAN_PAIRS, _line_constants, _line_distance
from nff.metric import MAX_GRID_POINTS, grid_on_element
from nff.sources import on_element

Z0 = FREE_SPACE_IMPEDANCE
K = WAVENUMBER


def _dipole_epsilon_oracle(r):
    """Closed-form epsilon of a single z-dipole observed at theta = 90 deg.

    With x = 1/(j k r): the H phasor differs from its far field by
    delta_H = x and the E phasor by delta_E = x - 1/(kr)^2; stacking and
    normalizing gives
    epsilon = (sqrt(|dE|^2+|dH|^2) / (sqrt(|1+dE|^2+|1+dH|^2) + sqrt(2)))^2.
    """
    kr = K * np.asarray(r, dtype=float)
    d_h = 1.0 / (1j * kr)
    d_e = 1.0 / (1j * kr) - 1.0 / kr**2
    num = np.sqrt(np.abs(d_e) ** 2 + np.abs(d_h) ** 2)
    den = np.sqrt(np.abs(1.0 + d_e) ** 2 + np.abs(1.0 + d_h) ** 2) + math.sqrt(2.0)
    return (num / den) ** 2


# ---------------------------------------------------------------------------
# the metric itself


def test_field_mismatch_examples():
    e = np.array([1.0 + 1.0j, 0.5, -2.0j])
    h = np.array([0.0, 1.0 - 0.5j, 0.25])
    assert field_mismatch(e, h, e, h) == 0.0
    assert field_mismatch(e, h, -e, -h) == 1.0
    assert field_mismatch(e, h, 0 * e, 0 * h) == 1.0
    assert field_mismatch(0 * e, 0 * h, 0 * e, 0 * h) == 0.0


def test_field_mismatch_holds_across_the_float_range():
    # squared, rows scaled by 2**-540 underflowed to a perfect match and rows scaled by
    # 2**520 overflowed to NaN; each row is now scaled by its own power of two first
    e = np.array([1.0 + 1.0j, 0.5, -2.0j])
    h = np.array([0.0, 1.0 - 0.5j, 0.25])
    want = field_mismatch(e, h, 1.01 * e, h)
    assert want == pytest.approx(8.39e-10, rel=1e-3)
    scale = np.ldexp(1.0, np.arange(-1000, 1001))[:, None]
    mu = field_mismatch(scale * e, scale * h, scale * (1.01 * e), scale * h)
    assert np.max(np.abs(mu - want)) <= 1e-14 * want
    for k in (-540, 520):
        assert field_mismatch(2.0**k * e, 2.0**k * h, 2.0**k * (1.01 * e), 2.0**k * h) == (
            pytest.approx(want, rel=1e-14)
        )
    # one field pair against three rows: each row keeps its own scale
    rows = scale[[0, 1000, 2000]] * np.array([1.01 * e, 0.5 * e, -e])
    mu = field_mismatch(e, h, rows, h)
    assert np.array_equal(mu, [field_mismatch(e, h, row, h) for row in rows])


def test_field_mismatch_range_and_scale_invariance():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        shape = (100_000, 3)
        e, h, e_ff, h_ff = (
            rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(4)
        )
        mu = field_mismatch(e, h, e_ff, h_ff)
        assert np.all(mu >= 0.0) and np.all(mu <= 1.0)

        c = (rng.normal(size=(100_000, 1)) + 1j * rng.normal(size=(100_000, 1)))
        c[np.abs(c) < 1e-3] = 1.0
        mu_c = field_mismatch(c * e, c * h, c * e_ff, c * h_ff)
        assert np.max(np.abs(mu_c - mu)) <= 1e-12


def test_field_mismatch_symmetry():
    rng = np.random.default_rng(55)
    e, h, e_ff, h_ff = (rng.normal(size=(5000, 3)) + 1j * rng.normal(size=(5000, 3))
                        for _ in range(4))
    fwd = field_mismatch(e, h, e_ff, h_ff)
    rev = field_mismatch(e_ff, h_ff, e, h)
    np.testing.assert_array_equal(fwd, rev)


def test_field_mismatch_detects_perturbations():
    rng = np.random.default_rng(99)
    for _ in range(2000):
        e, h = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2))
        delta = rng.normal(size=3) + 1j * rng.normal(size=3)
        scale = 10.0 ** rng.uniform(-7, 0)
        e_ff = e + scale * delta
        denom = (np.sqrt(np.sum(np.abs(e) ** 2) / Z0 + Z0 * np.sum(np.abs(h) ** 2))
                 + np.sqrt(np.sum(np.abs(e_ff) ** 2) / Z0 + Z0 * np.sum(np.abs(h) ** 2)))
        if scale * np.linalg.norm(delta) / math.sqrt(Z0) > 1e-8 * denom:
            assert field_mismatch(e, h, e_ff, h) > 0.0


# ---------------------------------------------------------------------------
# scenarios and sweeps


def test_single_dipole_matches_closed_form_everywhere():
    scenario = DipoleArrayScenario(uniform_linear_array(1, 0.5))
    curve = error_sweep(scenario, FRONT, default_grid())
    oracle = _dipole_epsilon_oracle(curve.r)
    assert np.max(np.abs(curve.epsilon - oracle)) <= 1e-12


def test_single_dipole_tail_slope():
    scenario = DipoleArrayScenario(uniform_linear_array(1, 0.5))
    grid = np.geomspace(1e2, 1e3, 41)
    curve = error_sweep(scenario, FRONT, grid)
    slope = np.polyfit(np.log10(curve.r), np.log10(curve.epsilon), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_steered_sweep_tail_is_small():
    geo = uniform_linear_array(8, 0.5)
    scenario = DipoleArrayScenario(geo, "ff-bf", FRONT)
    curve = error_sweep(scenario, FRONT, np.array([1.0e4]))
    assert curve.epsilon[0] < 1e-6


def test_focus_and_steer_converge_far_out():
    geo = uniform_linear_array(8, 0.5)
    steer = DipoleArrayScenario(geo, "ff-bf", FRONT)
    focus = DipoleArrayScenario(geo, "nf-bf")
    r = np.array([1e3])
    ratio = error_sweep(focus, FRONT, r).epsilon[0] / error_sweep(steer, FRONT, r).epsilon[0]
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_perfect_far_field_scenario_has_zero_error():
    # fields that are exactly the spherical wave of their own f score zero
    dist = AngularFieldDistribution(FRONT, np.array([0.0, 1.5 - 0.5j, 1.0j]))
    grid = default_grid(0.1, 1e3, 25)
    e, h = auxiliary_fields(dist, grid)
    curve = trace_error_curve(FieldTrace(r=grid, e=e, h=h, f=dist.f, direction=FRONT))
    assert np.max(curve.epsilon) <= 1e-12


def test_error_sweep_rejects_bad_grids():
    geo = uniform_linear_array(8, 0.5)
    scenario = DipoleArrayScenario(geo)
    with pytest.raises(ValueError, match="increasing"):
        error_sweep(scenario, FRONT, np.array([2.0, 1.0]))
    with pytest.raises(ValueError, match="positive"):
        error_sweep(scenario, FRONT, np.array([-1.0, 1.0]))
    # the side line passes through the elements of a y-axis array
    for excitation in ("ff-bf", "nf-bf", "none"):
        scenario = DipoleArrayScenario(geo, excitation, FRONT)
        with pytest.raises(ValueError, match=r"singular at r = 0\.75\b"):
            error_sweep(scenario, SIDE, np.array([0.5, 0.75, 1.0]))


def test_error_curve_validation():
    with pytest.raises(ValueError, match="increasing"):
        ErrorCurve(np.array([1.0, 1.0]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        ErrorCurve(np.array([1.0, 2.0]), np.array([0.1, 1.5]))
    curve = ErrorCurve(np.array([1.0, 2.0]), np.array([0.2, 0.1]))
    assert len(curve) == 2
    with pytest.raises(ValueError):
        curve.r[0] = 5.0  # frozen storage


def test_scenario_validation():
    geo = uniform_linear_array(4, 0.5)
    with pytest.raises(ValueError, match="excitation"):
        DipoleArrayScenario(geo, "zf-bf")
    with pytest.raises(ValueError, match="steering"):
        DipoleArrayScenario(geo, "ff-bf")


def test_default_grid_shape_and_validation():
    grid = default_grid()
    assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(1e4)
    assert grid.size == 501
    with pytest.raises(ValueError):
        default_grid(1.0, 0.5)
    with pytest.raises(ValueError):
        default_grid(points_per_decade=0)


def test_default_grid_point_limit():
    assert default_grid(1.0, 10.0, MAX_GRID_POINTS - 1).size == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="limit"):
        default_grid(1.0, 10.0, MAX_GRID_POINTS)  # one point over
    with pytest.raises(ValueError, match="more than the limit"):
        default_grid(0.1, 1e4, int("1" * 400))  # too large for any float


def test_grid_on_element_needs_no_full_temporaries():
    geo = uniform_linear_array(1024, 0.5)
    grid = np.sort(np.concatenate([default_grid(), [0.75, 100.25]]))
    tracemalloc.start()
    try:
        mask = grid_on_element(geo, SIDE, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # one (503, 1024, 3) offset array alone is 11.8 MiB
    dists = np.linalg.norm(grid[:, None, None] * unit_vector(SIDE) - geo.positions, axis=-1)
    assert np.array_equal(mask, np.any(dists < 1e-9, axis=1))
    assert np.count_nonzero(mask) == 2


def _grid_on_element_reference(geometry, direction, grid):
    """Every radius against every element: the O(grid x N) form the closed form replaced."""
    t, w = _line_constants(geometry.positions, unit_vector(direction))
    return np.any(on_element(_line_distance(grid[:, None] - t, w)), axis=1)


def test_grid_on_element_matches_the_full_pass():
    # SIDE lines run through their elements: the grid holds each element's place, radii a
    # fraction or a few SINGULARITY_RADIUS off it, and lines a hair off the array's axis
    cases = [(uniform_linear_array(n, spacing), direction)
             for n in (1, 2, 3, 8, 15, 64, 1024) for spacing in (0.1, 0.5, 1.7)
             for direction in (SIDE, Direction(90.0, 90.0 - 1e-8), Direction(90.0, 270.0))]
    offsets = np.array([0.0, 3e-10, -3e-10, 9.99e-10, -9.99e-10, 1.01e-9, 2.5e-9, -4e-9])
    tiny = [1e-12, 5e-10, 9.99e-10, 1.01e-9, 3e-9]  # the element an odd array has at 0
    hits = 0
    for geometry, direction in cases:
        t = geometry.positions @ unit_vector(direction)
        ends = t[t > 0.0]
        grid = np.unique(np.concatenate(
            [default_grid(), np.add.outer(ends, offsets).ravel(), tiny]
        ))
        grid = grid[grid > 0.0]
        mask = grid_on_element(geometry, direction, grid)
        want = _grid_on_element_reference(geometry, direction, grid)
        assert np.array_equal(mask, want)
        hits += np.count_nonzero(want)
    assert hits > 1000
    # elements just off the line, by less and by more than SINGULARITY_RADIUS; near the
    # origin, where w = |r_n|^2 - t_n^2 resolves offsets that small
    geometry = ArrayGeometry([[0.0, s * y, s * z] for s in (1.0, -1.0)
                              for y, z in ((0.002, 5e-10), (0.003, 1.5e-9), (0.004, 0.0))])
    grid = np.array([0.001, 0.002, 0.002 + 5e-10, 0.003, 0.004 - 1e-9, 0.004, 0.004 + 9e-10, 0.005])
    assert np.array_equal(grid_on_element(geometry, SIDE, grid),
                          _grid_on_element_reference(geometry, SIDE, grid))
    assert grid_on_element(geometry, SIDE, grid).tolist() == [
        False, True, True, False, False, True, True, False
    ]


def test_field_mismatch_batch_matches_rows():
    # a row scored alone and inside a batch is squared the same way, so
    # the two agree bit for bit (C pow on a scalar did not, in 12 of 20000)
    rng = np.random.default_rng(2026)
    shape = (20000, 3)
    e, h, e_ff, h_ff = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(4))
    h, h_ff = h / math.sqrt(Z0), h_ff / math.sqrt(Z0)
    batch = field_mismatch(e, h, e_ff, h_ff)
    rows = np.array([field_mismatch(*v) for v in zip(e, h, e_ff, h_ff)])
    assert np.array_equal(batch, rows)


def _tilted_array(n, seed):
    """A seeded cloud of ``n`` elements about the origin with tilted dipole axes."""
    rng = np.random.default_rng(seed)
    positions = rng.normal(scale=2.0, size=(n, 3))
    return ArrayGeometry(positions - positions.mean(axis=0), rng.normal(size=(n, 3)))


@pytest.mark.parametrize("n", [1, 8, 64, 1024, "tilted"])
@pytest.mark.parametrize("excitation", ["ff-bf", "nf-bf", "none"])
def test_error_sweep_blocks_match_single_radii(n, excitation):
    # on a z-dipole ULA several line constants vanish or coincide; the tilted cloud has none
    geo = _tilted_array(24, 5) if n == "tilted" else uniform_linear_array(n, 0.5)
    direction = Direction(90.0, 30.0)
    scenario = DipoleArrayScenario(geo, excitation, direction)
    block = max(1, _SCAN_PAIRS // (4 * geo.n))
    grid = np.geomspace(0.1, 1e4, 2 * block + 3)  # two full blocks and a partial one
    curve = error_sweep(scenario, direction, grid)
    single = [error_sweep(scenario, direction, grid[i : i + 1]).epsilon[0] for i in range(grid.size)]
    assert np.array_equal(curve.epsilon, single)


def _reference_sweep(scenario, direction, grid):
    """epsilon from array_field's Cartesian fields and the analytic far field, all at once."""
    points = grid[:, None] * unit_vector(direction)
    w = scenario.weights(points)
    e, h = array_field(scenario.geometry, w, points)
    dist = analytic_angular_distribution(scenario.geometry, w, direction)
    return field_mismatch(e, h, *auxiliary_fields(dist, grid))


def test_error_sweep_matches_the_cartesian_reference():
    # the line kernel reorders the sums of array_field, so they agree to rounding only;
    # seeded clouds with tilted dipoles leave no line constant trivial
    rng = np.random.default_rng(26)
    grid = np.geomspace(0.1, 1e4, 61)
    worst = 0.0
    for seed in range(36):
        geo = _tilted_array(int(rng.integers(1, 65)), seed)
        direction = Direction(float(rng.uniform(0.0, 180.0)), float(rng.uniform(0.0, 360.0)))
        steering = Direction(float(rng.uniform(0.0, 180.0)), float(rng.uniform(0.0, 360.0)))
        for excitation in ("ff-bf", "nf-bf", "none"):
            scenario = DipoleArrayScenario(geo, excitation, steering)
            eps = error_sweep(scenario, direction, grid).epsilon
            want = _reference_sweep(scenario, direction, grid)
            worst = max(worst, float(np.max(np.abs(eps - want) / want)))
    assert worst <= 1e-9


@pytest.mark.parametrize("n", [1, 8, 64, 1024])
@pytest.mark.parametrize("excitation", ["ff-bf", "none"])
def test_error_sweep_matches_its_captured_trace(tmp_path, n, excitation):
    # a line captured one radius at a time through scenario.fields, as an external solver
    # would, and read back as a trace scores the sweep's own curve: both take the phase
    # exp(-jkd) from the same point-element distances
    geo = uniform_linear_array(n, 0.5)
    grid = default_grid()
    path = tmp_path / "trace.csv"
    for direction in (FRONT, SIDE, Direction(63.0, 211.0)):
        scenario = DipoleArrayScenario(geo, excitation, direction)
        rhat = unit_vector(direction)
        e, h = zip(*(scenario.fields(r * rhat) for r in grid))
        f = scenario.angular_distribution(direction, float(grid[-1])).f
        export_trace(FieldTrace(r=grid, e=e, h=h, f=f, direction=direction), path)
        trace_eps = trace_error_curve(import_trace(path), direction).epsilon
        sweep_eps = error_sweep(scenario, direction, grid).epsilon
        assert np.max(np.abs(trace_eps - sweep_eps)) <= 1e-12


@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("excitation", ["ff-bf", "nf-bf", "none"])
def test_error_sweep_chunks_match_single_radii(n, excitation):
    # far fields and the mismatch are taken a chunk of radii at a time: this grid spans
    # several chunks and a partial one
    geo = uniform_linear_array(n, 0.5)
    direction = Direction(70.0, 20.0)
    scenario = DipoleArrayScenario(geo, excitation, direction)
    grid = np.geomspace(0.1, 1e4, 2 * 1024 + 3)
    curve = error_sweep(scenario, direction, grid)
    single = [error_sweep(scenario, direction, grid[i : i + 1]).epsilon[0] for i in range(grid.size)]
    assert np.array_equal(curve.epsilon, single)


@pytest.mark.parametrize("excitation", ["ff-bf", "nf-bf", "none"])
def test_error_sweep_scores_the_default_grid_in_one_pass(monkeypatch, excitation):
    # far fields and the mismatch once per sweep, not once per block of radius-element
    # pairs (251 blocks at N = 1024); f of fixed weights once, from the (N,) weights
    calls = {"analytic_angular_distribution": 0, "auxiliary_fields": 0, "field_mismatch": 0}

    def spy(name):
        real = getattr(metric, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(metric, name, spy(name))
    scenario = DipoleArrayScenario(uniform_linear_array(1024, 0.5), excitation, FRONT)
    curve = error_sweep(scenario, Direction(80.0, 10.0), default_grid())
    assert len(curve) == 501
    assert calls == {
        "analytic_angular_distribution": 0 if excitation == "nf-bf" else 1,
        "auxiliary_fields": 1,
        "field_mismatch": 1,
    }


@pytest.mark.parametrize("excitation", ["ff-bf", "nf-bf", "none"])
def test_error_sweep_takes_distances_once_per_block(monkeypatch, excitation):
    # each field block reads its point-element distances from one _point_offsets call and
    # forms the fields on the line: no precoder and no Cartesian array_field pass
    real = sources._point_offsets
    calls = []

    def counted(points, positions):
        calls.append(np.shape(points))
        return real(points, positions)

    def refused(*args):
        raise AssertionError("the sweep called a Cartesian field or weight kernel")

    monkeypatch.setattr(sources, "_point_offsets", counted)
    monkeypatch.setattr(metric, "nf_precoder", refused)
    monkeypatch.setattr(metric, "array_field", refused)
    geo = uniform_linear_array(64, 0.5)
    block = _SCAN_PAIRS // (4 * 64)
    grid = np.geomspace(0.1, 1e4, 2 * block + 3)
    curve = error_sweep(DipoleArrayScenario(geo, excitation, FRONT), FRONT, grid)
    assert calls == [(block, 3), (block, 3), (3, 3)]
    assert curve.epsilon.shape == grid.shape


def test_error_sweep_memory_is_one_block():
    geo = uniform_linear_array(4096, 0.5)
    scenario = DipoleArrayScenario(geo, "nf-bf")
    grid = default_grid()
    tracemalloc.start()
    try:
        error_sweep(scenario, FRONT, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (501, 4096, 3) complex field array alone is 94 MiB, and one block
    # (a single radius at this N) peaks at about 1.6 MiB
    assert peak < 3 * 2**20


@pytest.mark.parametrize("excitation", ["ff-bf", "nf-bf", "none"])
def test_error_sweep_memory_is_flat_in_grid_length(excitation):
    scenario = DipoleArrayScenario(uniform_linear_array(1, 0.5), excitation, FRONT)
    grid = np.geomspace(0.1, 1e4, 200_000)
    error_sweep(scenario, FRONT, grid[:3])  # numpy's first-call set-up is not the sweep's
    tracemalloc.start()
    try:
        error_sweep(scenario, FRONT, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the curve's epsilon is 1.5 MiB; one (200000, 3) complex field array alone is 9.2 MiB
    assert peak < 2 * 2**20


def test_single_point_calls_keep_their_shapes():
    direction = Direction(70.0, 20.0)
    rhat = unit_vector(direction)
    radii = np.array([0.7, 3.0, 40.0])
    for n, excitation in itertools.product((1, 8, 64, 1024), ("ff-bf", "nf-bf", "none")):
        geo = uniform_linear_array(n, 0.5)
        scenario = DipoleArrayScenario(geo, excitation, direction)
        e, h = scenario.fields(radii[:, None] * rhat)
        f = scenario.angular_distribution(direction, radii).f
        assert e.shape == h.shape == f.shape == (3, 3)
        for i, r in enumerate(radii):
            e1, h1 = scenario.fields(r * rhat)
            f1 = scenario.angular_distribution(direction, float(r)).f
            assert e1.shape == h1.shape == f1.shape == (3,)
            assert np.array_equal(e1, e[i]) and np.array_equal(h1, h[i])
            assert np.array_equal(f1, f[i])
            w = scenario.weights(r * rhat)
            assert w.shape == (n,)
            e2, h2 = array_field(geo, w, r * rhat)
            assert np.array_equal(e2, e1) and np.array_equal(h2, h1)
