"""Field-mismatch metric and radial error sweeps."""

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
    DipoleArrayScenario,
    Direction,
    ErrorCurve,
    array_field,
    auxiliary_fields,
    default_grid,
    error_sweep,
    field_mismatch,
    uniform_linear_array,
    unit_vector,
)
from nff.metric import BLOCK_PAIRS, MAX_GRID_POINTS, grid_on_element

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
    class _AuxScenario:
        def __init__(self, dist):
            self._dist = dist

        def fields(self, points):
            return auxiliary_fields(self._dist, np.linalg.norm(points, axis=-1))

        def angular_distribution(self, direction, r):
            return self._dist

    dist = AngularFieldDistribution(FRONT, np.array([0.0, 1.5 - 0.5j, 1.0j]))
    scenario = _AuxScenario(dist)
    curve = error_sweep(scenario, FRONT, default_grid(0.1, 1e3, 25))
    assert np.max(curve.epsilon) <= 1e-12


def test_error_sweep_rejects_bad_grids():
    scenario = DipoleArrayScenario(uniform_linear_array(8, 0.5))
    with pytest.raises(ValueError, match="increasing"):
        error_sweep(scenario, FRONT, np.array([2.0, 1.0]))
    with pytest.raises(ValueError, match="positive"):
        error_sweep(scenario, FRONT, np.array([-1.0, 1.0]))
    # the side line passes through the elements of a y-axis array
    with pytest.raises(ValueError, match=r"point r = 0\.75 coincides with an element"):
        error_sweep(scenario, SIDE, np.array([0.5, 0.75, 1.0]))


def test_error_curve_validation():
    with pytest.raises(ValueError, match="increasing"):
        ErrorCurve(np.array([1.0, 1.0]), np.array([0.1, 0.1]), FRONT)
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        ErrorCurve(np.array([1.0, 2.0]), np.array([0.1, 1.5]), FRONT)
    curve = ErrorCurve(np.array([1.0, 2.0]), np.array([0.2, 0.1]), FRONT)
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


@pytest.mark.parametrize("n", [1, 8, 64, 1024])
@pytest.mark.parametrize("excitation", ["ff-bf", "nf-bf", "none"])
def test_error_sweep_blocks_match_single_radii(n, excitation):
    geo = uniform_linear_array(n, 0.5)
    direction = Direction(90.0, 30.0)
    scenario = DipoleArrayScenario(geo, excitation, direction)
    block = max(1, BLOCK_PAIRS // n)
    grid = np.geomspace(0.1, 1e4, 2 * block + 3)  # two full blocks and a partial one
    curve = error_sweep(scenario, direction, grid)
    single = [error_sweep(scenario, direction, grid[i : i + 1]).epsilon[0] for i in range(grid.size)]
    assert np.array_equal(curve.epsilon, single)


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


def test_single_point_calls_keep_their_shapes():
    geo = uniform_linear_array(8, 0.5)
    direction = Direction(70.0, 20.0)
    rhat = unit_vector(direction)
    radii = np.array([0.7, 3.0, 40.0])
    for excitation in ("ff-bf", "nf-bf", "none"):
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
            assert w.shape == (8,)
            e2, h2 = array_field(geo, w, r * rhat)
            assert np.array_equal(e2, e1) and np.array_equal(h2, h1)
