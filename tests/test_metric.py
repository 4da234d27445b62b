"""Field-mismatch metric and radial error sweeps."""

import math
import tracemalloc

import numpy as np
import pytest

from nff import (
    DEFAULT_CONTEXT,
    FRONT,
    SIDE,
    AngularFieldDistribution,
    DipoleArrayScenario,
    Direction,
    ErrorCurve,
    SphericalPoint,
    approximation_error,
    auxiliary_fields,
    default_grid,
    error_sweep,
    field_mismatch,
    uniform_linear_array,
    unit_vector,
)
from nff.metric import MAX_GRID_POINTS, grid_on_element

Z0 = DEFAULT_CONTEXT.impedance
K = DEFAULT_CONTEXT.wavenumber


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
    r = SphericalPoint(1e3, FRONT)
    ratio = approximation_error(focus, r) / approximation_error(steer, r)
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_perfect_far_field_scenario_has_zero_error():
    class _AuxScenario:
        ctx = DEFAULT_CONTEXT
        source_kind = "synthetic"
        excitation = "none"

        def __init__(self, dist):
            self._dist = dist

        def fields(self, point):
            r = float(np.linalg.norm(point))
            return auxiliary_fields(self._dist, SphericalPoint(r, self._dist.direction))

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
    with pytest.raises(ValueError, match="element"):
        error_sweep(scenario, SIDE, np.array([0.5, 0.75, 1.0]))


def test_error_curve_validation():
    with pytest.raises(ValueError, match="increasing"):
        ErrorCurve(np.array([1.0, 1.0]), np.array([0.1, 0.1]), FRONT, "none", "x")
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        ErrorCurve(np.array([1.0, 2.0]), np.array([0.1, 1.5]), FRONT, "none", "x")
    curve = ErrorCurve(np.array([1.0, 2.0]), np.array([0.2, 0.1]), FRONT, "none", "x")
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
        mask = grid_on_element(geo, SIDE, grid, DEFAULT_CONTEXT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # one (503, 1024, 3) offset array alone is 11.8 MiB
    dists = np.linalg.norm(grid[:, None, None] * unit_vector(SIDE) - geo.positions, axis=-1)
    assert np.array_equal(mask, np.any(dists < 1e-9, axis=1))
    assert np.count_nonzero(mask) == 2
