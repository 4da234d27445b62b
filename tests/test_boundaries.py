"""Boundary evaluators and the shared threshold-crossing search."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

import nff.boundaries as boundaries
from nff.core import _SCAN_PAIRS, _line_constants, _line_distance, _line_excess
from nff import (
    DIAGONAL,
    FRONT,
    SIDE,
    WAVENUMBER,
    ArrayGeometry,
    BoundaryResult,
    BoundarySpec,
    Direction,
    FieldSingularity,
    TailNotMonotone,
    UndefinedProjection,
    default_grid,
    evaluate_boundary,
    gamma_uniform_power,
    phi_excess,
    psi_gain_ratio,
    quasi_rayleigh,
    uniform_linear_array,
    unit_vector,
    upsilon_power,
    xi_worst_mismatch,
)
from nff.harness import MAX_ELEMENTS

K = WAVENUMBER
N8 = uniform_linear_array(8, 0.5)
N1 = uniform_linear_array(1, 0.5)
#: 2x2 planar array, not collinear
SQUARE = ArrayGeometry([[x, y, 0.0] for x in (-0.5, 0.5) for y in (-0.5, 0.5)])


# ---------------------------------------------------------------------------
# quasi-Rayleigh distance and spec validation


def test_quasi_rayleigh_values():
    assert quasi_rayleigh(3.5) == 24.5
    assert quasi_rayleigh(0.0) == 0.0
    assert quasi_rayleigh(31.5) == 1984.5
    with pytest.raises(ValueError):
        quasi_rayleigh(-1.0)


def test_boundary_spec_validation():
    with pytest.raises(ValueError, match="unknown boundary kind"):
        BoundarySpec("xx")
    with pytest.raises(ValueError):
        BoundarySpec("up", 1.2)
    with pytest.raises(ValueError):
        BoundarySpec("up", 1.5)
    with pytest.raises(ValueError):
        BoundarySpec("en", 0.9)
    with pytest.raises(ValueError):
        BoundarySpec("en", 1.0)
    with pytest.raises(ValueError):
        BoundarySpec("ep", -0.5)
    with pytest.raises(ValueError):
        BoundarySpec("ep", 0.0)
    with pytest.raises(ValueError):
        BoundarySpec("wc", 0.0)
    with pytest.raises(ValueError, match="pi/8"):
        BoundarySpec("ar", 0.3)
    with pytest.raises(ValueError, match="no threshold"):
        BoundarySpec("qr", 1.0)
    assert BoundarySpec("ar").threshold == pytest.approx(math.pi / 8)
    assert BoundarySpec("up").threshold == 0.9
    assert BoundarySpec("en").threshold == 1.05
    assert BoundarySpec("ep").threshold == 0.99
    assert BoundarySpec("wc").threshold == 0.001
    assert BoundarySpec("QR").kind == "qr"


# ---------------------------------------------------------------------------
# phase excess


def test_phi_excess_single_element_is_zero():
    for r in (0.01, 1.0, 1e3, 1e6):
        assert phi_excess(N1, r, FRONT) == 0.0


def test_phi_excess_side_line():
    # beyond a collinear array the excess and the projection cancel
    assert phi_excess(N8, 10.0, SIDE) <= 1e-9
    # inside the array the worst element contributes 2k(y_max - r)
    got = phi_excess(N8, 1.0, SIDE)
    assert got == pytest.approx(2.0 * K * (1.75 - 1.0), rel=1e-12)


def test_phi_excess_front_closed_form():
    # front line: excess of the outermost element is sqrt(r^2+y^2) - r
    for r in (0.5, 3.0, 40.0):
        got = phi_excess(N8, r, FRONT)
        assert got == pytest.approx(K * (math.hypot(r, 1.75) - r), rel=1e-12)


def test_phi_excess_properties():
    rng = np.random.default_rng(6)
    for _ in range(200):
        geo = uniform_linear_array(int(rng.integers(2, 12)), rng.uniform(0.1, 1.0))
        d = Direction(rng.uniform(0, 180), rng.uniform(0, 360))
        r = 10 ** rng.uniform(-2, 6)
        assert phi_excess(geo, r, d) >= 0.0
    # vanishing far out: k*y_max^2/(2r) ~ 1e-5 at r = 1e6
    assert phi_excess(N8, 1e6, FRONT) < 1e-4
    with pytest.raises(ValueError):
        phi_excess(N8, 0.0, FRONT)


def test_d_ar_side_closed_form():
    # Phi = 2k(y_max - r) = pi/8  =>  r = y_max - 1/32
    res = evaluate_boundary(N8, BoundarySpec("ar"), SIDE)
    assert res.status == "found"
    assert res.value == pytest.approx(1.75 - 1.0 / 32.0, rel=5e-3)


def test_d_ar_single_element_degenerate():
    res = evaluate_boundary(N1, BoundarySpec("ar"), FRONT)
    assert res.status == "found"
    assert res.degenerate
    assert res.value == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# uniform-power ratio


def test_gamma_side_closed_form():
    # test line along the array axis: boresight projections vanish and the
    # ratio reduces to (d_min / d_max)^3 = ((r-a)/(r+a))^3
    for r in (5.0, 50.0):
        got = gamma_uniform_power(N8, r, SIDE)
        assert got == pytest.approx(((r - 1.75) / (r + 1.75)) ** 3, rel=1e-12)


def test_gamma_front_matches_direct_evaluation():
    for r in (0.7, 3.0, 12.0):
        cart = np.array([r, 0.0, 0.0])
        rvec = cart - N8.positions
        dist = np.linalg.norm(rvec, axis=1)
        g = (rvec @ N8.boresight) / dist**3
        want = g.min() / g.max()
        got = gamma_uniform_power(N8, r, FRONT)
        assert got == pytest.approx(want, rel=1e-13)


def test_gamma_limits_and_errors():
    assert gamma_uniform_power(N8, 1e5, FRONT) > 1.0 - 1e-6
    rng = np.random.default_rng(14)
    for _ in range(200):
        r = 10 ** rng.uniform(-1, 4)
        d = Direction(rng.uniform(0, 180), rng.uniform(0, 360))
        g = gamma_uniform_power(N8, r, d)
        assert 0.0 <= g <= 1.0
    with pytest.raises(ValueError, match="singular"):
        gamma_uniform_power(N8, 0.75, SIDE)


def test_gamma_mixed_projections_rejected():
    geo = ArrayGeometry([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    with pytest.raises(UndefinedProjection):
        gamma_uniform_power(geo, 0.2, FRONT)
    # a block with one mixed radius raises the per-element form's message
    for radii in ([0.2], [5.0, 0.2, 7.0], [5.0, 7.0]):
        _assert_up_keeps_its_bits(geo, np.array(radii), FRONT)


def _per_element_gamma(geometry, r, direction):
    """A frozen copy of the per-element ``up`` reduction, the bit reference of the extremes path.

    Every projection ``x - o_n`` and every ``g_n`` is formed: ``(..., N)`` planes for the sign
    and flat tests, ``d**3`` per pair, then ``min_n g / max_n g``.
    """
    rhat = unit_vector(direction)
    t, w = _line_constants(geometry.positions, rhat)
    along, offsets = rhat @ geometry.boresight, geometry.positions @ geometry.boresight
    d = _line_distance(np.asarray(r)[..., None] - t, w)
    proj = np.subtract.outer(r * along, offsets)
    tol = 1e-9 * np.maximum(1.0, r)[..., None]
    if np.any(np.any(proj > tol, axis=-1) & np.any(proj < -tol, axis=-1)):
        raise UndefinedProjection("boresight projections change sign along the element set; "
                                  "the uniform-power ratio is undefined here")
    flat = np.all(np.abs(proj) <= tol, axis=-1, keepdims=True)
    g = np.where(flat, 1.0, np.abs(proj)) / d**3
    top = np.max(g, axis=-1)
    return np.divide(np.min(g, axis=-1), top, out=np.zeros_like(top), where=top != 0.0)[()]


def _assert_up_keeps_its_bits(geometry, radii, direction):
    """``gamma_uniform_power`` on a block and at single radii: the reference's bits or error."""
    for r in (radii, radii[None, :], *map(float, radii[:: max(1, radii.size // 5)])):
        try:
            want = _per_element_gamma(geometry, r, direction)
        except UndefinedProjection as exc:
            with pytest.raises(UndefinedProjection) as got:
                gamma_uniform_power(geometry, r, direction)
            assert str(got.value) == str(exc)
            continue
        got = gamma_uniform_power(geometry, r, direction)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (direction, r)


def _seeded_directions(seed, k=2):
    rng = np.random.default_rng(seed)
    return [Direction(rng.uniform(0, 180), rng.uniform(0, 360)) for _ in range(k)]


@pytest.mark.parametrize("n", [1, 2, 8, 64, 1024])
def test_gamma_on_a_ula_keeps_the_per_element_bits(n):
    # every element has one boresight offset, so the extremes of d carry the ratio;
    # (0, 0) and side lie in the array's plane, where every row is flat; from N = 8 the
    # radii span several blocks
    radii = GRID[:: max(1, n // 256)]
    geo = uniform_linear_array(n, 0.5)
    for direction in (FRONT, DIAGONAL, SIDE, Direction(0.0, 0.0), *_seeded_directions(n)):
        _assert_up_keeps_its_bits(geo, radii, direction)


def _tilted_plane():
    pos = np.array([[0.0, y, z] for y in (-1.5, -0.5, 0.5, 1.5) for z in (-0.5, 0.5)])
    return ArrayGeometry(pos, boresight=[1.0, 0.3, -0.2])


def _cloud(seed):
    pos = np.random.default_rng(seed).normal(size=(12, 3))
    return ArrayGeometry(pos - pos.mean(axis=0))


@pytest.mark.parametrize("geo", [_tilted_plane(), _cloud(1), _cloud(2), _cloud(3), SQUARE],
                         ids=["tilted_plane", "cloud1", "cloud2", "cloud3", "square"])
def test_gamma_with_several_offsets_keeps_the_per_element_bits(geo):
    # offsets differ along the boresight: g is formed per element; near the array the
    # projections mix signs and both forms raise, past it they give the ratio
    offsets = geo.positions @ geo.boresight
    assert offsets.min() < offsets.max()
    for direction in (FRONT, DIAGONAL, SIDE, Direction(30.0, 10.0), *_seeded_directions(7)):
        for radii in (GRID, GRID[GRID > 10.0]):
            _assert_up_keeps_its_bits(geo, radii, direction)


def test_array_cube_does_not_decrease():
    # up's extremes path takes max_n g = c / (min_n d)**3 and min_n g = c / (max_n d)**3 on
    # a stacked array: numpy's array pow must not decrease between adjacent floats
    x = 10.0 ** np.random.default_rng(31).uniform(-3.0, 7.0, 2_000_000)
    y = np.nextafter(x, np.inf)
    bad = np.flatnonzero(y**3 < x**3)
    assert bad.size == 0, (
        f"numpy's array x**3 decreases between adjacent floats at {bad.size} of {x.size} "
        f"pairs (first x = {x[bad[0]]!r}); the uniform-power ratio's extremes path is unsafe"
    )


def test_d_up_side_closed_form():
    # ((r-a)/(r+a))^3 = th  =>  r = a (1+c)/(1-c), c = th^(1/3)
    th = 0.9
    c = th ** (1.0 / 3.0)
    res = evaluate_boundary(N8, BoundarySpec("up", th), SIDE)
    assert res.status == "found"
    assert res.value == pytest.approx(1.75 * (1 + c) / (1 - c), rel=5e-3)


def test_d_up_not_found_in_the_bracket():
    # Gamma rises to about 1 - 1.8e-5 at r = 1e6 on the front line of this wide array
    geo = uniform_linear_array(8, 1e3)
    assert gamma_uniform_power(geo, 1e6, FRONT) < 0.99999
    res = evaluate_boundary(geo, BoundarySpec("up", 0.99999), FRONT)
    assert res.status == "not-found"
    assert res.value is None


# ---------------------------------------------------------------------------
# focusing gain ratio


def test_psi_single_element_is_unity():
    for r in (0.01, 1.0, 100.0):
        psi = psi_gain_ratio(N1, r, FRONT)
        assert abs(psi - 1.0) <= 1e-12


def test_psi_converges_far_out():
    psi = psi_gain_ratio(N8, 1e5, FRONT)
    assert abs(psi - 1.0) < 1e-3


def test_psi_at_least_one():
    rng = np.random.default_rng(20)
    for _ in range(2000):
        geo = uniform_linear_array(int(rng.integers(2, 17)), rng.uniform(0.1, 1.0))
        d = Direction(rng.uniform(0, 180), rng.uniform(0, 360))
        r = 10 ** rng.uniform(-2, 3)
        try:
            psi = psi_gain_ratio(geo, r, d)
        except ValueError:
            continue  # point landed on an element
        assert psi >= 1.0


def _psi_mp_oracle(positions, r, rhat, dps=40):
    """``sum 1/d_n / |sum exp(-jk(d_n + rhat.r_n)) / d_n|`` of float inputs, to ``dps`` digits."""
    with mpmath.workdps(dps):
        k = 2 * mpmath.pi
        u = [mpmath.mpf(float(x)) for x in rhat]
        num, den = mpmath.mpf(0), mpmath.mpc(0)
        for p in positions:
            p = [mpmath.mpf(float(x)) for x in p]
            d = mpmath.sqrt(sum((mpmath.mpf(r) * ui - pi) ** 2 for ui, pi in zip(u, p)))
            num += 1 / d
            den += mpmath.expj(-k * (d + sum(ui * pi for ui, pi in zip(u, p)))) / d
        return float(num / abs(den))


@pytest.mark.parametrize("n", [2, 8, 15, 64])
def test_psi_matches_mpmath_oracle(n):
    # the steering phase is taken on the excess path, so no phase of 6e6 radians is rounded
    geo = uniform_linear_array(n, 0.5)
    radii = np.geomspace(1e2, 1e6, 9)
    for d in (FRONT, Direction(90, 45), Direction(60, 30), Direction(135, 250)):
        got = psi_gain_ratio(geo, radii, d)
        want = [_psi_mp_oracle(geo.positions, float(r), unit_vector(d)) for r in radii]
        assert np.all(np.abs(got - want) <= 1e-15 * np.array(want)), (n, d)


def test_d_en_not_found_for_single_element():
    res = evaluate_boundary(N1, BoundarySpec("en", 1.05), FRONT)
    assert res.status == "not-found"


# ---------------------------------------------------------------------------
# normalized power ratio


def test_upsilon_reference_cases():
    assert abs(upsilon_power(N1, 3.0, FRONT) - 1.0) <= 1e-12
    # front: every element is farther than r, so the mean is below 1
    grid = np.geomspace(1e-3, 1e6, 400)
    vals = np.array([upsilon_power(N8, float(r), FRONT) for r in grid])
    assert np.all(vals < 1.0)
    # side beyond the array: the nearest element dominates
    assert upsilon_power(N8, 5.0, SIDE) > 1.0
    with pytest.raises(ValueError, match="singular"):
        upsilon_power(N8, 1.25, SIDE)


def test_d_ep_front_is_unbounded_at_permissive_threshold():
    for d in (FRONT, Direction(90, 45)):
        res = evaluate_boundary(N8, BoundarySpec("ep", 1.01), d)
        assert res.status == "unbounded"
        assert res.value is None


def test_d_ep_not_found_for_tiny_threshold():
    res = evaluate_boundary(N8, BoundarySpec("ep", 1e-9), SIDE)
    assert res.status == "not-found"


# ---------------------------------------------------------------------------
# criteria on blocks of radii


def test_criteria_on_a_block_match_single_radii():
    rng = np.random.default_rng(44)
    for n in (1, 1, 2, 3, 5, 8, 13, 64):
        geo = uniform_linear_array(n, rng.uniform(0.1, 1.0))
        d = Direction(rng.uniform(0, 180), rng.uniform(0, 360))
        radii = np.sort(10 ** rng.uniform(-2, 6, size=int(rng.integers(1, 24))))
        for criterion in (
            lambda r: phi_excess(geo, r, d),
            lambda r: gamma_uniform_power(geo, r, d),
            lambda r: psi_gain_ratio(geo, r, d),
            lambda r: upsilon_power(geo, r, d),
        ):
            block = criterion(radii)
            assert block.shape == radii.shape
            assert np.array_equal(block, [criterion(float(r)) for r in radii])
            assert np.array_equal(criterion(radii[None, :]), block[None, :])


def test_criteria_read_their_line_once_per_call(monkeypatch):
    geo = uniform_linear_array(1024, 0.5)
    grid = default_grid(*boundaries.DEFAULT_BRACKET, boundaries.DEFAULT_POINTS_PER_DECADE)
    assert grid.size == 3601 and grid.size > _SCAN_PAIRS // geo.n  # several blocks
    line_constants = boundaries._line_constants
    calls = []

    def spy(*args):
        calls.append(args)
        return line_constants(*args)

    monkeypatch.setattr(boundaries, "_line_constants", spy)
    for criterion in (phi_excess, gamma_uniform_power, psi_gain_ratio, upsilon_power):
        calls.clear()
        assert criterion(geo, grid, FRONT).shape == grid.shape
        assert len(calls) == 1, criterion.__name__


def test_criteria_reject_a_block_that_touches_an_element():
    radii = np.array([0.5, 0.75, 1.0])  # the side line meets an element at 0.75
    with pytest.raises(ValueError, match="singular"):
        gamma_uniform_power(N8, radii, SIDE)
    with pytest.raises(ValueError, match="singular"):
        psi_gain_ratio(N8, radii, SIDE)
    with pytest.raises(ValueError, match="singular"):
        upsilon_power(N8, radii, SIDE)
    geo = ArrayGeometry([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    with pytest.raises(UndefinedProjection):
        gamma_uniform_power(geo, np.array([5.0, 0.2, 7.0]), FRONT)


# ---------------------------------------------------------------------------
# worst-case element mismatch


def _xi_sphere_oracle(positions, r, k, n_dirs=99991):
    """Independent dense-sphere brute force for Xi."""
    i = np.arange(n_dirs)
    z = 1.0 - (2.0 * i + 1.0) / n_dirs
    azim = i * (math.pi * (3.0 - math.sqrt(5.0)))
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    dirs = np.column_stack([s * np.cos(azim), s * np.sin(azim), z])
    best = 0.0
    for pos in positions:
        d = np.linalg.norm(r * dirs - pos, axis=1)
        proj = dirs @ pos
        g = np.abs(np.exp(-1j * k * d) / d - np.exp(-1j * k * (r - proj)) / r)
        best = max(best, float(g.max()))
    return best


def test_xi_single_element_at_origin_is_zero():
    for r in (0.5, 2.0, 1e3):
        assert xi_worst_mismatch(N1, r) == 0.0


def test_xi_requires_radius_beyond_array():
    with pytest.raises(ValueError, match="max element offset"):
        xi_worst_mismatch(N8, 1.0)


def test_xi_reduction_matches_sphere_oracle():
    rng = np.random.default_rng(70)
    for _ in range(5):
        geo = uniform_linear_array(int(rng.integers(2, 9)), rng.uniform(0.2, 0.8))
        r = float(np.max(np.abs(geo.positions[:, 1]))) * rng.uniform(1.5, 4.0)
        got = xi_worst_mismatch(geo, r)
        want = _xi_sphere_oracle(geo.positions, r, K)
        assert got == pytest.approx(want, rel=1e-4)
        assert got >= want * (1.0 - 1e-9)  # the 1-D reduction never undershoots


def test_xi_sphere_scan_matches_oracle():
    for r in (1.2, 2.0, 3.0):
        got = xi_worst_mismatch(SQUARE, r)
        assert got == pytest.approx(_xi_sphere_oracle(SQUARE.positions, r, K), rel=1e-4)
    # a random non-collinear 3-D set: close to the array the dense sample undershoots
    rng = np.random.default_rng(5)
    points = rng.uniform(-1.0, 1.0, (7, 3))
    geo = ArrayGeometry(points - points.mean(axis=0))
    reach = float(np.max(np.linalg.norm(geo.positions, axis=1)))
    got = xi_worst_mismatch(geo, 1.01 * reach)
    assert got >= _xi_sphere_oracle(geo.positions, 1.01 * reach, K) * (1.0 - 1e-9)
    for r in (1.5 * reach, 2.0 * reach, 3.0 * reach):
        got = xi_worst_mismatch(geo, r)
        assert got == pytest.approx(_xi_sphere_oracle(geo.positions, r, K), rel=1e-4)


def test_xi_depends_only_on_element_offset_norms():
    ula = uniform_linear_array(8, 0.5).positions
    # 3-4-5 and 1-2-2 triples scaled by powers of two have exact norms 0.625 and 0.75
    moved = np.array([[0.375, 0.5, 0.0], [0.25, 0.5, 0.5]])
    moved_again = np.array([[0.0, 0.0, 0.625], [0.5, -0.25, 0.5]])
    families = [
        [ula, ula[:, [1, 0, 2]], ula[:, [2, 0, 1]], -ula],
        [SQUARE.positions, SQUARE.positions[:, [2, 0, 1]], SQUARE.positions * [1, -1, -1]],
        [np.vstack([moved, -moved]), np.vstack([moved_again, -moved_again])],
    ]
    for family in families:
        geos = [ArrayGeometry(points) for points in family]
        norms = np.sort(np.linalg.norm(geos[0].positions, axis=1))
        reach = float(norms[-1])
        r = reach * np.array([1.0 + 1e-6, 1.01, 1.2, 2.0, 10.0, 1e3, 1e6])
        want = xi_worst_mismatch(geos[0], r)
        for geo in geos[1:]:
            assert np.array_equal(np.sort(np.linalg.norm(geo.positions, axis=1)), norms)
            assert np.array_equal(xi_worst_mismatch(geo, r), want)


@pytest.mark.parametrize("geo", [N8, SQUARE], ids=["ula8", "square"])
def test_xi_large_radius_asymptote(geo):
    # far out the worst direction is broadside to the outermost element,
    # where the gap is the phase error k |r_n|^2 / (2 r) over r
    r = 1e6
    n2 = float(np.max(np.sum(geo.positions**2, axis=1)))
    assert xi_worst_mismatch(geo, r) == pytest.approx(K * n2 / (2.0 * r * r), rel=1e-8, abs=0.0)


#: Direction projections ``s = ahat.r_n / |r_n|`` of the former full-grid ``Xi`` scan,
#: kept as a reference: it samples every row, so it bounds ``Xi`` from below.
_S_GRID = np.concatenate([-np.linspace(0.0, 1.0, 1001)[:0:-1], np.linspace(0.0, 1.0, 1001)])


def _grid_gap(r, t, n2, k):
    """``|exp(-jkd)/d - exp(-jk(r-t))/r|`` at ``t = ahat.r_n``, ``n2 = |r_n|^2``."""
    d, delta = _line_excess(r, t, n2 - t * t)
    rd = r * d
    amplitude = (2.0 * r * t - n2) / ((r + d) * rd)
    return np.sqrt(amplitude**2 + 4.0 * np.sin(0.5 * k * delta) ** 2 / rd)


def _xi_full_grid(y, r, k):
    """Per-element full-grid Xi pass with per-element peak refinement, one radius."""
    s = _S_GRID
    g = _grid_gap(r, np.outer(y, s), (y * y)[:, None], k)
    best = float(g.max())
    if best == 0.0:
        return best
    per_element = g.max(axis=1)
    for n in np.nonzero(per_element >= 0.999 * best)[0]:
        j = int(np.argmax(g[n]))
        lo, hi = s[max(j - 1, 0)], s[min(j + 1, s.size - 1)]
        while hi - lo >= 1e-9:
            cell = np.linspace(lo, hi, 21)
            gc = _grid_gap(r, y[n] * cell, y[n] * y[n], k)
            i = int(np.argmax(gc))
            best = max(best, float(gc[i]))
            lo, hi = cell[max(i - 1, 0)], cell[min(i + 1, 20)]
    return best


def test_xi_collinear_matches_full_grid_and_row_bound_holds():
    # the grid samples every row, so it is a lower bound; the upper bound takes
    # d >= m = r - a, |r - d| <= a and delta <= a^2 / (2m) on every row
    rng = np.random.default_rng(2026)
    for case in range(36):
        if case % 3 == 0:  # uniform linear arrays, N = 1..128
            n = int(rng.integers(1, 129))
            y = (np.arange(n) - (n - 1) / 2) * rng.uniform(0.1, 1.0)
        elif case % 3 == 1:  # asymmetric sets
            y = rng.uniform(-5.0, 5.0, int(rng.integers(1, 40)))
        else:  # duplicated |y| and an element at 0
            base = rng.uniform(0.0, 4.0, int(rng.integers(1, 10)))
            y = rng.permutation(np.concatenate([base, -base[: base.size // 2], base[:2], [0.0]]))
        k = rng.uniform(0.5, 20.0)
        a = float(np.max(np.abs(y)))
        lo = max(a * (1.0 + 1e-6), 1e-3)
        r = np.exp(rng.uniform(math.log(lo), math.log(1e6), 6))
        r[0] = lo
        got = boundaries._xi(a, r, k)
        grid = np.array([_xi_full_grid(np.abs(y), float(x), k) for x in r])
        assert np.all(got >= grid * (1.0 - 1e-14)), case
        m = r - a
        bound = np.sqrt((a / (r * m)) ** 2 + 4.0 * np.minimum(1.0, (k * a * a / (4.0 * m)) ** 2) / (r * m))
        assert np.all(got <= bound * (1.0 + 1e-14)), case


def _xi_mp_oracle(a, r, dps=40):
    """Largest gap of one element at offset ``a`` over ``t`` in [-a, a], to ``dps`` digits.

    A float pass over ``t``, dense towards both ends where the lobes are narrowest,
    picks the best few local maxima; golden-section search refines each in mpmath,
    on the direct form of the gap.
    """
    ends = a * np.geomspace(1e-15, 2.0, 100001)
    t = np.unique(np.concatenate([np.linspace(-a, a, 200001), a - ends, ends - a]))
    t = t[(t >= -a) & (t <= a)]
    g = _grid_gap(r, t, a * a, K)
    peak = np.nonzero((g >= np.roll(g, 1)) & (g >= np.roll(g, -1)))[0]
    with mpmath.workdps(dps):
        k, am, rm = mpmath.mpf(K), mpmath.mpf(a), mpmath.mpf(r)

        def gap(x):
            d = mpmath.sqrt(rm * rm - 2 * rm * x + am * am)
            return abs(mpmath.expj(-k * d) / d - mpmath.expj(-k * (rm - x)) / rm)

        best = mpmath.mpf(0)
        for i in peak[np.argsort(g[peak])[::-1][:8]]:
            lo, hi = mpmath.mpf(t[max(i - 1, 0)]), mpmath.mpf(t[min(i + 1, t.size - 1)])
            best = max(best, gap(lo), gap(hi))
            golden = (mpmath.sqrt(5) - 1) / 2
            x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
            f1, f2 = gap(x1), gap(x2)
            for _ in range(80):
                if f1 < f2:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + golden * (hi - lo)
                    f2 = gap(x2)
                else:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - golden * (hi - lo)
                    f1 = gap(x1)
            best = max(best, f1, f2)
        return float(best)


@pytest.mark.parametrize(
    "a, r",
    [
        (1e-2, 1e-2 * (1.0 + 1e-6)),
        (1e-2, 1.0),
        (1e-2, 1e6),
        (0.5, 0.5 * (1.0 + 1e-6)),
        (0.5, 2.0),
        (1.75, 1.75**2),
        (3.5, 3.5**2 * 1.001),
        (31.5, 31.5**2),
        (31.5, 1e6),
        (255.75, 314.63581602561504),
        (255.75, 255.75**2),
        (1023.75, 1122.5139556552888),
        (1023.75, 1e6),
        (4e3, 4e3 * (1.0 + 1e-6)),
        (4e3, 4e3 * 1.5),
        (4e3, 1e6),
    ],
)
def test_xi_matches_mpmath_oracle(a, r):
    # every row lies below the widest one, so one element at offset a has the whole Xi
    got = float(boundaries._xi(a, np.array([r]), K)[0])
    assert got == pytest.approx(_xi_mp_oracle(a, r), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "n, radii",
    [(1024, [286.9535999771731, 314.63581602561504]), (4096, [1078.1840095792534, 1122.5139556552888])],
)
def test_xi_finds_the_first_lobe_on_wide_arrays(n, radii):
    # at these radii the former 2001-point grid read Xi 7-14 % low: the first lobe
    # next to t = a is narrower than its spacing
    geo = uniform_linear_array(n, 0.5)
    a = float(np.max(np.abs(geo.positions)))
    t = a - a * np.linspace(0.0, 2.0, 500_001)
    for r in radii:
        d = np.sqrt((r - t) ** 2 + a * a - t * t)
        brute = np.max(np.abs(np.exp(-1j * K * d) / d - np.exp(-1j * K * (r - t)) / r))
        assert xi_worst_mismatch(geo, r) >= brute * (1.0 - 1e-12)


def test_xi_reads_only_the_largest_offset():
    a = 1.75
    geos = [
        N8,
        ArrayGeometry([[0.0, a, 0.0], [0.0, -a, 0.0]]),
        ArrayGeometry([[a, 0.0, 0.0], [-a, 0.0, 0.0], [0.0, 0.5, 0.3], [0.0, -0.5, -0.3]]),
    ]
    r = a * np.array([1.0 + 1e-6, 1.01, 1.2, 2.0, 10.0, 1e3, 1e6])
    want = xi_worst_mismatch(geos[0], r)
    for geo in geos[1:]:
        assert np.array_equal(xi_worst_mismatch(geo, r), want)


def test_xi_block_matches_single_radii():
    n64 = uniform_linear_array(64, 0.5)
    for geo, r in [
        (N1, np.geomspace(1e-3, 1e6, 9)),
        (N8, np.geomspace(1.75 * (1.0 + 1e-6), 1e6, 17)),
        (n64, np.geomspace(16.0, 1e5, 12).reshape(3, 4)),
        (SQUARE, np.array([[0.8, 1.5], [3.0, 40.0]])),
    ]:
        block = xi_worst_mismatch(geo, r)
        assert block.shape == r.shape
        assert np.array_equal(block, np.vectorize(lambda x: xi_worst_mismatch(geo, x))(r))


def test_xi_rejects_a_block_inside_the_array():
    with pytest.raises(ValueError, match="max element offset"):
        xi_worst_mismatch(N8, np.array([10.0, 1.75, 100.0]))
    with pytest.raises(ValueError, match="max element offset"):
        xi_worst_mismatch(SQUARE, np.array([[2.0, 0.5]]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="max element offset"):
            xi_worst_mismatch(N8, np.array([10.0, bad, 100.0]))
        with pytest.raises(ValueError, match="max element offset"):
            xi_worst_mismatch(SQUARE, bad)


def test_xi_block_needs_no_full_grid_temporaries():
    geo = uniform_linear_array(64, 0.5)
    r = np.geomspace(16.0, 1e6, _SCAN_PAIRS // 64)  # one block
    xi_worst_mismatch(geo, r)
    tracemalloc.start()
    try:
        xi_worst_mismatch(geo, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (64, 2001) float64 row set alone is 1 MiB
    assert peak < 2 * 2**20


def test_criteria_memory_does_not_grow_with_the_grid():
    # at N = MAX_ELEMENTS one temporary over the whole search grid would be 118 MB;
    # blocks of _SCAN_PAIRS // N radii hold each to one 64 KiB plane
    geo = uniform_linear_array(MAX_ELEMENTS, 2e-7)  # inside 1e-3: Xi takes the whole grid too
    grid = default_grid(*boundaries.DEFAULT_BRACKET, boundaries.DEFAULT_POINTS_PER_DECADE)
    assert grid.size == 3601
    plane = _SCAN_PAIRS * 8
    for scan in (
        lambda r: phi_excess(geo, r, FRONT),
        lambda r: gamma_uniform_power(geo, r, FRONT),
        lambda r: psi_gain_ratio(geo, r, FRONT),
        lambda r: upsilon_power(geo, r, FRONT),
        lambda r: xi_worst_mismatch(geo, r),
    ):
        scan(grid[:2])
        tracemalloc.start()
        try:
            scan(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # psi, the widest, holds about half a dozen planes at once: the distances,
        # excess paths, phases and their cosines and sines
        assert peak < 16 * plane


def test_d_wc_is_direction_independent():
    a = evaluate_boundary(N8, BoundarySpec("wc", 0.01), FRONT)
    b = evaluate_boundary(N8, BoundarySpec("wc", 0.01), SIDE)
    assert a == b


def test_d_wc_degenerate_for_huge_threshold():
    res = evaluate_boundary(N8, BoundarySpec("wc", 1e9), FRONT)
    assert res.status == "found"
    assert res.degenerate
    assert res.value == pytest.approx(1.75, rel=1e-5)


def test_d_wc_not_found_for_tiny_threshold():
    res = evaluate_boundary(N8, BoundarySpec("wc", 1e-15), FRONT)
    assert res.status == "not-found"
    with pytest.raises(ValueError):
        BoundarySpec("wc", -1.0)


def _bumpy_xi(a, r, k):
    """``1/r`` with a bump inside the final decade of the bracket."""
    return np.where((r > 4e5) & (r < 4.1e5), 10.0, 1.0) / r


def test_d_wc_rejects_non_monotone_tail(monkeypatch):
    monkeypatch.setattr(boundaries, "_xi", _bumpy_xi)
    with pytest.raises(TailNotMonotone):
        evaluate_boundary(N8, BoundarySpec("wc", 0.001), FRONT)


# ---------------------------------------------------------------------------
# crossing search

#: The search grid of every kind but ``wc``.
GRID = default_grid(*boundaries.DEFAULT_BRACKET, boundaries.DEFAULT_POINTS_PER_DECADE)


def _search(scan, threshold, first, below):
    """The crossing search on the bracket grid, as :func:`evaluate_boundary` runs it."""
    levels = boundaries._REFINE_LEVELS
    return boundaries._search_values(GRID, scan(GRID), scan, levels, threshold, first, below)


def test_find_first_below_reciprocal():
    res = _search(lambda r: 1.0 / r, 0.1, True, True)
    assert res.status == "found"
    assert res.value == pytest.approx(10.0, rel=2e-6)
    assert res.crossings == 1
    assert res.bracket == (1e-3, 1e6)


def test_find_last_above_oscillating_tail():
    scan = lambda r: 1.0 + np.sin(r) / r
    th = 1.05
    res = _search(scan, th, False, False)
    assert res.status == "found"
    # oracle: dense linear scan plus local root polish
    xs = np.linspace(1e-3, 50.0, 1_000_000)
    vs = 1.0 + np.sin(xs) / xs
    above = vs >= th
    last = np.nonzero(above)[0][-1]
    want = brentq(lambda r: scan(r) - th, xs[last], xs[last + 1], xtol=1e-12)
    assert res.value == pytest.approx(want, rel=1e-5)


def test_find_crossing_scans_the_grid_in_blocks(monkeypatch):
    # the search hands the criterion the whole grid, which it evaluates in blocks of
    # _SCAN_PAIRS // N radii; the bisection then evaluates the 2^L - 1 midpoints its next
    # L levels can visit in one call (L = 4 at N = 64, 1 at N = 1024, where 3 radii would
    # pass 2048 pairs), and its last call looks no further than the levels left
    line_distance = boundaries._line_distance
    for n, bisection in ((1, []), (64, [15, 15, 15, 1]), (1024, [1] * 13)):
        sizes = []

        def spy(s, w):  # s = r - t, one row of N per radius
            sizes.append(np.size(s) // np.size(w))
            return line_distance(s, w)

        monkeypatch.setattr(boundaries, "_line_distance", spy)
        res = evaluate_boundary(uniform_linear_array(n, 0.5), BoundarySpec("up"), FRONT)
        assert res.status == "found" and res.degenerate == (not bisection)
        block = min(_SCAN_PAIRS // n, 3601)
        calls = -(-3601 // block)
        assert sizes[: calls - 1] == [block] * (calls - 1)
        assert sum(sizes[:calls]) == 3601
        assert sizes[calls:] == bisection


def _reference_refine(side, lo, hi, first):
    """Geometric bisection one radius at a time: the walk the batched one must reproduce."""
    for _ in range(200):
        if hi / lo - 1.0 <= boundaries.REFINE_REL_TOL:
            break
        mid = math.sqrt(lo * hi)
        if side(mid) == first:
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


def _path(side, lo, hi, first):
    """The midpoints the one-radius walk visits."""
    seen = []
    _reference_refine(lambda r: seen.append(r) or side(r), lo, hi, first)
    return seen


@pytest.mark.parametrize("first, below", [(True, True), (True, False), (False, False),
                                          (False, True)])
def test_batched_refinement_matches_one_radius_at_a_time(first, below):
    # random brackets and thresholds on monotone and oscillating values, at every level
    # count: the batched walk takes the same steps on the same bits
    rng = np.random.default_rng(25)
    for _ in range(60):
        lo = 10.0 ** rng.uniform(-3.0, 5.5)
        hi = lo * (1.0 + 10.0 ** rng.uniform(-5.5, 0.5))
        th = rng.uniform(0.0, 1.0)
        wiggle = rng.uniform(0.0, 50.0)
        scan = lambda r: (np.log(r / lo) / np.log(hi / lo) + 0.2 * np.sin(wiggle * r / lo)) / 1.2

        def side(r):
            v = scan(r)
            return v <= th if below else v >= th

        want = _reference_refine(side, lo, hi, first)
        for levels in (1, 2, 3, 4):
            got = boundaries._refine_crossing(side, lo, hi, first, levels)
            assert got == want and lo <= got <= hi


def test_batched_refinement_raises_only_on_its_path():
    lo, hi = 3.0, 3.0 * 10 ** (1 / 400)
    side = lambda r: np.asarray(r) >= 3.01

    def raising_at(bad):
        def guarded(r):
            if np.any(np.asarray(r) == bad):
                raise FieldSingularity(f"singular at r = {bad!r}")
            return side(r)
        return guarded

    want = _reference_refine(side, lo, hi, True)
    path = _path(side, lo, hi, True)
    spec = [m for m in boundaries._midpoints(lo, hi, 4) if m not in path]
    assert len(spec) == 11  # one batch: 15 midpoints, 4 of them on the path
    # a midpoint the walk never visits raises in the batch: the walk is rerun one
    # radius at a time and returns the reference value
    for bad in spec:
        assert boundaries._refine_crossing(raising_at(bad), lo, hi, True, 4) == want
    # a midpoint on the path raises the reference walk's error
    for bad in (path[0], path[5], path[-1]):
        with pytest.raises(FieldSingularity) as ref:
            _reference_refine(raising_at(bad), lo, hi, True)
        with pytest.raises(FieldSingularity) as got:
            boundaries._refine_crossing(raising_at(bad), lo, hi, True, 4)
        assert str(got.value) == str(ref.value)


def test_a_line_through_elements():
    # on SIDE the test line runs along the array: Phi is 0 on an element and takes no
    # guard, while the other criteria divide by element distances and name the radius
    geo = uniform_linear_array(15, 0.5)
    res = evaluate_boundary(geo, BoundarySpec("ar"), SIDE)
    assert res.status == "found" and res.value == 3.468749054434873
    assert phi_excess(geo, 1.0, SIDE) == 2.0 * (3.5 - 1.0) * K  # the element at 3.5 leads
    for kind in ("up", "en", "ep"):
        with pytest.raises(FieldSingularity, match=r"singular at r = 1\.0: "):
            evaluate_boundary(geo, BoundarySpec(kind), SIDE)


def test_find_crossing_statuses():
    res = _search(lambda r: np.full_like(r, 5.0), 1.0, True, True)
    assert res.status == "not-found"
    res = _search(lambda r: np.full_like(r, 5.0), 1.0, False, False)
    assert res.status == "unbounded"
    res = _search(lambda r: 1.0 / r, 1e6, True, True)
    assert res.status == "found" and res.degenerate
    # the first entry above and the last exit below, the pairs the tests above leave out
    for first, below in ((True, False), (False, True)):
        res = _search(lambda r: 0.01 * r, 0.1, first, below)
        assert res.status == "found" and not res.degenerate and res.crossings == 1
        assert res.value == pytest.approx(10.0, rel=2e-6)


def test_found_boundaries_straddle_their_threshold():
    cases = [
        (evaluate_boundary(N8, BoundarySpec("ar"), FRONT), lambda r: phi_excess(N8, r, FRONT),
         math.pi / 8, "below"),
        (evaluate_boundary(N8, BoundarySpec("up", 0.9), FRONT),
         lambda r: gamma_uniform_power(N8, r, FRONT), 0.9, "above"),
        (evaluate_boundary(N8, BoundarySpec("en", 1.05), FRONT),
         lambda r: psi_gain_ratio(N8, r, FRONT), 1.05, "above"),
        (evaluate_boundary(N8, BoundarySpec("ep", 0.99), FRONT),
         lambda r: upsilon_power(N8, r, FRONT), 0.99, "below"),
    ]
    for res, scan, th, side in cases:
        assert res.status == "found"
        v = res.value
        lo, hi = scan(v * (1 - 3e-6)), scan(v * (1 + 3e-6))
        if side == "below":  # first-below for ar, last-below for ep
            assert (lo > th) or (hi > th)
            assert (lo <= th) or (hi <= th)
        else:
            assert (lo < th) or (hi < th)
            assert (lo >= th) or (hi >= th)


def test_evaluate_boundary_dispatch():
    res = evaluate_boundary(N8, BoundarySpec("qr"), FRONT)
    assert res == BoundaryResult("found", 24.5, (0.0, math.inf), 0)
    res = evaluate_boundary(N1, BoundarySpec("qr"), FRONT)
    assert res.degenerate and res.value == 0.0
    res = evaluate_boundary(N8, BoundarySpec("ar"), FRONT)
    assert res.status == "found" and res.value > 20.0
