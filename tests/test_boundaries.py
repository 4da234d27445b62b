"""Boundary evaluators and the shared threshold-crossing search."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

import nff.boundaries as boundaries
from nff.core import _SCAN_PAIRS
from nff import (
    FRONT,
    SIDE,
    WAVENUMBER,
    ArrayGeometry,
    BoundaryResult,
    BoundarySpec,
    Direction,
    TailNotMonotone,
    UndefinedProjection,
    d_wc,
    evaluate_boundary,
    find_crossing,
    gamma_uniform_power,
    phi_excess,
    psi_gain_ratio,
    quasi_rayleigh,
    uniform_linear_array,
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


def test_d_up_side_closed_form():
    # ((r-a)/(r+a))^3 = th  =>  r = a (1+c)/(1-c), c = th^(1/3)
    th = 0.9
    c = th ** (1.0 / 3.0)
    res = evaluate_boundary(N8, BoundarySpec("up", th), SIDE)
    assert res.status == "found"
    assert res.value == pytest.approx(1.75 * (1 + c) / (1 - c), rel=5e-3)


def test_d_up_not_found_in_small_bracket():
    res = evaluate_boundary(N8, BoundarySpec("up", 0.99), FRONT, bracket=(1e-3, 10.0))
    assert res.status == "not-found"
    assert res.value is None


# ---------------------------------------------------------------------------
# focusing gain ratio


def test_psi_single_element_is_unity():
    for r in (0.01, 1.0, 100.0):
        psi = psi_gain_ratio(N1, r, FRONT, FRONT)
        assert abs(psi - 1.0) <= 1e-12


def test_psi_converges_far_out():
    psi = psi_gain_ratio(N8, 1e5, FRONT, FRONT)
    assert abs(psi - 1.0) < 1e-3


def test_psi_at_least_one():
    rng = np.random.default_rng(20)
    for _ in range(2000):
        geo = uniform_linear_array(int(rng.integers(2, 17)), rng.uniform(0.1, 1.0))
        d = Direction(rng.uniform(0, 180), rng.uniform(0, 360))
        r = 10 ** rng.uniform(-2, 3)
        try:
            psi = psi_gain_ratio(geo, r, d, d)
        except ValueError:
            continue  # point landed on an element
        assert psi >= 1.0 - 1e-12


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
        steering = Direction(rng.uniform(0, 180), rng.uniform(0, 360))
        radii = np.sort(10 ** rng.uniform(-2, 6, size=int(rng.integers(1, 24))))
        for criterion in (
            lambda r: phi_excess(geo, r, d),
            lambda r: gamma_uniform_power(geo, r, d),
            lambda r: psi_gain_ratio(geo, r, d, steering),
            lambda r: upsilon_power(geo, r, d),
        ):
            block = criterion(radii)
            assert block.shape == radii.shape
            assert np.array_equal(block, [criterion(float(r)) for r in radii])
            assert np.array_equal(criterion(radii[None, :]), block[None, :])


def test_criteria_reject_a_block_that_touches_an_element():
    radii = np.array([0.5, 0.75, 1.0])  # the side line meets an element at 0.75
    with pytest.raises(ValueError, match="singular"):
        gamma_uniform_power(N8, radii, SIDE)
    with pytest.raises(ValueError, match="singular"):
        psi_gain_ratio(N8, radii, SIDE, SIDE)
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


def _xi_full_grid(y, r, k):
    """Per-element full-grid Xi pass with per-element peak refinement, one radius."""
    s = boundaries._XI_S_GRID
    g = boundaries._xi_gap(r, np.outer(y, s), (y * y)[:, None], k)
    best = float(g.max())
    if best == 0.0:
        return best
    per_element = g.max(axis=1)
    for n in np.nonzero(per_element >= 0.999 * best)[0]:
        j = int(np.argmax(g[n]))
        lo, hi = s[max(j - 1, 0)], s[min(j + 1, s.size - 1)]
        while hi - lo >= 1e-9:
            cell = np.linspace(lo, hi, 21)
            gc = boundaries._xi_gap(r, y[n] * cell, y[n] * y[n], k)
            i = int(np.argmax(gc))
            best = max(best, float(gc[i]))
            lo, hi = cell[max(i - 1, 0)], cell[min(i + 1, 20)]
    return best


def test_xi_grid_is_antisymmetric():
    s = boundaries._XI_S_GRID
    assert s.size == 2001 and s[0] == -1.0 and s[1000] == 0.0 and s[-1] == 1.0
    assert np.array_equal(s, -s[::-1])


def test_xi_collinear_matches_full_grid_and_row_bound_holds():
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
        lo = max(float(np.max(np.abs(y))) * (1.0 + 1e-6), 1e-3)
        r = np.exp(rng.uniform(math.log(lo), math.log(1e6), 6))
        r[0] = lo
        got = boundaries._xi_offsets(np.abs(y), r, k)
        assert np.array_equal(got, [_xi_full_grid(np.abs(y), float(x), k) for x in r]), case
        a = np.unique(np.abs(y))
        rr, aa = (m.ravel() for m in np.meshgrid(r, a))
        peak, _ = boundaries._xi_row_peaks(rr, aa, k)
        assert np.all(boundaries._xi_row_bound(rr, aa, k) >= peak), case


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
    grid = boundaries._log_grid(*boundaries.DEFAULT_BRACKET, boundaries.DEFAULT_POINTS_PER_DECADE)
    assert grid.size == 3601
    plane = _SCAN_PAIRS * 8
    for scan in (
        lambda r: phi_excess(geo, r, FRONT),
        lambda r: gamma_uniform_power(geo, r, FRONT),
        lambda r: psi_gain_ratio(geo, r, FRONT, FRONT),
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
        # psi, the widest, holds about a dozen planes at once: three offsets, the
        # distances and complex channel terms
        assert peak < 16 * plane


def test_xi_scan_cache_is_bounded_lru():
    cache = boundaries._xi_grid_samples
    cache.cache_clear()
    size = cache.cache_info().maxsize
    geos = [uniform_linear_array(2, 0.1 * (i + 1)) for i in range(size + 2)]
    scan = lambda geo: boundaries._xi_scan_samples(geo, (1.0, 10.0), 100)
    results = [scan(geo)[1] for geo in geos[:size]]
    assert scan(geos[0])[1] is results[0]  # a hit, now the most recently used entry
    assert cache.cache_info().hits == 1
    for geo in geos[size:]:
        scan(geo)
    assert cache.cache_info().currsize == size
    assert scan(geos[0])[1] is results[0]
    assert scan(geos[1])[1] is not results[1]  # least recently used: evicted, scanned again
    assert not results[0].flags.writeable


def test_d_wc_is_direction_independent():
    a = evaluate_boundary(N8, BoundarySpec("wc", 0.01), FRONT)
    b = evaluate_boundary(N8, BoundarySpec("wc", 0.01), SIDE)
    assert a == b


def test_d_wc_degenerate_for_huge_threshold():
    res = d_wc(N8, threshold=1e9)
    assert res.status == "found"
    assert res.degenerate
    assert res.value == pytest.approx(1.75, rel=1e-5)


def test_d_wc_not_found_for_tiny_threshold():
    res = d_wc(N8, threshold=1e-15)
    assert res.status == "not-found"
    with pytest.raises(ValueError):
        d_wc(N8, threshold=-1.0)


def test_d_wc_rejects_non_monotone_tail(monkeypatch):
    grid = np.geomspace(2.0, 1e6, 2000)
    vals = 1.0 / grid
    vals[-100] *= 10.0  # a bump inside the final decade
    monkeypatch.setattr(boundaries, "_xi_scan_samples", lambda *a, **k: (grid, vals))
    with pytest.raises(TailNotMonotone):
        d_wc(N8, threshold=0.001)


# ---------------------------------------------------------------------------
# crossing search


def test_find_first_below_reciprocal():
    res = find_crossing(lambda r: 1.0 / r, 0.1, "first-below")
    assert res.status == "found"
    assert res.value == pytest.approx(10.0, rel=2e-6)
    assert res.crossings == 1
    assert res.bracket == (1e-3, 1e6)


def test_find_last_above_oscillating_tail():
    scan = lambda r: 1.0 + np.sin(r) / r
    th = 1.05
    res = find_crossing(scan, th, "last-above")
    assert res.status == "found"
    # oracle: dense linear scan plus local root polish
    xs = np.linspace(1e-3, 50.0, 1_000_000)
    vs = 1.0 + np.sin(xs) / xs
    above = vs >= th
    last = np.nonzero(above)[0][-1]
    want = brentq(lambda r: scan(r) - th, xs[last], xs[last + 1], xtol=1e-12)
    assert res.value == pytest.approx(want, rel=1e-5)


def test_find_crossing_scans_the_grid_in_blocks(monkeypatch):
    # find_crossing hands the criterion the whole grid, which it evaluates in blocks
    # of _SCAN_PAIRS // N radii; the bisection evaluates single radii
    offsets = boundaries._element_offsets
    for n, bisected in ((1, False), (1024, True)):
        sizes = []

        def spy(geometry, r, *args):
            sizes.append(np.size(r))
            return offsets(geometry, r, *args)

        monkeypatch.setattr(boundaries, "_element_offsets", spy)
        res = evaluate_boundary(uniform_linear_array(n, 0.5), BoundarySpec("up"), FRONT)
        assert res.status == "found" and res.degenerate != bisected
        block = min(_SCAN_PAIRS // n, 3601)
        calls = -(-3601 // block)
        assert sizes[: calls - 1] == [block] * (calls - 1)
        assert sum(sizes[:calls]) == 3601
        assert (len(sizes) > calls) == bisected and set(sizes[calls:]) <= {1}


def test_find_crossing_statuses():
    res = find_crossing(lambda r: np.full_like(r, 5.0), 1.0, "first-below")
    assert res.status == "not-found"
    res = find_crossing(lambda r: np.full_like(r, 5.0), 1.0, "last-above")
    assert res.status == "unbounded"
    res = find_crossing(lambda r: 1.0 / r, 1e6, "first-below")
    assert res.status == "found" and res.degenerate
    with pytest.raises(ValueError, match="mode"):
        find_crossing(lambda r: r, 1.0, "sideways")
    with pytest.raises(ValueError, match="bracket"):
        find_crossing(lambda r: r, 1.0, "first-below", bracket=(1.0, 0.5))
    with pytest.raises(ValueError, match="density"):
        find_crossing(lambda r: r, 1.0, "first-below", points_per_decade=50)


def test_found_boundaries_straddle_their_threshold():
    cases = [
        (evaluate_boundary(N8, BoundarySpec("ar"), FRONT), lambda r: phi_excess(N8, r, FRONT),
         math.pi / 8, "below"),
        (evaluate_boundary(N8, BoundarySpec("up", 0.9), FRONT),
         lambda r: gamma_uniform_power(N8, r, FRONT), 0.9, "above"),
        (evaluate_boundary(N8, BoundarySpec("en", 1.05), FRONT),
         lambda r: psi_gain_ratio(N8, r, FRONT, FRONT), 1.05, "above"),
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
