"""Acceptance gate: nine numbered end-to-end criteria, one test each.

``pytest -v tests/test_acceptance.py`` emits one PASSED/FAILED line per
criterion.  Everything is deterministic (seeded RNG, fixed grids) and the
whole gate runs in well under five minutes on one core.
"""

import filecmp

import numpy as np

from nff import (
    DIRECTION_PRESETS,
    FREE_SPACE_IMPEDANCE,
    FRONT,
    SIDE,
    WAVENUMBER,
    ArrayGeometry,
    BoundarySpec,
    DipoleArrayScenario,
    Direction,
    FieldTrace,
    analytic_angular_distribution,
    array_field,
    default_grid,
    error_sweep,
    evaluate_boundary,
    export_trace,
    ff_precoder,
    field_mismatch,
    import_trace,
    psi_gain_ratio,
    trace_error_curve,
    uniform_linear_array,
    unit_vector,
    upsilon_power,
    xi_worst_mismatch,
)
from nff.boundaries import evaluate_boundaries
from nff.cli import main

K = WAVENUMBER
Z0 = FREE_SPACE_IMPEDANCE


def _check_boundaries(geometry, expected, rel_tol=0.02):
    for kind, threshold, want in expected:
        res = evaluate_boundary(geometry, BoundarySpec(kind, threshold), FRONT)
        assert res.status == "found", (kind, threshold, res)
        label = kind if threshold is None else f"{kind}({threshold:g})"
        if kind == "qr":
            # closed formula, no search quantization
            assert res.value == want, label
        else:
            dev = abs(res.value - want) / want
            print(f"  {label}: {res.value:.4f} vs {want} ({dev * 100:.2f}%)")
            assert dev <= rel_tol, (label, res.value, want)
        yield kind, res.value


def test_criterion_1_boundary_regression_n8_front():
    """All six boundary kinds on the reference 8-element half-wave array."""
    expected = [
        ("qr", None, 24.5),
        ("ar", None, 24.68),
        ("up", 0.9, 6.48),
        ("up", 0.8, 4.33),
        ("en", 1.05, 11.40),
        ("en", 1.01, 25.26),
        ("ep", 0.99, 11.27),
        ("wc", 0.001, 560.7),
        ("wc", 0.01, 177.1),
    ]
    geo = uniform_linear_array(8, 0.5)
    list(_check_boundaries(geo, expected))


def test_criterion_2_boundary_regression_n64_front():
    """Large-array regression, plus aperture-radius ~ quasi-Rayleigh."""
    expected = [
        ("qr", None, 1984.5),
        ("ar", None, 1992.0),
        ("up", 0.9, 58.6),
        ("en", 1.05, 765.4),
        ("ep", 0.99, 90.8),
        ("wc", 0.001, 5066.5),
    ]
    geo = uniform_linear_array(64, 0.5)
    values = dict(_check_boundaries(geo, expected))
    assert abs(values["ar"] - values["qr"]) / values["qr"] < 0.01


def test_criterion_3_side_direction_closed_forms():
    """Along the array line the searches must hit hand-derived formulas."""
    geo = uniform_linear_array(8, 0.5)
    y_max = 1.75

    got_ar = evaluate_boundary(geo, BoundarySpec("ar"), SIDE).value
    want_ar = y_max - 1.0 / 32.0  # phase excess 2k(y_max - r) crosses pi/8
    assert abs(got_ar - want_ar) / want_ar < 0.005

    c = 0.9 ** (1.0 / 3.0)
    got_up = evaluate_boundary(geo, BoundarySpec("up", 0.9), SIDE).value
    want_up = y_max * (1.0 + c) / (1.0 - c)  # ((r-a)/(r+a))^3 crosses 0.9
    assert abs(got_up - want_up) / want_up < 0.005
    print(f"  ar: {got_ar:.6f} vs {want_ar}, up(0.9): {got_up:.4f} vs {want_up:.4f}")


def test_criterion_4_single_dipole_error_curve():
    """Equatorial closed form at every grid point; far tail decays as r^-2."""
    grid = default_grid()
    scenario = DipoleArrayScenario(uniform_linear_array(1, 0.0))
    curve = error_sweep(scenario, FRONT, grid)

    kr = K * grid
    dh = 1.0 / (1j * kr)
    de = 1.0 / (1j * kr) - 1.0 / kr**2
    num = np.sqrt(np.abs(de) ** 2 + np.abs(dh) ** 2)
    den = np.sqrt(np.abs(1.0 + de) ** 2 + np.abs(1.0 + dh) ** 2) + np.sqrt(2.0)
    want = (num / den) ** 2

    assert np.max(np.abs(curve.epsilon - want)) < 1e-12
    # relative agreement holds too, down to rounding noise at the 1e-10 tail
    assert np.max(np.abs(curve.epsilon - want) / want) < 1e-9

    tail = (grid >= 1e2) & (grid <= 1e3)
    slope = np.polyfit(np.log10(grid[tail]), np.log10(curve.epsilon[tail]), 1)[0]
    print(f"  tail slope = {slope:.6f}")
    assert abs(slope - (-2.0)) < 0.05


def test_criterion_5_equal_aperture_curves_coincide():
    """(N=8, d=lambda/2) and (N=15, d=lambda/4) span the same 3.5-lambda
    aperture, so their front-direction error curves must trace the same
    log-log line over [0.5, 100] wavelengths.

    Read on the log ordinate: the curves stay within a tenth of a decade
    of each other (ratio <= 10^0.1 ~ 1.259).  A plain 10% pointwise ratio
    is not achievable even in principle: the far tails scale with the
    squared mean-square aperture ((N^2-1)d^2/12)^2, whose ratio here is
    (1.3125/1.1667)^2 ~ 1.266.
    """
    grid = default_grid()
    grid = grid[(grid >= 0.5) & (grid <= 100.0)]
    c8 = error_sweep(
        DipoleArrayScenario(uniform_linear_array(8, 0.5), "ff-bf", FRONT), FRONT, grid
    )
    c15 = error_sweep(
        DipoleArrayScenario(uniform_linear_array(15, 0.25), "ff-bf", FRONT), FRONT, grid
    )
    gap = np.max(np.abs(np.log10(c8.epsilon) - np.log10(c15.epsilon)))
    print(f"  max log10 gap = {gap:.5f} over {grid.size} radii")
    assert gap <= 0.1


def _finite_difference_maxwell(fields, points, step=1e-4):
    omega_mu = K * Z0
    omega_eps = K / Z0
    for p in points:
        je = np.zeros((3, 3), dtype=complex)
        jh = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            d = np.zeros(3)
            d[i] = step
            ep, hp = fields(p + d)
            em, hm = fields(p - d)
            je[i] = (ep - em) / (2.0 * step)
            jh[i] = (hp - hm) / (2.0 * step)
        curl_e = np.array([je[1, 2] - je[2, 1], je[2, 0] - je[0, 2], je[0, 1] - je[1, 0]])
        curl_h = np.array([jh[1, 2] - jh[2, 1], jh[2, 0] - jh[0, 2], jh[0, 1] - jh[1, 0]])
        e, h = fields(p)
        assert np.linalg.norm(curl_e + 1j * omega_mu * h) / (
            omega_mu * np.linalg.norm(h)
        ) < 1e-5
        assert np.linalg.norm(curl_h - 1j * omega_eps * e) / (
            omega_eps * np.linalg.norm(e)
        ) < 1e-5


def test_criterion_6_maxwell_consistency():
    """Central-difference curls reproduce the source-free Maxwell pair."""
    rng = np.random.default_rng(606)
    lone = ArrayGeometry(np.zeros((1, 3)), [0.2, -0.3, 1.1])  # one dipole at the origin
    pts = []
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        pts.append(u * rng.uniform(0.5, 50.0))
    _finite_difference_maxwell(lambda p: array_field(lone, [1.0], p), pts)

    geo = uniform_linear_array(8, 0.5)
    w = ff_precoder(geo, FRONT)
    pts = []
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        pts.append(u * rng.uniform(2.6, 40.0))  # clear of the elements
    _finite_difference_maxwell(lambda p: array_field(geo, w, p), pts)


def test_criterion_7_property_suites():
    """Invariants: mismatch range and scale freedom, gain-ratio floor,
    front power deficit, worst-case reduction vs brute force, trace drift."""
    # mu in [0, 1]; joint complex rescaling leaves it unchanged (1e6 draws)
    rng = np.random.default_rng(7)
    for _ in range(4):
        m = 250_000
        e, h, ef, hf = (
            rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3)) for _ in range(4)
        )
        mu = field_mismatch(e, h, ef, hf)
        assert np.all((mu >= 0.0) & (mu <= 1.0))
        c = rng.lognormal(0.0, 3.0, size=(m, 1)) * np.exp(
            1j * rng.uniform(0.0, 2.0 * np.pi, size=(m, 1))
        )
        assert np.max(np.abs(field_mismatch(c * e, c * h, c * ef, c * hf) - mu)) < 1e-12

    # psi >= 1 on 1e4 random geometry/point draws, steered along the line
    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 11))
        d = float(rng.uniform(0.1, 0.8))
        geo = uniform_linear_array(n, d)
        y_max = (n - 1) * d / 2.0
        r = float(np.exp(rng.uniform(np.log(max(y_max * 1.01, 1e-2)), np.log(1e3))))
        direction = _random_direction(rng)
        try:
            worst = min(worst, psi_gain_ratio(geo, r, direction))
        except ValueError:
            continue  # point too close to an element
    print(f"  min psi = {worst!r}")
    assert worst >= 1.0

    # upsilon < 1 everywhere on the front line
    geo8 = uniform_linear_array(8, 0.5)
    ups = [
        upsilon_power(geo8, r, FRONT)
        for r in np.geomspace(1e-2, 1e4, 2000)
    ]
    assert max(ups) < 1.0

    # 1-D worst-case reduction against a dense-sphere brute force (50 draws)
    rng = np.random.default_rng(71)
    for _ in range(50):
        geo = uniform_linear_array(int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.8)))
        r = float(np.max(np.abs(geo.positions[:, 1]))) * float(rng.uniform(1.5, 4.0))
        got = xi_worst_mismatch(geo, r)
        want = _xi_sphere_brute_force(geo.positions, r)
        assert abs(got - want) / want <= 1e-4

    # export/import round trip preserves the error curve to < 1e-9
    assert _trace_round_trip_drift() < 1e-9


def _random_direction(rng):
    theta = float(np.degrees(np.arccos(rng.uniform(-1.0, 1.0))))
    return Direction(theta, float(rng.uniform(0.0, 360.0)))


def _xi_sphere_brute_force(positions, r, n_dirs=99991):
    i = np.arange(n_dirs)
    z = 1.0 - (2.0 * i + 1.0) / n_dirs
    azim = i * (np.pi * (3.0 - np.sqrt(5.0)))
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    dirs = np.column_stack([s * np.cos(azim), s * np.sin(azim), z])
    best = 0.0
    for pos in positions:
        dist = np.linalg.norm(r * dirs - pos, axis=1)
        proj = dirs @ pos
        gap = np.abs(np.exp(-1j * K * dist) / dist - np.exp(-1j * K * (r - proj)) / r)
        best = max(best, float(gap.max()))
    return best


def _trace_round_trip_drift(tmp_dir=None):
    import tempfile
    from pathlib import Path

    geo = uniform_linear_array(8, 0.5)
    w = ff_precoder(geo, FRONT)
    rhat = unit_vector(FRONT)
    grid = np.geomspace(0.5, 500.0, 80)
    e = np.empty((grid.size, 3), complex)
    h = np.empty((grid.size, 3), complex)
    for i, r in enumerate(grid):
        e[i], h[i] = array_field(geo, w, r * rhat)
    f = analytic_angular_distribution(geo, w, FRONT).f
    trace = FieldTrace(r=grid, e=e, h=h, f=f, direction=FRONT)
    want = trace_error_curve(trace, FRONT).epsilon

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "round_trip.csv"
        export_trace(trace, path)
        got = trace_error_curve(import_trace(path), FRONT).epsilon
    return float(np.max(np.abs(got - want)))


def test_criterion_8_reproduction_is_deterministic(tmp_path):
    """Two full fig4 reproduction runs must be byte-identical."""
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["reproduce", "--figure", "fig4", "--out", str(out_a)]) == 0
    assert main(["reproduce", "--figure", "fig4", "--out", str(out_b)]) == 0
    names_a = sorted(p.name for p in out_a.glob("*.csv"))
    names_b = sorted(p.name for p in out_b.glob("*.csv"))
    assert names_a == names_b and len(names_a) == 19
    for name in names_a:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


#: fig4's boundary definitions.
FIG4_SPECS = tuple(BoundarySpec(kind, threshold) for kind, threshold in (
    ("qr", None), ("ar", None), ("up", 0.9), ("up", 0.8), ("en", 1.01), ("en", 1.05),
    ("ep", 0.99), ("ep", 1.01), ("wc", 0.001), ("wc", 0.01),
))


def test_criterion_9_no_boundary_marks_one_error_level():
    """The paper's finding: no boundary definition predicts where the error has fallen.

    On fig4's six panels (N = 8 and N = 64 half-wave arrays, three directions), with ff-bf
    and nf-bf, every definition found at d <= 1e4 wavelengths on at least two panels has an
    error eps(d) that spans more than a decade.  On the side lines, the error beyond the
    ``ar``, ``en`` and ``ep`` boundaries comes back to total mismatch.
    """
    eps_at, beyond = {}, []
    for n in (8, 64):
        geometry = uniform_linear_array(n, 0.5)
        tables = evaluate_boundaries(geometry, FIG4_SPECS, DIRECTION_PRESETS.values())
        for direction, results in zip(DIRECTION_PRESETS.values(), tables):
            found = {spec: res.value for spec, res in zip(FIG4_SPECS, results)
                     if res.status == "found" and res.value <= 1e4}
            radii = np.unique(list(found.values()))
            for excitation in ("ff-bf", "nf-bf"):
                scenario = DipoleArrayScenario(geometry, excitation, direction)
                eps = error_sweep(scenario, direction, radii).epsilon
                for spec, d in found.items():
                    eps_at.setdefault(spec, []).append(eps[np.searchsorted(radii, d)])
                if direction != SIDE:
                    continue
                grid = default_grid(1e-3, 1e4, 400)  # the search grid's density
                grid = grid[grid >= radii[0]]
                curve = error_sweep(scenario, direction, grid)
                beyond += [np.max(curve.epsilon[grid >= d]) for spec, d in found.items()
                           if spec.kind in ("ar", "en", "ep")]
    spreads = {spec: max(eps) / min(eps) for spec, eps in eps_at.items() if len(eps) >= 4}
    assert len(spreads) == 9  # ep:1.01 is unbounded on every panel
    for spec, spread in spreads.items():
        print(f"  {spec.kind}:{spec.threshold}: eps(d) spreads {spread:.3g}x")
        assert spread > 10.0, spec
    assert len(beyond) == 16 and min(beyond) > 0.999
