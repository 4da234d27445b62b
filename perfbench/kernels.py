"""Kernel timings at fixed, stated sizes (per-layer metrics, never gated).

Each repeat is scaled to nominal machine speed like the job's operations
(see ``calibrate``).  Byte and sample counts are computed from array
shapes, not measured, and say so in their names.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

import calibrate

KERNEL_POINTS = 2000  # array_field points per repeat, N = 8 and N = 64
MISMATCH_PAIRS = 100_000  # field_mismatch pairs in one call
XI_RADII = np.geomspace(20.0, 1.0e6, 16)  # xi_worst_mismatch radii at N = 64
XI_S_SAMPLES = 2001  # line-projection grid of the collinear Xi scan
REPEATS = 3


def _median_time(fn, sampler: calibrate.Sampler, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0, c0 = perf_counter(), sampler.busy_s
        fn()
        t1 = perf_counter()
        times.append((t1 - t0 - (sampler.busy_s - c0)) * sampler.relative_speed(t0, t1))
    return statistics.median(times)


def measure(nff) -> dict[str, float]:
    with calibrate.Sampler() as sampler:
        return _measure(nff, sampler)


def _measure(nff, sampler: calibrate.Sampler) -> dict[str, float]:
    rng = np.random.default_rng(20260)
    out: dict[str, float] = {}
    dirs = rng.normal(size=(KERNEL_POINTS, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points = dirs * np.geomspace(40.0, 1.0e4, KERNEL_POINTS)[:, None]
    for n in (8, 64):
        geo = nff.uniform_linear_array(n, 0.5)
        w = nff.ff_precoder(geo, nff.FRONT)

        def fields(geo=geo, w=w):
            for p in points:
                nff.array_field(geo, w, p)

        out[f"sources.kernel.n{n}.points_per_s"] = KERNEL_POINTS / _median_time(fields, sampler)
        # E and H per element: 2 x (N, 3) complex128
        out[f"sources.kernel.n{n}.computed_bytes_per_point"] = 2 * n * 3 * 16

    shape = (MISMATCH_PAIRS, 3)
    e, h, e_ff, h_ff = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(4))
    seconds = _median_time(lambda: nff.field_mismatch(e, h, e_ff, h_ff), sampler)
    out["metric.field_mismatch.pairs_per_s"] = MISMATCH_PAIRS / seconds
    # four complex 3-vectors read per pair
    out["metric.field_mismatch.computed_bytes_per_pair"] = 4 * 3 * 16

    geo64 = nff.uniform_linear_array(64, 0.5)

    def xi():
        for r in XI_RADII:
            nff.xi_worst_mismatch(geo64, float(r))

    out["boundaries.xi.n64.radii_per_s"] = XI_RADII.size / _median_time(xi, sampler)
    out["boundaries.xi.n64.computed_samples_per_radius"] = 64 * XI_S_SAMPLES
    return out
