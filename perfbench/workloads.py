"""Seeded operation lists for the generated workloads.

Pure Python, no nff import: the same seed gives the same operations in
any process.  Operations are plain dicts, so the program only ever sees
the generated inputs.

A job is a whole number of blocks, and each block holds every
(size bin x mode) pair once, in shuffled order.  Across the blocks of a
job each pair's element counts take the midpoints of equal log-strata of
its bin in a random order (the top one pinned to N = 1024), its spacings
cycle through the three values, and (sweeps) trace captures rotate over
the size bins.  Directions, block order and thresholds are free.  So the
inputs change from seed to seed while a job's cost, its latency
quantiles and its largest array barely do, which keeps the run-to-run
spread small.
"""

from __future__ import annotations

import random

#: Fixed-size jobs: operations per second of ``--seconds``, rounded to
#: whole blocks.  At the commit that introduced the benchmark one job
#: takes about ``--seconds`` on a 2-core x86 box; 15 s gives 108 curves
#: and 140 searches.  A faster program finishes the same job sooner.
SWEEP_OPS_PER_SECOND = 7.0
SEARCH_OPS_PER_SECOND = 9.0

#: Element counts are log-uniform in 1..1024, split into four bins.
LOG2_N_BINS = ((0.0, 2.5), (2.5, 5.0), (5.0, 7.5), (7.5, 10.0))
SPACINGS = (0.25, 0.5, 1.0)
EXCITATIONS = ("ff-bf", "nf-bf", "none")
#: Boundary kinds with their thresholds drawn from the fig4 set; no
#: ``wc``, whose cached scan belongs to the fig4 workload.
SEARCH_KINDS = (
    ("qr", (None,)),
    ("ar", (None,)),
    ("up", (0.9, 0.8)),
    ("en", (1.01, 1.05)),
    ("ep", (0.99, 1.01)),
)
#: One sweep curve in four is also captured and round-tripped as a
#: trace; only fixed-weight excitations can be captured.
TRACES_PER_BLOCK = 3


def _modes(workload: str) -> tuple[str, ...]:
    return EXCITATIONS if workload == "sweeps" else tuple(k for k, _ in SEARCH_KINDS)


def job_blocks(workload: str, seconds: float) -> int:
    rate = SWEEP_OPS_PER_SECOND if workload == "sweeps" else SEARCH_OPS_PER_SECOND
    per_block = len(LOG2_N_BINS) * len(_modes(workload))
    return max(1, round(rate * seconds / per_block))


def _direction(rng: random.Random) -> tuple[float, float]:
    # Stay off the array axis and the poles, where grid radii could land
    # on an element and the criteria are pinned by symmetry.
    return round(rng.uniform(15.0, 165.0), 6), round(rng.uniform(0.0, 360.0), 6) % 360.0


def _ops(workload: str, seed: int, blocks: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    pairs = [(b, m) for b in range(len(LOG2_N_BINS)) for m in _modes(workload)]
    strata = {p: rng.sample(range(blocks), blocks) for p in pairs}
    spacing_offset = {p: rng.randrange(len(SPACINGS)) for p in pairs}
    trace_offset = rng.randrange(len(LOG2_N_BINS))
    ops: list[dict] = []
    for j in range(blocks):
        # every run of four blocks captures three curves of each size bin,
        # alternating between the two fixed-weight excitations
        traced = set()
        for m in range(TRACES_PER_BLOCK):
            b = (trace_offset + j + m) % len(LOG2_N_BINS)
            traced.add((b, ("ff-bf", "none")[(j // len(LOG2_N_BINS) + b + m) % 2]))
        block = list(pairs)
        rng.shuffle(block)
        for pair in block:
            b, mode = pair
            lo, hi = LOG2_N_BINS[b]
            frac = (strata[pair][j] + 0.5) / blocks
            if b == len(LOG2_N_BINS) - 1 and strata[pair][j] == blocks - 1:
                frac = 1.0  # every job holds N = 1024, so its peak memory is steady
            u = lo + (hi - lo) * frac
            theta, phi = _direction(rng)
            op = {
                "i": len(ops),
                "n": max(1, min(1024, int(round(2.0 ** u)))),
                "spacing": SPACINGS[(spacing_offset[pair] + j) % len(SPACINGS)],
                "theta": theta,
                "phi": phi,
            }
            if workload == "sweeps":
                op.update(excitation=mode, trace=pair in traced)
            else:
                op.update(kind=mode, threshold=rng.choice(dict(SEARCH_KINDS)[mode]))
            ops.append(op)
    return ops


def generate(workload: str, seed: int, seconds: float) -> list[dict]:
    """The operation list of one run; fig4 has fixed inputs and none."""
    if workload == "fig4":
        return []
    return _ops(workload, seed, job_blocks(workload, seconds))
