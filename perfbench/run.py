"""nff's benchmark: one workload per call, every process started cold.

    python3 perfbench/run.py --workload fig4|sweeps|boundaries|all \
        [--seed N] [--seconds T] [--trace 0|1]

Workloads (see README.md in this directory):

* ``fig4`` - ``nff reproduce --figure fig4`` through ``nff.cli.main`` in a
  fresh interpreter, so the process-global ``wc`` cache starts empty as
  it does for every CLI user.  Fixed inputs; the seed is ignored.
* ``sweeps`` - seeded ``error_sweep`` curves on the default 501-point
  grid; about one in four also round-trips through a trace file.
* ``boundaries`` - seeded ``evaluate_boundary`` searches (no ``wc``).

With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric; with ``--trace 1`` the same job runs with
spans, and the JSON carries every per-layer metric.  The program's outputs are checked either way.  The exit code
is 0 when a result was printed, also when outputs were wrong
(``correct`` is then false), and 1 when no result could be produced,
for example when ``src/nff`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import beta

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out"
WORKLOADS = ("fig4", "sweeps", "boundaries")
#: Set-up is measured this many times per run in fresh processes,
#: besides the measuring process itself, and reported as the median.
SETUP_PROBES = 4
#: A run must end within 180 s; leave room to report.
DEADLINE_S = 170.0
#: One single-threaded load generator; numerical libraries stay on one
#: thread so the two-core box is not oversubscribed.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: glibc raises its mmap threshold after a large free, so whether a big
#: array reuses heap or maps fresh pages - and the peak resident size -
#: depended on the order of earlier allocations.  A fixed threshold maps
#: every large array and returns it on free: peak memory is what the
#: program holds.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
UNITS = {
    "setup_s": "s", "job_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
    "op_p90_s": "s", "peak_rss_mb": "MB",
}
CACHE_NOTE = ("cache hits/misses: not reported; the wc cache is internal to "
              "nff and counting it needs tracing inside the program (ROADMAP item 5)")


class BenchError(RuntimeError):
    """A worker could not produce a result."""


def _worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    out = SCRATCH / f"result-{workload}-{mode}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--mode", mode, "--out", str(out)]
    env = dict(os.environ, **THREAD_ENV, **MALLOC_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["setup_s"] = (result["ready"] - spawned) * result["setup_speed"]
    return result


def _quantiles(values: list[float]) -> tuple[float, float]:
    """Harrell-Davis estimates of the median and the 90th percentile.

    A beta-weighted mean of all order statistics: on the same job its
    spread between runs was about a fifth lower than that of the plain
    sample quantiles, which jump between neighbouring operations.
    """
    x = np.sort(values)
    edges = np.arange(x.size + 1) / x.size

    def estimate(p: float) -> float:
        weights = np.diff(beta.cdf(edges, p * (x.size + 1), (1 - p) * (x.size + 1)))
        return float(weights @ x)

    return estimate(0.5), estimate(0.9)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    probes = [_worker(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_PROBES)]
    run = _worker(workload, seed, seconds, "run", deadline)
    p50, p90 = _quantiles(run["latencies"])
    metrics = {
        "setup_s": statistics.median([p["setup_s"] for p in probes] + [run["setup_s"]]),
        "job_s": run["job_s"],
        "ops_per_s": run["attempted"] / run["job_s"],
        "op_p50_s": p50,
        "op_p90_s": p90,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return run, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("frac") or name.endswith("share"):
        return "frac"
    if "bytes" in name:
        return "B"
    return "count"


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    traced = _worker(workload, seed, seconds, "trace", deadline)
    with np.load(traced["spans"]) as spans:
        metrics = tracer.layer_metrics(spans, traced["counters"], traced["wall_s"])
    metrics.update(traced["kernels"])
    metrics["setup.import_nff_s"] = traced["import_s"]
    traced["missing"] = traced["counters"]["missing"]
    return traced, {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}


def _metadata(workload: str, seed: int, seconds: float, trace: int, run: dict) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": sha, "versions": run["versions"], "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "env": dict(THREAD_ENV, **MALLOC_ENV),
        "load": "closed loop, one single-threaded client process",
        "reference_checked": run["reference_checked"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        run, metrics = per_layer(workload, seed, seconds, deadline)
    else:
        run, metrics = end_to_end(workload, seed, seconds, deadline)
    failed = len(run["failed"])
    meta = _metadata(workload, seed, seconds, trace, run)
    print(f"# perfbench {workload} seed={seed} seconds={seconds:g} trace={trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    if not trace:
        print(f"# measured: job {run['wall_s']:.4g} s of wall time at machine speed "
              f"{run['speed']:.4g} (calibration kernel time over nominal)")
    for key, problem in sorted(run["failed"].items()):
        print(f"# FAILED op {key}: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / run['attempted']:.6g} ({failed}/{run['attempted']})")
    if trace:
        print(f"# {CACHE_NOTE}")
        if run["missing"]:
            print(f"# traced names not found in nff (0 calls): {', '.join(run['missing'])}")
    result = {"correct": failed == 0, "attempted": run["attempted"], "failed": failed,
              "metrics": metrics}
    record = dict(result, meta=meta, failures=run["failed"], latencies=run["latencies"])
    (SCRATCH / f"last-{workload}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nff" / "__init__.py").is_file():
        print(f"error: no nff sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
