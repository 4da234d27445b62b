"""One workload in one fresh interpreter: set up, run the job, check it.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode setup|run|trace --out result.json

``setup`` stops once nff is imported, the inputs are generated and the
untimed warm-up operation has run; ``run`` then times the job, scaled to
nominal machine speed (``calibrate``); ``trace`` times it with spans
recorded and adds the kernel timings.  The result, with the monotonic
time at which set-up ended, goes to ``--out`` as JSON.  Every run starts cold: nothing in nff's process-global state is
read or cleared here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_out"
FIG4_ARGV = ["reproduce", "--figure", "fig4", "--out"]
#: Fixed warm-up operations, outside every job.
WARMUP = {
    "sweeps": {"i": -1, "n": 8, "spacing": 0.5, "theta": 90.0, "phi": 0.0,
               "excitation": "ff-bf", "trace": True},
    "boundaries": {"i": -1, "n": 8, "spacing": 0.5, "theta": 90.0, "phi": 0.0,
                   "kind": "en", "threshold": 1.05},
}


def _import_nff():
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import nff
    import nff.cli

    seconds = perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(nff.__file__).resolve().parents:
        raise SystemExit(f"nff was imported from {nff.__file__}, not from {src}")
    return nff, seconds


class SweepJob:
    def __init__(self, nff, tmp: Path) -> None:
        self.nff = nff
        self.grid = nff.default_grid()
        self.tmp = tmp

    def __call__(self, op: dict):
        nff = self.nff
        geometry = nff.uniform_linear_array(op["n"], op["spacing"])
        direction = nff.Direction(op["theta"], op["phi"])
        scenario = nff.DipoleArrayScenario(geometry, op["excitation"], direction)
        curve = nff.error_sweep(scenario, direction, self.grid)
        trace_eps = None
        if op["trace"]:
            # Capture the same line as an external solver would, then feed
            # it back through the trace format and the TraceScenario path.
            rhat = nff.unit_vector(direction)
            e, h = zip(*(scenario.fields(r * rhat) for r in self.grid))
            f = scenario.angular_distribution(direction, float(self.grid[-1])).f
            captured = nff.FieldTrace(r=self.grid, e=e, h=h, f=f, direction=direction)
            path = self.tmp / f"trace_{op['i']}.csv"
            nff.export_trace(captured, path)
            trace_eps = nff.trace_error_curve(nff.import_trace(path), direction).epsilon
            path.unlink()
        return curve.r, curve.epsilon, trace_eps

    @staticmethod
    def check(op: dict, output, reference) -> list[str]:
        r, eps, trace_eps = output
        return checks.check_curve(op, r, eps, trace_eps, reference)


class SearchJob:
    def __init__(self, nff, tmp: Path) -> None:
        self.nff = nff

    def __call__(self, op: dict):
        nff = self.nff
        geometry = nff.uniform_linear_array(op["n"], op["spacing"])
        spec = nff.BoundarySpec(op["kind"], op["threshold"])
        res = nff.evaluate_boundary(geometry, spec, nff.Direction(op["theta"], op["phi"]))
        return {"status": res.status, "value": res.value, "crossings": res.crossings,
                "degenerate": bool(res.degenerate)}

    @staticmethod
    def check(op: dict, output, reference) -> list[str]:
        return checks.check_search(op, output, reference)


def run_ops(ops: list[dict], execute, tracer=None, sampler=None):
    """Closed loop over ``ops``: an exception fails its operation only.

    Returns outputs, errors by op index, per-op (start, end, latency) and
    the job time; calibration time spent inside an operation is taken
    out of its latency and of the job time.
    """
    outputs, spans, errors = [], [], {}
    calibration = (lambda: sampler.busy_s) if sampler is not None else (lambda: 0.0)
    t_job, c_job = perf_counter(), calibration()
    for op in ops:
        if tracer is not None:
            tracer.op_id = op["i"]
        t0, c0 = perf_counter(), calibration()
        try:
            outputs.append(execute(op))
        except Exception as exc:  # a failed operation must not stop the job
            outputs.append(None)
            errors[op["i"]] = f"raised {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        spans.append((t0, t1, t1 - t0 - (calibration() - c0)))
    return outputs, errors, spans, perf_counter() - t_job - (calibration() - c_job)


def nominal_times(spans, job_s: float, sampler) -> tuple[list[float], float]:
    """Latencies and job time scaled to nominal machine speed."""
    local = [lat * sampler.relative_speed(t0, t1) for t0, t1, lat in spans]
    rest = job_s - sum(lat for _, _, lat in spans)  # loop overhead between ops
    return local, sum(local) + rest * sampler.relative_speed()


def check_ops(ops, outputs, errors: dict, check, reference) -> dict[int, str]:
    """Problems per failed operation; ``reference`` maps op index to values."""
    failed = dict(errors)
    for op, output in zip(ops, outputs):
        if op["i"] in failed:
            continue
        ref = reference.get(str(op["i"])) if reference else None
        try:
            problems = check(op, output, ref)
        except Exception as exc:  # a malformed output fails its check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed[op["i"]] = "; ".join(problems)
    return failed


def _peak_rss_mb() -> float:
    """This process image's peak resident size.

    ``ru_maxrss`` survives ``exec``: a worker would inherit the larger
    resident size of the orchestrator it was forked from.  VmHWM does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("fig4", "sweeps", "boundaries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    nff, import_s = _import_nff()
    ops = workloads.generate(args.workload, args.seed, args.seconds)
    tmp = SCRATCH / f"{args.workload}-{args.mode}-work"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    execute = None
    if args.workload != "fig4":
        execute = (SweepJob if args.workload == "sweeps" else SearchJob)(nff, tmp)
        execute(WARMUP[args.workload])
    ready = time.monotonic()
    # machine speed right after set-up, to scale the set-up time
    result = {"ready": ready, "import_s": import_s,
              "setup_speed": calibrate.spot_speed()}
    if args.mode == "setup":
        shutil.rmtree(tmp, ignore_errors=True)
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer, overhead_costs

        tracer = Tracer(op_boundary="harness.export_table" if args.workload == "fig4" else None)
        tracer.install()

    if args.workload == "fig4":
        def execute(op):
            with contextlib.redirect_stdout(io.StringIO()):
                code = nff.cli.main(FIG4_ARGV + [str(tmp)])
            if code != 0:
                raise RuntimeError(f"nff reproduce exited with {code}")

        job = [{"i": 0}]
    else:
        job = ops
    # Spans must not contain calibration time: sample only around a traced job.
    with calibrate.Sampler(during=tracer is None) as sampler:
        outputs, errors, spans, wall_s = run_ops(job, execute, tracer, sampler)
    latencies, job_s = nominal_times(spans, wall_s, sampler)
    result.update(job_s=job_s, wall_s=wall_s, latencies=latencies,
                  speed=1.0 / sampler.relative_speed(), peak_rss_mb=_peak_rss_mb())

    if tracer is not None:
        tracer.uninstall()
        spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_path)
        result["spans"] = str(spans_path)
        result["counters"] = dict(tracer.counters(), costs=overhead_costs())
        import kernels

        result["kernels"] = kernels.measure(nff)

    reference = None
    if args.workload != "fig4" and args.seed == checks.DEFAULT_SEED:
        recorded = checks.load_reference(args.workload)
        # recorded for the default --seconds; other job sizes draw other inputs
        if recorded is not None and len(recorded) == len(ops):
            reference = recorded
    if args.workload == "fig4":
        tables = checks.load_reference("fig4")
        if errors:
            failed = dict.fromkeys(tables, errors[0])
        else:
            per_table = checks.check_fig4(tmp, tables)
            failed = {name: "; ".join(p) for name, p in per_table.items() if p}
        attempted = len(tables)
    else:
        failed = check_ops(ops, outputs, errors, execute.check, reference)
        attempted = len(ops)
    shutil.rmtree(tmp, ignore_errors=True)

    import numpy
    import scipy

    result.update(
        attempted=attempted,
        failed={str(k): v for k, v in failed.items()},
        reference_checked=reference is not None or args.workload == "fig4",
        versions={"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "nff": getattr(nff, "__version__", "?")},
    )
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
